// Package critpath reconstructs per-request span trees from the telemetry
// trace-event stream and decomposes each request's TTFT and end-to-end
// latency into critical-path stage contributions: queue wait, prefill
// compute, all-reduce communication by scheme, pipeline activation
// transfers, KV-cache migration, decode compute, and fault stalls.
//
// The input is the deterministic event stream the serving simulator emits
// (PR 2/3): request lifecycle spans on per-request threads, all-reduce and
// pipeline_stage async spans tagged with the request IDs they serve (this
// PR), and fault instants on the control-plane track. The analyzer consumes
// events one at a time — either live, tapped off the Tracer, or offline from
// a parsed spans.json — so it works identically on buffered and streaming
// backends.
//
// The decomposition is an exact partition: within each request window the
// elementary time segments are attributed to exactly one stage (communication
// beats transfers beats fault stalls beats compute), so the per-stage
// contributions of a request sum to its TTFT / end-to-end latency to within
// floating-point rounding. That identity is what lets the aggregate
// ttft_critical_path_seconds_total{stage} counters be cross-checked against
// the ttft_seconds histogram sum.
package critpath

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"heroserve/internal/telemetry"
)

// Stage labels of the critical-path decomposition. All-reduce communication
// is labeled "allreduce-<scheme>" (see StageAllReduce).
const (
	StageQueue          = "queue"
	StagePrefillCompute = "prefill-compute"
	StagePipeline       = "pipeline-transfer"
	StageKVTransfer     = "kv-transfer"
	StageDecodeCompute  = "decode-compute"
	StageFaultStall     = "fault-stall"
)

// StageAllReduce returns the stage label of all-reduce time under the given
// communication scheme (e.g. "allreduce-ring", "allreduce-ina-hetero").
func StageAllReduce(scheme string) string { return "allreduce-" + scheme }

// stageOrder fixes the canonical report ordering of the known stages; labels
// outside this list sort alphabetically after it.
var stageOrder = []string{
	StageQueue,
	StagePrefillCompute,
	"allreduce-ring",
	"allreduce-ina-sync",
	"allreduce-ina-async",
	"allreduce-ina-hetero",
	StagePipeline,
	StageKVTransfer,
	StageDecodeCompute,
	StageFaultStall,
}

// Breakdown is one finalized request's critical-path decomposition. Stage
// maps hold seconds and omit zero contributions; TTFTStages is a subset view
// (queue + prefill window), E2EStages covers the whole request.
type Breakdown struct {
	PID        int
	Req        int
	TraceID    string
	Arrival    float64 // seconds of sim-time
	TTFT       float64 // sum of TTFTStages
	E2E        float64 // sum of E2EStages
	TTFTStages map[string]float64
	E2EStages  map[string]float64
}

// DominantStage returns the stage with the largest end-to-end contribution
// (ties break in canonical stage order).
func (b *Breakdown) DominantStage() string {
	best, bestV := "", -1.0
	for _, s := range sortStages(b.E2EStages) {
		if v := b.E2EStages[s]; v > bestV {
			best, bestV = s, v
		}
	}
	return best
}

// interval is one attributable time range in microseconds of sim-time, with
// the stage label it carries.
type interval struct {
	start, end float64
	stage      string
}

// window is one request lifecycle phase parsed from a complete (X) span.
type window struct {
	start, end float64
	seen       bool
}

// reqState accumulates one in-flight request's evidence until it finalizes.
type reqState struct {
	traceID                    string
	output                     int
	hasSpan                    bool // the parent "request" span arrived
	queue, prefill, kv, decode window
	comm                       []interval // all-reduce spans tagged with this request, by scheme
	pipe                       []interval // pipeline_stage spans tagged with this request
}

// openSpan is an in-flight async (b/e) span.
type openSpan struct {
	start  float64
	scheme string
	reqs   []int
}

type spanKey struct {
	pid  int
	cat  string
	id   string
	name string
}

type reqKey struct {
	pid int
	req int
}

// Analyzer consumes trace events and produces per-request breakdowns.
type Analyzer struct {
	procs   map[int]string
	open    map[spanKey]*openSpan
	reqs    map[reqKey]*reqState
	faults  map[int][]interval // fault-active windows per process
	done    []Breakdown        // finalized, in completion order
	onFinal []func(Breakdown)
	sweep   sweep
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{
		procs:  make(map[int]string),
		open:   make(map[spanKey]*openSpan),
		reqs:   make(map[reqKey]*reqState),
		faults: make(map[int][]interval),
	}
}

// OnFinalize installs fn to run on every request the moment its breakdown is
// complete (the live collector bumps registry counters here, the stage-share
// tracker its sliding window). Callbacks run in registration order.
func (a *Analyzer) OnFinalize(fn func(Breakdown)) { a.onFinal = append(a.onFinal, fn) }

// Finalized returns the breakdowns completed so far, in completion order
// (which the deterministic event loop makes deterministic).
func (a *Analyzer) Finalized() []Breakdown { return a.done }

// Process returns the trace process name of a pid ("" if unknown).
func (a *Analyzer) Process(pid int) string { return a.procs[pid] }

// Feed consumes one trace event. Events must arrive in emit order.
func (a *Analyzer) Feed(ev telemetry.Event) {
	switch ev.Ph {
	case "M":
		if ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				a.procs[ev.Pid] = n
			}
		}
	case "b":
		if ev.Name != "allreduce" && ev.Name != "pipeline_stage" {
			return
		}
		reqs := asInts(ev.Args["reqs"])
		if len(reqs) == 0 {
			return
		}
		scheme, _ := ev.Args["scheme"].(string)
		a.open[spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}] = &openSpan{start: ev.Ts, scheme: scheme, reqs: reqs}
	case "e":
		key := spanKey{ev.Pid, ev.Cat, ev.ID, ev.Name}
		sp, ok := a.open[key]
		if !ok {
			return
		}
		delete(a.open, key)
		for _, req := range sp.reqs {
			rs := a.req(reqKey{ev.Pid, req})
			iv := interval{start: sp.start, end: ev.Ts}
			if ev.Name == "pipeline_stage" {
				rs.pipe = append(rs.pipe, iv)
			} else {
				iv.stage = StageAllReduce(sp.scheme)
				rs.comm = append(rs.comm, iv)
			}
		}
	case "i":
		if ev.Cat != "fault" || strings.HasSuffix(ev.Name, "-recovered") {
			return
		}
		// Injection instants carry the fault's duration; the active window is
		// [ts, ts + duration].
		if d, ok := asFloat(ev.Args["duration"]); ok && d > 0 {
			a.faults[ev.Pid] = append(a.faults[ev.Pid],
				interval{start: ev.Ts, end: ev.Ts + d*1e6, stage: StageFaultStall})
		}
	case "X":
		if ev.Cat != "request" {
			return
		}
		a.feedRequestSpan(ev)
	}
}

// feedRequestSpan ingests one request lifecycle span. The serving simulator
// emits them at completion time, parent first: request, queue, prefill,
// kv-transfer, then decode (multi-token requests only) — so the request
// finalizes on its last expected child.
func (a *Analyzer) feedRequestSpan(ev telemetry.Event) {
	end := ev.Ts
	if ev.Dur != nil {
		end += *ev.Dur
	}
	if ev.Name == "request" {
		id, ok := asInt(ev.Args["id"])
		if !ok {
			return
		}
		rs := a.req(reqKey{ev.Pid, id})
		rs.hasSpan = true
		if tid, ok := ev.Args["trace_id"].(string); ok {
			rs.traceID = tid
		}
		if out, ok := asInt(ev.Args["output"]); ok {
			rs.output = out
		}
		return
	}
	id, ok := asInt(ev.Args["req"])
	if !ok {
		return
	}
	key := reqKey{ev.Pid, id}
	rs := a.req(key)
	w := window{start: ev.Ts, end: end, seen: true}
	switch ev.Name {
	case "queue":
		rs.queue = w
	case "prefill":
		rs.prefill = w
	case "kv-transfer":
		rs.kv = w
		if rs.hasSpan && rs.output <= 1 {
			a.finalize(key, rs)
		}
	case "decode":
		rs.decode = w
		if rs.hasSpan {
			a.finalize(key, rs)
		}
	}
}

func (a *Analyzer) req(k reqKey) *reqState {
	rs, ok := a.reqs[k]
	if !ok {
		rs = &reqState{}
		a.reqs[k] = rs
	}
	return rs
}

// finalize partitions the request's windows into stage contributions and
// publishes the breakdown.
func (a *Analyzer) finalize(k reqKey, rs *reqState) {
	delete(a.reqs, k)
	if !rs.queue.seen || !rs.prefill.seen || !rs.kv.seen {
		return // malformed/truncated trace; nothing trustworthy to report
	}
	faults := a.faults[k.pid]
	b := Breakdown{
		PID:        k.pid,
		Req:        k.req,
		TraceID:    rs.traceID,
		Arrival:    rs.queue.start / 1e6,
		TTFTStages: make(map[string]float64),
		E2EStages:  make(map[string]float64),
	}
	addStage(b.TTFTStages, StageQueue, rs.queue.end-rs.queue.start)
	a.sweep.partition(b.TTFTStages, rs.prefill, StagePrefillCompute, rs.comm, rs.pipe, faults)
	for s, v := range b.TTFTStages {
		b.E2EStages[s] = v
	}
	addStage(b.E2EStages, StageKVTransfer, rs.kv.end-rs.kv.start)
	if rs.decode.seen {
		a.sweep.partition(b.E2EStages, rs.decode, StageDecodeCompute, rs.comm, nil, faults)
	}
	// Convert usec → seconds; TTFT/E2E are the plain stage sums, so the
	// decomposition identity holds by construction.
	for s, v := range b.TTFTStages {
		b.TTFTStages[s] = v / 1e6
		b.TTFT += v / 1e6
	}
	for s, v := range b.E2EStages {
		b.E2EStages[s] = v / 1e6
		b.E2E += v / 1e6
	}
	a.done = append(a.done, b)
	for _, fn := range a.onFinal {
		fn(b)
	}
}

// addStage accumulates a (non-negative, nonzero) contribution in usec.
func addStage(m map[string]float64, stage string, d float64) {
	if d > 0 {
		m[stage] += d
	}
}

// stageKey is one distinct (priority, stage) pair of a partition; a lower
// priority wins the overlap.
type stageKey struct {
	prio, rank int // rank is stageRank(stage)
	stage      string
}

// edge is one boundary point of a partition: a clipped interval's start
// (delta +1) or end (delta -1), moving the active count of its key, or a
// window bound (key -1).
type edge struct {
	t     float64
	key   int32
	delta int32
}

// sweep is the partition scratch space, reused across requests.
type sweep struct {
	edges      []edge
	keys       []stageKey
	counts     []int32
	perm, rank []int // orderKeys scratch
}

// partition attributes every elementary segment of the window to exactly one
// stage: all-reduce communication first (overlapping schemes break ties in
// canonical order), then pipeline transfers, then fault stalls, then the
// residual compute stage. The attributed durations sum to the window length.
//
// The elementary segments lie between the sorted boundary points of the
// window and the clipped intervals, and a segment belongs to every interval
// with start <= mid < end, mid being the segment's midpoint. One sorted pass
// over the boundary points finds both: as mid advances, the starts and ends
// at or before it move an active count per (priority, stage) key, and a
// segment's winner is the first key with a nonzero count. Sorting dominates:
// O(n log n) in the number of intervals.
func (sw *sweep) partition(out map[string]float64, w window, computeStage string, comm, pipe, faults []interval) {
	sw.edges = append(sw.edges[:0], edge{w.start, -1, 0}, edge{w.end, -1, 0})
	sw.keys = sw.keys[:0]
	sw.add(w, comm, 0, "")
	sw.add(w, pipe, 1, StagePipeline)
	sw.add(w, faults, 2, "")
	if len(sw.edges) == 2 {
		addStage(out, computeStage, w.end-w.start)
		return
	}
	sw.orderKeys()
	// cmp.Compare sorts NaN first, as sort.Float64s does. A segment with a
	// NaN bound adds nothing, and no NaN edge carries a key, so the cursor
	// starts past them.
	edges := sw.edges
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.t, b.t) })
	counts := sw.counts
	c := 0
	for c < len(edges) && math.IsNaN(edges[c].t) {
		c++
	}
	for i := 0; i+1 < len(edges); i++ {
		s, e := edges[i].t, edges[i+1].t
		if e <= s {
			continue
		}
		mid := s + (e-s)/2
		// For finite bounds mid lies in [s, e], so midpoints never
		// decrease and the cursor only moves forward. Otherwise mid is
		// NaN (s = -Inf) or +Inf (e-s overflowed), and no interval has
		// start <= mid < end.
		key := -1
		if mid <= e {
			for ; c < len(edges) && edges[c].t <= mid; c++ {
				if k := edges[c].key; k >= 0 {
					counts[k] += edges[c].delta
				}
			}
			for k, n := range counts {
				if n > 0 {
					key = k
					break
				}
			}
		}
		stage := computeStage
		if key >= 0 {
			stage = sw.keys[key].stage
		}
		addStage(out, stage, e-s)
	}
}

// add clips ivs to the window and appends the bounds of the non-empty ones
// under their (priority, stage) key; a non-empty stage overrides the
// intervals' own labels. An interval with a NaN bound covers no midpoint,
// so its bounds join the boundary points without a key.
func (sw *sweep) add(w window, ivs []interval, prio int, stage string) {
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < w.start {
			s = w.start
		}
		if e > w.end {
			e = w.end
		}
		if e <= s {
			continue
		}
		st := iv.stage
		if stage != "" {
			st = stage
		}
		key := int32(-1)
		if !math.IsNaN(s) && !math.IsNaN(e) {
			key = sw.intern(prio, st)
		}
		sw.edges = append(sw.edges, edge{s, key, 1}, edge{e, key, -1})
	}
}

// intern returns the index of the (prio, stage) key, adding it if new.
func (sw *sweep) intern(prio int, stage string) int32 {
	for i, k := range sw.keys {
		if k.prio == prio && k.stage == stage {
			return int32(i)
		}
	}
	sw.keys = append(sw.keys, stageKey{prio, stageRank(stage), stage})
	return int32(len(sw.keys) - 1)
}

// orderKeys sorts the interned keys by (priority, canonical stage order),
// renumbers the edges to match, and zeroes the active counts, so that the
// lowest nonzero count index is the winning stage.
func (sw *sweep) orderKeys() {
	n := len(sw.keys)
	perm := sw.perm[:0]
	for i := range n {
		perm = append(perm, i)
	}
	keys := sw.keys
	slices.SortFunc(perm, func(i, j int) int { return compareKeys(keys[i], keys[j]) })
	rank := slices.Grow(sw.rank[:0], n)[:n]
	for r, i := range perm {
		rank[i] = r
	}
	slices.SortFunc(keys, compareKeys)
	for i := range sw.edges {
		if k := sw.edges[i].key; k >= 0 {
			sw.edges[i].key = int32(rank[k])
		}
	}
	sw.perm, sw.rank = perm, rank
	sw.counts = slices.Grow(sw.counts[:0], n)[:n]
	clear(sw.counts)
}

// compareKeys orders keys by priority, then canonical stage order.
func compareKeys(a, b stageKey) int {
	if a.prio != b.prio {
		return cmp.Compare(a.prio, b.prio)
	}
	if a.rank != b.rank {
		return cmp.Compare(a.rank, b.rank)
	}
	return strings.Compare(a.stage, b.stage)
}

// stageRank orders stage labels canonically: known labels by their position
// in stageOrder, every unknown label after them.
func stageRank(stage string) int {
	for i, s := range stageOrder {
		if s == stage {
			return i
		}
	}
	return len(stageOrder)
}

// compareStages orders stage labels canonically (unknown labels after known,
// by name).
func compareStages(a, b string) int {
	if c := cmp.Compare(stageRank(a), stageRank(b)); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// sortStages returns the map's keys in canonical order.
func sortStages(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareStages)
	return keys
}

// asInt coerces a trace-arg value (int on the live path, float64 after a
// JSON round trip) to int.
func asInt(v any) (int, bool) {
	switch x := v.(type) {
	case int:
		return x, true
	case int64:
		return int(x), true
	case float64:
		return int(x), true
	}
	return 0, false
}

// asFloat coerces a trace-arg value to float64.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// asInts coerces a trace-arg value ([]int live, []any parsed) to []int.
func asInts(v any) []int {
	switch x := v.(type) {
	case []int:
		return x
	case []any:
		out := make([]int, 0, len(x))
		for _, e := range x {
			if i, ok := asInt(e); ok {
				out = append(out, i)
			}
		}
		return out
	}
	return nil
}

// FromTrace feeds every event of a Chrome trace-event JSON document (the
// Tracer export format) through a fresh analyzer.
func FromTrace(r io.Reader) (*Analyzer, error) {
	events, err := decodeTrace(r)
	if err != nil {
		return nil, err
	}
	a := New()
	for _, ev := range events {
		a.Feed(ev)
	}
	return a, nil
}

// ErrNoEvents reports an empty or span-free trace document.
var ErrNoEvents = fmt.Errorf("critpath: trace document has no events")
