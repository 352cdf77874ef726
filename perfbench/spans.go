package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"heroserve/internal/collective"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// layer names one traced module boundary. Every span belongs to exactly one.
type layer uint8

const (
	// layerCallback is one engine event callback: serving logic plus
	// whatever nested core, collective and netsim work it triggers.
	layerCallback layer = iota
	// layerAllReduce is one call into core.OnlinePolicy.AllReduce.
	layerAllReduce
	// layerRoute is one collective.Router.Route call.
	layerRoute
	// layerRealloc is one netsim water-filling reallocation.
	layerRealloc
	// layerTraceWrite is one write of the telemetry tracer into its sink.
	layerTraceWrite
	numLayers
)

var layerNames = [numLayers]string{"serving.callback", "core.allreduce", "collective.route", "netsim.realloc", "telemetry.trace_write"}

func (l layer) String() string { return layerNames[l] }

// layerStat accumulates one layer's spans.
type layerStat struct {
	calls int64
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus nested child spans
}

// spanRecord is one finished span as written to the span log.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Reqs   []int  `json:"reqs,omitempty"`
}

// openSpan is a span on the nesting stack.
type openSpan struct {
	id    uint64
	layer layer
	start time.Duration
	child time.Duration // wall covered by already-finished children
	reqs  []int
}

// spanKeep bounds the span log: only the newest spanKeep spans are kept
// for writing out; the per-layer totals cover every span.
const spanKeep = 4096

// tracer records strictly nested spans at the module boundaries of one
// traced run. It is the engine's sim.Profiler and the network's
// netsim.PerfProbe, and the pass-through wrappers below report into it. It
// only reads the wall clock: it schedules, cancels and changes nothing in
// the simulation.
type tracer struct {
	clock  func() time.Duration // wall time since the tracer started
	stack  []openSpan
	nextID uint64
	layers [numLayers]layerStat
	log    []spanRecord // ring of the newest spans
	logged uint64       // spans ever finished

	// Engine counters, read at BeginEvent.
	eng         *sim.Engine
	peakPending int

	// Water-filling work per reallocation, from ReallocDone.
	reallocFlows  int64
	reallocMax    int
	reallocRounds int64
}

func newTracer() *tracer {
	base := time.Now()
	return &tracer{clock: func() time.Duration { return time.Since(base) }}
}

func (t *tracer) begin(l layer, reqs []int) {
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, layer: l, start: t.clock(), reqs: reqs})
}

func (t *tracer) end() {
	now := t.clock()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - top.start
	st := &t.layers[top.layer]
	st.calls++
	st.total += dur
	st.self += dur - top.child
	var parent uint64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	rec := spanRecord{ID: top.id, Parent: parent, Name: top.layer.String(),
		Start: int64(top.start), End: int64(now), Reqs: top.reqs}
	if len(t.log) < spanKeep {
		t.log = append(t.log, rec)
	} else {
		t.log[t.logged%spanKeep] = rec
	}
	t.logged++
}

// BeginEvent implements sim.Profiler.
func (t *tracer) BeginEvent(sim.Time) int64 {
	if t.eng != nil {
		if p := t.eng.Pending(); p > t.peakPending {
			t.peakPending = p
		}
	}
	t.begin(layerCallback, nil)
	return 1
}

// EndEvent implements sim.Profiler.
func (t *tracer) EndEvent(int64) { t.end() }

// ReallocStart implements netsim.PerfProbe.
func (t *tracer) ReallocStart() int64 {
	t.begin(layerRealloc, nil)
	return 1
}

// ReallocDone implements netsim.PerfProbe.
func (t *tracer) ReallocDone(_ int64, _, flows, rounds int) {
	t.end()
	t.reallocFlows += int64(flows)
	t.reallocRounds += int64(rounds)
	if flows > t.reallocMax {
		t.reallocMax = flows
	}
}

// writeLog writes the kept spans, oldest first, as JSON lines.
func (t *tracer) writeLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	start := 0
	if t.logged > spanKeep {
		start = int(t.logged % spanKeep)
	}
	for i := range t.log {
		if err := enc.Encode(t.log[(start+i)%len(t.log)]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPolicy passes every all-reduce through to the wrapped policy,
// recording a span around the call and the simulated time until done.
type tracedPolicy struct {
	inner   serving.CommPolicy
	tr      *tracer
	simSum  float64 // simulated seconds from call to done, summed
	simDone int64
}

// Name implements serving.CommPolicy.
func (p *tracedPolicy) Name() string { return p.inner.Name() }

// AllReduce implements serving.CommPolicy.
func (p *tracedPolicy) AllReduce(ctx *serving.GroupCtx, msgBytes int64, steps int, done func()) {
	eng := ctx.Comm.Network().Engine()
	start := eng.Now()
	p.tr.begin(layerAllReduce, ctx.Reqs)
	p.inner.AllReduce(ctx, msgBytes, steps, func() {
		p.simSum += eng.Now() - start
		p.simDone++
		done()
	})
	p.tr.end()
}

// tracedRouter passes every route lookup through, recording a span.
type tracedRouter struct {
	inner collective.Router
	tr    *tracer
}

// Route implements collective.Router.
func (r *tracedRouter) Route(a, b topology.NodeID, size int64) (topology.Path, bool) {
	r.tr.begin(layerRoute, nil)
	p, ok := r.inner.Route(a, b, size)
	r.tr.end()
	return p, ok
}

// sink is the telemetry tracer's io.Writer: it forwards to w, counts bytes
// and checksums them, so two runs can be compared without keeping the
// trace. With a tracer set it also records a span per write.
type sink struct {
	w     io.Writer
	tr    *tracer
	bytes int64
	crc   uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *sink) Write(b []byte) (int, error) {
	if s.tr != nil {
		s.tr.begin(layerTraceWrite, nil)
		defer s.tr.end()
	}
	s.crc = crc32.Update(s.crc, castagnoli, b)
	s.bytes += int64(len(b))
	return s.w.Write(b)
}

func (s *sink) digest() string { return fmt.Sprintf("%d/%08x", s.bytes, s.crc) }
