package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Latency summarizes one latency distribution for /runs.
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// RunSummary is one completed serving run, as reported by the daemon's /runs
// endpoint. System is the CLI/experiment system id (e.g. "heroserve",
// "DS-ATP"); Policy is the communication policy the run executed.
type RunSummary struct {
	ID         int     `json:"id"`
	System     string  `json:"system"`
	Policy     string  `json:"policy"`
	Trace      string  `json:"trace"`
	Requests   int     `json:"requests"`
	Served     int     `json:"served"`
	SimSeconds float64 `json:"sim_seconds"`
	Attainment float64 `json:"sla_attainment"`
	TTFT       Latency `json:"ttft"`
	TPOT       Latency `json:"tpot"`
}

// Server exposes a Hub over HTTP: /metrics (Prometheus text exposition),
// /healthz, /runs (completed-run summaries as JSON), /trace (the current
// trace snapshot as Chrome trace-event JSON), and the named JSON documents
// registered with Document (the decision ledger, alert log, perf report).
//
// The Registry and Tracer are single-goroutine structures owned by the
// simulation loop, so the Server never reads them directly. Instead the
// simulation goroutine renders immutable snapshots at safe points — between
// events or between runs — via PublishHub and Publish, and handlers serve
// the latest snapshot under a read lock. Scrapers therefore observe a
// consistent, slightly stale view and can never race the event loop.
type Server struct {
	mu        sync.RWMutex
	simTime   float64
	published int
	prom      []byte
	om        []byte // OpenMetrics rendering of the same snapshot
	trace     []byte
	traceFile string
	runs      []run           // retained completed runs, oldest first
	docs      map[string]*doc // named document routes, keyed by path
	firing    int             // firing alerts in the latest published log
	worstSev  string          // worst firing severity, "" when none
	maxRuns   int             // run-history retention cap (0 = unbounded)
	runBase   int             // completed runs evicted from the front of the history
	handlers  map[string]http.Handler
}

// run is one retained completed run: its summary plus the metric snapshot
// (for /runs/diff) and every document (for ?run=) captured at AddRun.
type run struct {
	summary RunSummary
	prom    []byte
	docs    map[string][]byte
}

// doc is one named document route: what it holds (for the 404 before its
// first Publish), its query filter, and the latest published bytes.
type doc struct {
	what   string
	filter DocFilter
	latest []byte
}

// NewServer returns an empty Server; install it as an http.Handler.
func NewServer() *Server { return &Server{docs: make(map[string]*doc)} }

// PublishHub renders a snapshot of the hub's metrics — and, unless the
// tracer is streaming to disk, its trace — and stores it for the handlers.
// It MUST be called from the goroutine that owns the hub (the simulation
// loop) at a safe point; that discipline is what keeps the daemon
// race-detector clean.
func (s *Server) PublishHub(h *Hub) error {
	var prom bytes.Buffer
	if err := h.Metrics.WriteProm(&prom); err != nil {
		return err
	}
	var om bytes.Buffer
	if err := h.Metrics.WriteOpenMetrics(&om); err != nil {
		return err
	}
	var trace []byte
	if !h.Trace.Streaming() {
		var tb bytes.Buffer
		if err := h.Trace.Export(&tb); err != nil {
			return err
		}
		trace = tb.Bytes()
	}
	s.mu.Lock()
	s.simTime = h.Now()
	s.published++
	s.prom = prom.Bytes()
	s.om = om.Bytes()
	s.trace = trace
	s.mu.Unlock()
	return nil
}

// SetMaxRuns bounds the run history: once more than n completed runs are
// held, AddRun evicts the oldest run (summary plus its metric and document
// snapshots). Run IDs stay stable across evictions — /runs/diff and
// the per-run snapshot filters keep addressing surviving runs by their
// original IDs. n <= 0 means unbounded (the default).
func (s *Server) SetMaxRuns(n int) {
	s.mu.Lock()
	s.maxRuns = n
	s.mu.Unlock()
}

// AddRun records a completed run for /runs, assigning it the next sequential
// ID, and captures the latest published metric snapshot (the run's state for
// /runs/diff) and every published document (for ?run=) — so callers should
// PublishHub and Publish first, then AddRun. Safe to call from the goroutine
// driving the runs. Returns how many old runs the retention cap evicted (0
// without SetMaxRuns).
func (s *Server) AddRun(r RunSummary) (evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ID = s.runBase + len(s.runs) + 1
	docs := make(map[string][]byte, len(s.docs))
	for path, d := range s.docs {
		docs[path] = d.latest
	}
	s.runs = append(s.runs, run{summary: r, prom: s.prom, docs: docs})
	for s.maxRuns > 0 && len(s.runs) > s.maxRuns {
		s.runs[0] = run{} // release the evicted snapshots
		s.runs = s.runs[1:]
		s.runBase++
		evicted++
	}
	return evicted
}

// runAt resolves a run ID against the retained history under the caller's
// lock: the run, or ok=false when the ID was never assigned or has been
// evicted. A run's snapshots are immutable, so the copy outlives the lock.
func (s *Server) runAt(id int) (r run, ok bool) {
	idx := id - 1 - s.runBase
	if id < 1 || idx < 0 || idx >= len(s.runs) {
		return run{}, false
	}
	return s.runs[idx], true
}

// runRangeError describes the retained run-ID window for 404 messages.
func (s *Server) runRangeError() string {
	if len(s.runs) == 0 {
		return "no completed runs retained"
	}
	return fmt.Sprintf("run out of range: have runs %d..%d", s.runBase+1, s.runBase+len(s.runs))
}

// SetTraceFile records the path the trace is being streamed to, so /trace
// can point callers at the file instead of a (nonexistent) in-memory
// snapshot.
func (s *Server) SetTraceFile(path string) {
	s.mu.Lock()
	s.traceFile = path
	s.mu.Unlock()
}

// Handle registers a custom route consulted before the 404 fallback —
// how packages layered above telemetry (e.g. internal/telemetry/perf's
// pprof handlers) extend the daemon without an import cycle. A path ending
// in "/" is a prefix route: it matches itself and everything below it
// (longest prefix wins), which is what subtree handlers like net/http/pprof
// need. Register before serving; built-in routes cannot be overridden.
func (s *Server) Handle(path string, h http.Handler) {
	s.mu.Lock()
	if s.handlers == nil {
		s.handlers = make(map[string]http.Handler)
	}
	s.handlers[path] = h
	s.mu.Unlock()
}

// lookupHandler resolves a request path against the document and custom
// routes: exact match first, then the longest registered "/"-terminated
// prefix.
func (s *Server) lookupHandler(path string) http.Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.docs[path]; ok {
		return http.HandlerFunc(s.serveDoc)
	}
	if h, ok := s.handlers[path]; ok {
		return h
	}
	var best string
	var bestH http.Handler
	for p, h := range s.handlers {
		if strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) && len(p) > len(best) {
			best, bestH = p, h
		}
	}
	return bestH
}

// ServeHTTP routes the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		s.serveMetrics(w, r)
	case "/healthz":
		s.serveHealthz(w)
	case "/runs":
		s.serveRuns(w)
	case "/runs/diff":
		s.serveRunsDiff(w, r)
	case "/trace":
		s.serveTrace(w)
	default:
		if h := s.lookupHandler(r.URL.Path); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	}
}

// serveMetrics content-negotiates between the classic Prometheus text format
// and OpenMetrics: an Accept header mentioning application/openmetrics-text
// gets the OpenMetrics rendering (with _created series and exemplars), which
// is how real Prometheus servers opt in.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	body, om := s.prom, s.om
	s.mu.RUnlock()
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", ContentTypeOpenMetrics)
		w.Write(om)
		return
	}
	w.Header().Set("Content-Type", ContentTypeProm)
	w.Write(body)
}

// serveHealthz reports liveness plus the SLO roll-up: how many alerts are
// firing in the latest published alert log and the worst firing severity.
// Status degrades from "ok" to "degraded" while anything is firing.
func (s *Server) serveHealthz(w http.ResponseWriter) {
	s.mu.RLock()
	status, worst := "ok", s.worstSev
	if s.firing > 0 {
		status = "degraded"
	}
	if worst == "" {
		worst = "none"
	}
	resp := struct {
		Status    string  `json:"status"`
		SimTime   float64 `json:"sim_time"`
		Published int     `json:"published"`
		Runs      int     `json:"runs"`
		Evicted   int     `json:"evicted_runs"`
		Firing    int     `json:"alerts_firing"`
		Worst     string  `json:"worst_alert_severity"`
	}{status, s.simTime, s.published, len(s.runs), s.runBase, s.firing, worst}
	s.mu.RUnlock()
	writeJSON(w, resp)
}

func (s *Server) serveRuns(w http.ResponseWriter) {
	s.mu.RLock()
	runs := make([]RunSummary, len(s.runs))
	for i, r := range s.runs {
		runs[i] = r.summary
	}
	s.mu.RUnlock()
	writeJSON(w, runs)
}

func (s *Server) serveTrace(w http.ResponseWriter) {
	s.mu.RLock()
	body, file := s.trace, s.traceFile
	s.mu.RUnlock()
	switch {
	case len(body) > 0:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="spans.json"`)
		w.Write(body)
	case file != "":
		http.Error(w, fmt.Sprintf("trace is streaming to %s; no in-memory snapshot", file),
			http.StatusConflict)
	default:
		http.Error(w, "no trace snapshot published yet", http.StatusNotFound)
	}
}

// SeriesDiff is one metric series whose value differs between two runs.
type SeriesDiff struct {
	Series string  `json:"series"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
	Delta  float64 `json:"delta"`
}

// RunsDiff is the /runs/diff response: the two run IDs, series present in
// both snapshots with different values (sorted by series name), series
// present in only one snapshot, and the count of identical series. Snapshots
// are cumulative (metrics accumulate across a daemon's runs), so a diff of
// run N against run N-1 isolates run N's own contribution.
type RunsDiff struct {
	A       int          `json:"a"`
	B       int          `json:"b"`
	Equal   int          `json:"equal_series"`
	Changed []SeriesDiff `json:"changed"`
	OnlyA   []string     `json:"only_a"`
	OnlyB   []string     `json:"only_b"`
}

// serveRunsDiff diffs the metric snapshots captured at two runs' AddRun
// points: /runs/diff?a=1&b=2. The optional view=critpath reduces the diff to
// the per-stage delta table of the two runs' critical-path partitions.
func (s *Server) serveRunsDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, errA := strconv.Atoi(q.Get("a"))
	b, errB := strconv.Atoi(q.Get("b"))
	if errA != nil || errB != nil {
		http.Error(w, "want ?a=<run-id>&b=<run-id>", http.StatusBadRequest)
		return
	}
	if v := q.Get("view"); v != "" && v != "critpath" {
		http.Error(w, "bad view: want critpath", http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	runA, okA := s.runAt(a)
	runB, okB := s.runAt(b)
	rangeMsg := s.runRangeError()
	s.mu.RUnlock()
	if !okA || !okB {
		writeJSONError(w, http.StatusNotFound, rangeMsg)
		return
	}
	sa, sb := parseSeries(runA.prom), parseSeries(runB.prom)
	if q.Get("view") == "critpath" {
		writeJSON(w, critPathDiff(a, b, sa, sb))
		return
	}
	diff := RunsDiff{A: a, B: b, Changed: []SeriesDiff{}, OnlyA: []string{}, OnlyB: []string{}}
	names := make([]string, 0, len(sa)+len(sb))
	for k := range sa {
		names = append(names, k)
	}
	for k := range sb {
		if _, ok := sa[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		va, okA := sa[k]
		vb, okB := sb[k]
		switch {
		case okA && !okB:
			diff.OnlyA = append(diff.OnlyA, k)
		case okB && !okA:
			diff.OnlyB = append(diff.OnlyB, k)
		case va != vb:
			diff.Changed = append(diff.Changed, SeriesDiff{Series: k, A: va, B: vb, Delta: vb - va})
		default:
			diff.Equal++
		}
	}
	writeJSON(w, diff)
}

// parseSeries reads a Prometheus text exposition into series-name → value
// (comment lines skipped), the same granularity the golden gate diffs at.
func parseSeries(snapshot []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(snapshot), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// jsonContentType is the stable content type every JSON endpoint sets —
// including the explicit charset some scrape clients require.
const jsonContentType = "application/json; charset=utf-8"

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeJSONError writes an error as an explicit JSON body ({"error": msg})
// so API clients of the JSON endpoints never have to sniff text/plain.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
