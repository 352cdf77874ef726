// Command perfbench is HeroServe's benchmark. One invocation runs one
// workload, named by --workload, for about --seconds of host time and
// prints one JSON result object as its last line of output:
//
//	perfbench --workload chatbot-flood --seed 1 --seconds 20 --trace 0
//
// The system under test is a single-goroutine discrete-event simulator, so
// the benchmark measures two things from outside it: what the simulator
// costs on the host (set-up and run seconds, peak memory), and what it
// predicts for the modelled serving system (simulated TTFT, TPOT, SLO
// attainment and throughput). The simulated metrics are deterministic per
// seed; a change that only makes the simulator faster must leave them
// identical.
//
// With --trace 0 the run repeats set-up and System.Run on distinct seeded
// traces until --seconds is spent, then re-runs the first trace and checks
// its simulated outputs repeat bit for bit. Host metrics are medians over
// the repetitions, simulated metrics medians over the distinct traces.
//
// With --trace 1 the run reports the per-layer metrics instead: it runs the
// first trace untraced, then again on a hand-built HeroServe whose module
// boundaries (engine, network, communication policy, router, telemetry
// sink) report into a span tracer, checks that both runs' simulated outputs
// are identical, and writes the newest spans to --spans-dir.
//
// See README.md in this directory for the workloads, their SLO limits and
// the table of which per-layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"heroserve/internal/collective"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry/critpath"
)

func main() {
	name := flag.String("workload", "", "workload: chatbot-flood | summarization-contended | chatbot-observed")
	seed := flag.Int64("seed", 1, "workload seed; traces and background traffic are generated from it")
	seconds := flag.Float64("seconds", 20, "host seconds to spend measuring")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", ".bench_build/spans", "directory for the traced run's span log")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	sp, err := specByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	// The simulator is single-goroutine; two Ps leave the GC one of its own.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	var out *result
	if *trace == 0 {
		out, err = endToEnd(sp, *seed, time.Duration(*seconds*float64(time.Second)))
	} else {
		out, err = perLayer(sp, *seed, *spansDir)
	}
	if err != nil {
		fatalf("%s: %v", sp.name, err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: make(map[string]metric)} }

func (r *result) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the result incorrect and says why on standard error.
func (r *result) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	r.Correct = false
}

// account adds one replayed trace to the attempted/failed totals.
func (r *result) account(s *simResult) {
	r.Attempted += s.attempted
	r.Failed += s.attempted - s.served
	if s.served != s.attempted {
		r.fail("%d of %d requests not served", s.attempted-s.served, s.attempted)
	}
	for _, p := range s.problems {
		r.fail("%s", p)
	}
}

// traceSeed derives the seed of the i-th distinct trace of a run.
func traceSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runOnce is one measured repetition.
type runOnce struct {
	setup time.Duration // generate + plan + build
	wall  time.Duration // System.Run plus telemetry exports
	rss   float64       // peak resident MB during the run
	sim   *simResult
}

// measure prepares, builds and runs the measured system on one trace.
func measure(sp *spec, seed int64) (*runOnce, error) {
	t0 := time.Now()
	su, err := prepare(sp, seed)
	if err != nil {
		return nil, err
	}
	inst, err := su.build(modeMeasured, io.Discard, nil)
	if err != nil {
		return nil, err
	}
	setupDur := time.Since(t0)
	// Return freed memory first, so each run's peak is its own and not what
	// earlier runs left resident.
	debug.FreeOSMemory()
	rss, err := startRSS()
	if err != nil {
		return nil, err
	}
	res, wall, err := runAndExport(inst, su)
	peak := rss.finish()
	if err != nil {
		return nil, err
	}
	return &runOnce{setup: setupDur, wall: wall, rss: peak, sim: summarize(su, res, inst)}, nil
}

// runAndExport runs the system from a collected heap and writes its
// telemetry exports, returning the time spent in both. The heap is also
// collected, untimed, between the two, so that how much of the run's garbage
// is still uncollected when the exports allocate does not decide the
// process's peak memory.
func runAndExport(inst *instance, su *setup) (*serving.Results, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	res := inst.sys.Run(su.trace)
	run := time.Since(t0)
	runtime.GC()
	t1 := time.Now()
	if err := inst.exports(io.Discard); err != nil {
		return nil, 0, err
	}
	return res, run + time.Since(t1), nil
}

// setupSamples is how many set-ups setup_s is the median of.
const setupSamples = 31

// setupTimes times set-up (trace generation, planning and system
// construction) setupSamples times, each from a collected heap.
func setupTimes(sp *spec, seed int64) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		su, err := prepare(sp, traceSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		if _, err := su.build(modeMeasured, io.Discard, nil); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// endToEnd measures the end-to-end metrics with tracing off. Repetition i
// replays distinct trace i mod spec.traces, so the simulated metrics pool a
// fixed set of traces however many repetitions the budget allows, and every
// repetition past the first round re-runs a trace whose simulated outputs
// must repeat exactly. wall_s is the median over all repetitions.
func endToEnd(sp *spec, seed int64, budget time.Duration) (*result, error) {
	out := newResult()
	setups, err := setupTimes(sp, seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var walls, rss []float64
	sims := make([]*simResult, sp.traces)
	var longest time.Duration
	for i := 0; ; i++ {
		k := i % sp.traces
		r, err := measure(sp, traceSeed(seed, k))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s trace %d: setup %.4fs run %.4fs peak %.1fMB\n", sp.name, traceSeed(seed, k), r.setup.Seconds(), r.wall.Seconds(), r.rss)
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rss)
		out.account(r.sim)
		if sims[k] == nil {
			sims[k] = r.sim
		} else if r.sim.digest != sims[k].digest {
			out.fail("rerun of trace %d differs: %s vs %s", traceSeed(seed, k), r.sim.digest, sims[k].digest)
		}
		longest = max(longest, r.setup+r.wall)
		if i+1 >= sp.traces && time.Since(start)+longest > budget {
			break
		}
	}
	sm := pool(sims)
	out.put("setup_s", "s", median(setups))
	out.put("wall_s", "s", median(walls))
	out.put("peak_rss_mb", "MB", median(rss))
	out.put("ttft_p50_s", "sim_s", sm.ttftP50)
	out.put("ttft_p99_s", "sim_s", sm.ttftP99)
	out.put("tpot_p50_s", "sim_s", sm.tpotP50)
	out.put("tpot_p99_s", "sim_s", sm.tpotP99)
	out.put("slo_attainment", "ratio", sm.attainment)
	out.put("served_frac", "ratio", sm.servedFrac)
	out.put("sim_throughput_rps", "req/sim_s", sm.throughput)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d distinct traces of %d requests, %d runs\n",
		sp.name, seed, sp.traces, sp.requests, len(walls))
	return out, nil
}

// rssSampler polls the process's resident set size from /proc/self/statm
// on its own goroutine while one run is in progress.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

// rssEvery is the polling period: short against a run, and a read of statm
// costs microseconds.
const rssEvery = 2 * time.Millisecond

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		defer f.Close()
		var buf [128]byte
		page := float64(os.Getpagesize()) / (1 << 20)
		peak := math.NaN() // stays NaN, and fails the run, if no read parses
		read := func() {
			// The whole file fits in buf; ReadAt reports io.EOF with it.
			n, _ := f.ReadAt(buf[:], 0)
			if fields := strings.Fields(string(buf[:n])); len(fields) > 1 {
				if pages, err := strconv.ParseFloat(fields[1], 64); err == nil && !(pages*page <= peak) {
					peak = pages * page
				}
			}
		}
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		read()
		for {
			select {
			case <-t.C:
				read()
			case <-s.stop:
				read()
				s.peak <- peak
				return
			}
		}
	}()
	return s, nil
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return <-s.peak
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU                         float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var cpu float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		cpu = s[0].Value.Float64()
	}
	return goStats{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: uint64(ms.NumGC), gcCPU: cpu}
}

// critpathStages are the TTFT stages whose shares the traced run reports.
var critpathStages = []string{
	critpath.StageQueue, critpath.StagePrefillCompute,
	critpath.StageAllReduce("ring"), critpath.StageAllReduce("ina-sync"),
	critpath.StageAllReduce("ina-async"), critpath.StageAllReduce("ina-hetero"),
	critpath.StagePipeline, critpath.StageFaultStall,
}

var schemes = []collective.Scheme{collective.SchemeRing, collective.SchemeINASync, collective.SchemeINAAsync, collective.SchemeHetero}

// perLayer runs the first trace untraced and traced and reports the
// per-layer metrics.
func perLayer(sp *spec, seed int64, spansDir string) (*result, error) {
	out := newResult()
	ts := traceSeed(seed, 0)
	var gens, solves []float64
	var su *setup
	for i := 0; i < setupSamples; i++ {
		var err error
		if su, err = prepare(sp, ts); err != nil {
			return nil, err
		}
		gens = append(gens, su.generate.Seconds())
		solves = append(solves, su.solve.Seconds())
	}

	// Untraced: the reference outputs, the wall time the tracing overhead is
	// measured against, and the Go runtime's allocation and GC counters.
	inst, err := su.build(modeMeasured, io.Discard, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	g0 := readGoStats()
	t0 := time.Now()
	res := inst.sys.Run(su.trace)
	runWallU := time.Since(t0)
	g1 := readGoStats()
	runtime.GC()
	t1 := time.Now()
	if err := inst.exports(io.Discard); err != nil {
		return nil, err
	}
	exportWall := time.Since(t1)
	untracedWall := runWallU + exportWall
	base := summarize(su, res, inst)
	out.account(base)

	// Traced: the same system hand-built with pass-through wrappers.
	tr := newTracer()
	var captured bytes.Buffer
	tinst, err := su.build(modeTraced, &captured, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t2 := time.Now()
	tres := tinst.sys.Run(su.trace)
	runWall := time.Since(t2)
	runtime.GC()
	t3 := time.Now()
	if err := tinst.exports(io.Discard); err != nil {
		return nil, err
	}
	tracedWall := runWall + time.Since(t3)
	got := summarize(su, tres, tinst)
	out.account(got)
	if got.digest != base.digest {
		out.fail("traced run differs from untraced: %s vs %s", got.digest, base.digest)
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeLog(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))); err != nil {
		return nil, fmt.Errorf("span log: %w", err)
	}

	n := float64(base.attempted)
	eng := tinst.sys.Engine()
	lay := func(l layer) *layerStat { return &tr.layers[l] }
	out.put("sim.events", "count", float64(eng.Processed()))
	out.put("sim.events_per_req", "count/req", float64(eng.Processed())/n)
	out.put("sim.self_s", "s", (runWall - lay(layerCallback).total).Seconds())
	out.put("sim.peak_pending", "count", float64(tr.peakPending))
	out.put("sim.cancelled", "count", float64(eng.QueueStats().Cancelled))

	reallocs := float64(lay(layerRealloc).calls)
	out.put("netsim.reallocs", "count", reallocs)
	out.put("netsim.realloc_s", "s", lay(layerRealloc).self.Seconds())
	out.put("netsim.component_flows_mean", "flows", ratio(float64(tr.reallocFlows), reallocs))
	out.put("netsim.component_flows_max", "flows", float64(tr.reallocMax))
	out.put("netsim.rounds_mean", "rounds", ratio(float64(tr.reallocRounds), reallocs))

	out.put("core.allreduce_calls", "count", float64(lay(layerAllReduce).calls))
	out.put("core.allreduce_self_s", "s", lay(layerAllReduce).self.Seconds())
	picks := tinst.pol.SchemeSelections()
	for _, sc := range schemes {
		out.put("scheduler.pick."+sc.String(), "count", float64(picks[sc]))
	}

	c := tres.Comm
	out.put("collective.allreduce_sim_mean_s", "sim_s", ratio(tinst.traced.simSum, float64(tinst.traced.simDone)))
	out.put("collective.ring_ops", "count", float64(c.RingOps))
	out.put("collective.ina_ops", "count", float64(c.INASyncOps+c.INAAsyncOps))
	out.put("collective.hetero_ops", "count", float64(c.HeteroOps))
	out.put("collective.fallbacks", "count", float64(c.SlotFallbacks+c.FaultFallbacks))
	out.put("collective.transfers", "count", float64(c.Transfers))
	out.put("collective.bytes_gb", "GB", float64(c.BytesMoved)/1e9)
	out.put("collective.route_calls", "count", float64(lay(layerRoute).calls))
	out.put("collective.route_self_s", "s", lay(layerRoute).self.Seconds())

	var packets, aggregates, drops int64
	for _, sw := range su.in.Graph.Switches() {
		if ds := tinst.sys.Comm().Switch(sw); ds != nil {
			k := ds.Counters()
			packets += k.PacketsIn
			aggregates += k.Aggregates
			drops += k.Drops + k.Stale
		}
	}
	out.put("switchsim.packets", "count", float64(packets))
	out.put("switchsim.aggregates", "count", float64(aggregates))
	out.put("switchsim.drops", "count", float64(drops))

	out.put("serving.self_s", "s", lay(layerCallback).self.Seconds())
	out.put("serving.kv_util_mean", "ratio", got.kvMean)
	out.put("serving.kv_util_peak", "ratio", got.kvPeak)
	out.put("serving.makespan_s", "sim_s", got.makespan)
	out.put("serving.failed_frac", "ratio", 1-float64(got.served)/float64(got.attempted))

	out.put("planner.solve_s", "s", median(solves))
	out.put("workload.generate_s", "s", median(gens))

	if err := observedLayers(out, sp, su, untracedWall, exportWall, tr, tinst, captured.Bytes(), got); err != nil {
		return nil, err
	}

	out.put("go.alloc_mb", "MB", float64(g1.allocBytes-g0.allocBytes)/(1<<20))
	out.put("go.mallocs", "count", float64(g1.mallocs-g0.mallocs))
	out.put("go.gc_cycles", "count", float64(g1.gcCycles-g0.gcCycles))
	out.put("go.gc_cpu_s", "s", g1.gcCPU-g0.gcCPU)
	out.put("trace.overhead_frac", "ratio", tracedWall.Seconds()/untracedWall.Seconds()-1)
	return out, nil
}

// observedLayers reports the telemetry, critpath, decisions and slo layers.
// They are idle (zero, tax 1) on workloads without telemetry.
func observedLayers(out *result, sp *spec, su *setup, armedWall, exportWall time.Duration, tr *tracer, tinst *instance, trace []byte, got *simResult) error {
	if !sp.observed {
		out.put("telemetry.tax_ratio", "ratio", 1)
		out.put("telemetry.trace_mb", "MB", 0)
		out.put("telemetry.trace_write_s", "s", 0)
		out.put("telemetry.export_s", "s", 0)
		out.put("critpath.replay_s", "s", 0)
		out.put("decisions.records", "count", 0)
		out.put("slo.alerts_fired", "count", 0)
		for _, st := range critpathStages {
			out.put("critpath.ttft_share."+st, "ratio", 0)
		}
		return nil
	}
	// The bare twin: the same trace with telemetry off.
	bare, err := su.build(modeBare, nil, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	bres := bare.sys.Run(su.trace)
	bareWall := time.Since(t0)
	if bres.Served != len(su.trace.Requests) {
		out.fail("bare twin served %d of %d", bres.Served, len(su.trace.Requests))
	}
	out.put("telemetry.tax_ratio", "ratio", armedWall.Seconds()/bareWall.Seconds())
	out.put("telemetry.trace_mb", "MB", float64(len(trace))/(1<<20))
	out.put("telemetry.trace_write_s", "s", tr.layers[layerTraceWrite].total.Seconds())
	out.put("telemetry.export_s", "s", exportWall.Seconds())

	t1 := time.Now()
	a, err := critpath.FromTrace(bytes.NewReader(trace))
	if err != nil {
		return fmt.Errorf("critpath replay: %w", err)
	}
	rep := a.Report(10)
	out.put("critpath.replay_s", "s", time.Since(t1).Seconds())
	if rep.Requests != got.served {
		out.fail("critpath replay finalized %d requests, served %d", rep.Requests, got.served)
	}
	// The stage partition is exact: stage totals telescope to the TTFT sum.
	if d := math.Abs(rep.TTFTSum() - got.ttftSum); d > 1e-6*math.Max(1, got.ttftSum) {
		out.fail("critpath TTFT stages sum to %g, TTFTs to %g", rep.TTFTSum(), got.ttftSum)
	}
	for _, st := range critpathStages {
		out.put("critpath.ttft_share."+st, "ratio", ratio(rep.TTFTTotal[st], rep.TTFTSum()))
	}
	out.put("decisions.records", "count", float64(tinst.sys.DecisionLedger().Len()))
	fired := 0
	if al := tinst.sys.SLOMonitor().Summarize(); al != nil {
		fired = al.Fired
	}
	out.put("slo.alerts_fired", "count", float64(fired))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
