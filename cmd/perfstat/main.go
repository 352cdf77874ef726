// Command perfstat renders the simulator's self-profiling reports (the
// -perf-out JSON of cmd/serve, also served at the daemon's /perf endpoint):
// where the wall-clock went, how fast sim-time advanced, how deep the event
// queue ran, and how large the water-filling components were.
//
// Usage:
//
//	serve -trace trace.json -perf-out perf.json
//	perfstat perf.json              # human-readable summary
//	perfstat -json perf.json        # normalized JSON re-emission
//	perfstat -diff old.json new.json  # throughput / phase deltas of two runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"heroserve/internal/telemetry/perf"
)

func main() {
	asJSON := flag.Bool("json", false, "re-emit the (validated) report as JSON")
	diff := flag.Bool("diff", false, "compare two reports: perfstat -diff a.json b.json")
	flag.Parse()

	args := flag.Args()
	switch {
	case *diff:
		if len(args) != 2 {
			fatalf("-diff wants exactly two report files")
		}
		printDiff(load(args[0]), load(args[1]))
	case len(args) == 1:
		r := load(args[0])
		if *asJSON {
			if err := r.WriteJSON(os.Stdout); err != nil {
				fatalf("%v", err)
			}
			return
		}
		printSummary(r)
	default:
		fatalf("usage: perfstat [-json] report.json | perfstat -diff a.json b.json")
	}
}

func load(path string) *perf.Report {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	r, err := perf.ReadReport(data)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return r
}

// printSummary renders the human-readable report. The "events/s" and
// "wall-seconds per sim-second" spellings are load-bearing: scripts/ci.sh
// greps for them as the perf-smoke contract.
func printSummary(r *perf.Report) {
	fmt.Printf("perf report: system=%s (sampled 1-in-%d)\n", orDash(r.System), r.SampleEvery)
	fmt.Printf("wall %.3fs for %.2f sim-seconds; wall-seconds per sim-second %.6f\n",
		r.WallSeconds, r.SimSeconds, r.WallPerSim)
	fmt.Printf("events %d (%.3g events/s); sampled %d\n", r.Events, r.EventsPerSec, r.SampledEvents)

	fmt.Printf("phase split of wall-clock:\n")
	phases := []struct {
		name string
		sec  float64
	}{
		{"engine (queue + loop)", r.Phases.EngineSeconds},
		{"serve callbacks", r.Phases.ServeSeconds},
		{"netsim water-filling", r.Phases.ReallocSeconds},
		{"observatory self", r.Phases.SelfSeconds},
	}
	for _, p := range phases {
		fmt.Printf("  %-22s %8.4fs  %5.1f%%  %s\n",
			p.name, p.sec, pct(p.sec, r.WallSeconds), bar(p.sec, r.WallSeconds, 30))
	}

	q := r.Queue
	fmt.Printf("event queue: peak live %d; lifetime %d cancels\n", q.PeakLive, q.Final.Cancelled)

	n := r.Netsim
	fmt.Printf("netsim: %d reallocations; mean component %.2f flows / %.2f rounds (max %d flows, %d links)\n",
		n.Reallocs, n.MeanCompFlows, n.MeanRounds, n.MaxCompFlows, n.MaxCompLinks)
	if n.Reallocs > 0 {
		fmt.Printf("component-size distribution (flows touched per reallocation):\n")
		var peak uint64
		for _, b := range n.FlowsHistogram {
			if b.Count > peak {
				peak = b.Count
			}
		}
		for i, b := range n.FlowsHistogram {
			if b.Count == 0 {
				continue
			}
			label := fmt.Sprintf("<=%d", b.Le)
			if i == len(n.FlowsHistogram)-1 {
				label = fmt.Sprintf(">=%d", b.Le)
			}
			fmt.Printf("  %-7s %9d  %s\n", label, b.Count, bar(float64(b.Count), float64(peak), 30))
		}
	}
	if len(r.Progress) > 0 {
		last := r.Progress[len(r.Progress)-1]
		fmt.Printf("progress curve: %d points to sim %.2fs / wall %.3fs\n",
			len(r.Progress), last.SimSeconds, last.WallSeconds)
	}
}

// printDiff compares two reports' throughput and phase split. Wall-clock
// numbers are noisy by nature, so the output shows ratios, not verdicts.
func printDiff(a, b *perf.Report) {
	fmt.Printf("perf diff: %s -> %s\n", orDash(a.System), orDash(b.System))
	row := func(name string, va, vb float64, unit string) {
		ratio := "n/a"
		if va > 0 {
			ratio = fmt.Sprintf("%+.1f%%", (vb/va-1)*100)
		}
		fmt.Printf("  %-26s %12.4g -> %12.4g %-6s %s\n", name, va, vb, unit, ratio)
	}
	row("events/s", a.EventsPerSec, b.EventsPerSec, "ev/s")
	row("wall-seconds per sim-second", a.WallPerSim, b.WallPerSim, "")
	row("wall", a.WallSeconds, b.WallSeconds, "s")
	row("events", float64(a.Events), float64(b.Events), "")
	row("engine phase", a.Phases.EngineSeconds, b.Phases.EngineSeconds, "s")
	row("serve phase", a.Phases.ServeSeconds, b.Phases.ServeSeconds, "s")
	row("realloc phase", a.Phases.ReallocSeconds, b.Phases.ReallocSeconds, "s")
	row("self phase", a.Phases.SelfSeconds, b.Phases.SelfSeconds, "s")
	row("reallocations", float64(a.Netsim.Reallocs), float64(b.Netsim.Reallocs), "")
	row("mean component flows", a.Netsim.MeanCompFlows, b.Netsim.MeanCompFlows, "")
	row("peak queue depth", float64(a.Queue.PeakLive), float64(b.Queue.PeakLive), "")
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole * 100
}

func bar(part, whole float64, width int) string {
	if whole <= 0 || part <= 0 {
		return ""
	}
	n := int(part / whole * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfstat: "+format+"\n", args...)
	os.Exit(1)
}
