// Command hstat summarizes the artefacts a telemetered run exports (cmd/serve's
// -trace-out, -decisions-out, -alerts-out and -perf-out files, also served at
// the daemon's /trace, /decisions, /alerts and /perf endpoints):
//
//	hstat trace [-top N] [-json] spans.json
//	hstat decisions [-regret|-json|-tsv] run.decisions.json
//	hstat alerts [-summary|-json|-tsv] [-rule r] [-state s] run.alerts.json
//	hstat perf [-json] perf.json
//	hstat <kind> -diff a.json b.json
//
// trace runs the span export through the critical-path analyzer: the
// per-stage TTFT/E2E decomposition plus the slowest-N requests table, the
// offline twin of the live ttft/e2e_critical_path_seconds_total counters.
// decisions prints the decision ledger's per-scheme regret ranking, the
// scale laws' shadow disagreement matrix, the expected-vs-realized latency
// drift, and the single-run shadow ranking of the ScalePolicy laws. alerts
// prints the SLO alert log's sim-time timeline of pending -> firing ->
// resolved transitions with their cause snapshots, or its per-rule roll-up.
// perf renders the self-profiling report: where the wall-clock went, how
// fast sim-time advanced, how deep the event queue ran, and how large the
// water-filling components were.
//
// With -diff, two artefacts of one kind are compared side by side. A file
// named "-" is read from stdin. An artefact of the wrong kind is an error.
// Output is deterministic for deterministic runs (perf reports excepted:
// they hold wall-clock data), so the golden gate pins the decisions and
// alerts -tsv renderings per case.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"heroserve/internal/telemetry/critpath"
	"heroserve/internal/telemetry/decisions"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
)

const usage = "usage: hstat trace|decisions|alerts|perf [flags] file | hstat <kind> -diff a.json b.json"

// options is hstat's one flag set. Each subcommand accepts -diff, -json and
// its own flags; the others are rejected.
type options struct {
	diff, asJSON, regret, tsv, summary bool
	top                                int
	rule, state                        string
}

// runner is one subcommand, erased over its artefact type.
type runner interface {
	accepts(flag string) bool
	run(w io.Writer, o *options, paths []string) error
}

// command is a subcommand over artefact type T: read parses one file, show
// renders one artefact, diff compares two.
type command[T any] struct {
	flags string // subcommand-specific flags, space-separated
	read  func(r io.Reader, path string, o *options) (T, error)
	show  func(w io.Writer, doc T, o *options) error
	diff  func(w io.Writer, a, b T) error
}

func (c command[T]) accepts(flag string) bool {
	return flag == "diff" || flag == "json" || strings.Contains(" "+c.flags+" ", " "+flag+" ")
}

func (c command[T]) run(w io.Writer, o *options, paths []string) error {
	docs := make([]T, len(paths))
	for i, path := range paths {
		var r io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		var err error
		if docs[i], err = c.read(r, path, o); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if o.diff {
		return c.diff(w, docs[0], docs[1])
	}
	return c.show(w, docs[0], o)
}

var commands = map[string]runner{
	"trace": command[*critpath.Report]{
		flags: "top",
		read: func(r io.Reader, path string, o *options) (*critpath.Report, error) {
			a, err := critpath.FromTrace(r)
			if err != nil {
				return nil, err
			}
			rep := a.Report(o.top)
			if rep.Requests == 0 {
				warnf("%s has no finalized request spans (was the run traced with telemetry on?)", path)
			}
			return rep, nil
		},
		show: func(w io.Writer, rep *critpath.Report, o *options) error {
			if o.asJSON {
				return writeJSON(w, rep)
			}
			return rep.Fprint(w)
		},
		diff: critpath.FprintDiff,
	},
	"decisions": command[*decisions.Ledger]{
		flags: "regret tsv",
		read: func(r io.Reader, path string, _ *options) (*decisions.Ledger, error) {
			led, err := decisions.ReadJSON(r)
			if err == nil && led.Len() == 0 {
				warnf("%s holds no decision records (was the run telemetered?)", path)
			}
			return led, err
		},
		show: func(w io.Writer, led *decisions.Ledger, o *options) error {
			sum, ranks := led.Summarize(), led.ShadowRanking()
			switch {
			case o.tsv:
				return sum.WriteTSV(w)
			case o.asJSON:
				return writeJSON(w, struct {
					Summary       *decisions.Summary     `json:"summary"`
					ShadowRanking []decisions.ShadowRank `json:"shadow_ranking,omitempty"`
				}{sum, ranks})
			case o.regret:
				printSchemes(w, sum)
				printShadowRanking(w, ranks)
			default:
				printLedger(w, sum, ranks)
			}
			return nil
		},
		diff: func(w io.Writer, a, b *decisions.Ledger) error {
			return decisions.FprintDiff(w, a.Summarize(), b.Summarize())
		},
	},
	"alerts": command[*slo.Log]{
		flags: "summary tsv rule state",
		read: func(r io.Reader, path string, _ *options) (*slo.Log, error) {
			log, err := slo.ReadLog(r)
			if err == nil && len(log.Meta.Rules) == 0 {
				warnf("%s holds no armed rules (was the run monitored?)", path)
			}
			return log, err
		},
		show: func(w io.Writer, log *slo.Log, o *options) error {
			if o.rule != "" || o.state != "" {
				log = log.Filter(o.state, o.rule, 0, 0)
			}
			switch {
			case o.tsv:
				return log.WriteTSV(w)
			case o.asJSON:
				return writeJSON(w, log.Summarize())
			case o.summary:
				return log.FprintSummary(w)
			default:
				return log.FprintTimeline(w)
			}
		},
		diff: slo.FprintDiff,
	},
	"perf": command[*perf.Report]{
		read: func(r io.Reader, _ string, _ *options) (*perf.Report, error) {
			return perf.ReadReport(r)
		},
		show: func(w io.Writer, rep *perf.Report, o *options) error {
			if o.asJSON {
				return rep.WriteJSON(w)
			}
			printPerf(w, rep)
			return nil
		},
		diff: func(w io.Writer, a, b *perf.Report) error {
			printPerfDiff(w, a, b)
			return nil
		},
	},
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fatalf(usage)
	}
	cmd := commands[os.Args[1]]
	var o options
	fs := flag.NewFlagSet("hstat "+os.Args[1], flag.ExitOnError)
	fs.BoolVar(&o.diff, "diff", false, "compare two artefacts side by side (takes two files)")
	fs.BoolVar(&o.asJSON, "json", false, "emit JSON instead of text")
	fs.IntVar(&o.top, "top", 10, "trace: slowest-requests table size")
	fs.BoolVar(&o.regret, "regret", false, "decisions: print only the regret rankings (schemes + shadow laws)")
	fs.BoolVar(&o.tsv, "tsv", false, "decisions, alerts: emit the deterministic summary TSV (the golden-gate pin)")
	fs.BoolVar(&o.summary, "summary", false, "alerts: print the per-rule roll-up instead of the timeline")
	fs.StringVar(&o.rule, "rule", "", "alerts: keep only this rule's alerts")
	fs.StringVar(&o.state, "state", "", "alerts: keep only alerts in this state: pending | firing | resolved")
	fs.Parse(os.Args[2:])
	fs.Visit(func(f *flag.Flag) {
		if !cmd.accepts(f.Name) {
			fatalf("%s takes no -%s flag; %s", os.Args[1], f.Name, usage)
		}
	})
	if n := fs.NArg(); o.diff && n != 2 || !o.diff && n != 1 {
		fatalf(usage)
	}
	if err := cmd.run(os.Stdout, &o, fs.Args()); err != nil {
		fatalf("%v", err)
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printLedger renders the decision ledger's full text report.
func printLedger(w io.Writer, s *decisions.Summary, ranks []decisions.ShadowRank) {
	fmt.Fprintf(w, "decision ledger: %d collective picks, %d scale steps\n", s.Collective, s.Scale)
	if s.Collective > 0 {
		fmt.Fprintf(w, "execution regret %.6gs total, %d guard fallbacks, %d picks under control-plane stall\n",
			s.TotalRegretSeconds, s.Fallbacks, s.Stalled)
		printSchemes(w, s)
	}
	if s.Scale > 0 {
		fmt.Fprintf(w, "\nscale laws (primary: %s; %d shadow disagreements)\n", s.Primary, s.Disagreements)
		fmt.Fprintf(w, "  %-14s %10s %10s %10s %10s\n", "law", "scale_out", "scale_in", "hold", "disagree")
		for _, l := range s.Laws {
			fmt.Fprintf(w, "  %-14s %10d %10d %10d %10d\n", l.Law, l.ScaleOut, l.ScaleIn, l.Hold, l.Disagree)
		}
		if d := s.Drift; d != nil {
			fmt.Fprintf(w, "expected-vs-realized drift over %d outcome windows (%d completions, attainment %.1f%%):\n",
				d.Windows, d.Completed, d.Attainment*100)
			fmt.Fprintf(w, "  TTFT signal %.3fs -> realized %.3fs (%+.3fs); TPOT signal %.4fs -> realized %.4fs (%+.4fs)\n",
				d.MeanSignalTTFT, d.MeanRealizedTTFT, d.MeanRealizedTTFT-d.MeanSignalTTFT,
				d.MeanSignalTPOT, d.MeanRealizedTPOT, d.MeanRealizedTPOT-d.MeanSignalTPOT)
		}
		printShadowRanking(w, ranks)
	}
}

// printSchemes renders the per-scheme counterfactual table, cheapest first.
func printSchemes(w io.Writer, s *decisions.Summary) {
	if len(s.Schemes) == 0 {
		return
	}
	fmt.Fprintf(w, "counterfactual cost of always forcing a scheme (vs the optimum; lower is better):\n")
	fmt.Fprintf(w, "  %-12s %14s %8s %8s %9s %7s\n", "scheme", "regret (s)", "chosen", "exec", "unpriced", "absent")
	for _, st := range s.Schemes {
		reg := fmt.Sprintf("%.6f", st.RegretSeconds)
		if math.IsInf(st.RegretSeconds, 0) {
			reg = "+Inf"
		}
		fmt.Fprintf(w, "  %-12s %14s %8d %8d %9d %7d\n",
			st.Scheme, reg, st.Chosen, st.Executed, st.Unpriced, st.Absent)
	}
}

// printShadowRanking renders the single-run counterfactual law ranking.
func printShadowRanking(w io.Writer, ranks []decisions.ShadowRank) {
	if len(ranks) == 0 {
		return
	}
	fmt.Fprintf(w, "shadow ranking (single-run counterfactual replay; attainment desc, GPU-seconds asc):\n")
	fmt.Fprintf(w, "  %4s %-14s %12s %14s %8s %10s\n", "rank", "law", "est attain", "est GPU-s", "charged", "completed")
	for _, r := range ranks {
		fmt.Fprintf(w, "  %4d %-14s %11.1f%% %14.1f %8d %10d\n",
			r.Rank, r.Law, r.EstAttainment*100, r.EstGPUSeconds, r.ChargedMisses, r.Completed)
	}
}

// printPerf renders the human-readable perf report. The "events/s" and
// "wall-seconds per sim-second" spellings are load-bearing: scripts/ci.sh
// greps for them as the perf-smoke contract.
func printPerf(w io.Writer, r *perf.Report) {
	fmt.Fprintf(w, "perf report: system=%s (sampled 1-in-%d)\n", orDash(r.System), r.SampleEvery)
	fmt.Fprintf(w, "wall %.3fs for %.2f sim-seconds; wall-seconds per sim-second %.6f\n",
		r.WallSeconds, r.SimSeconds, r.WallPerSim)
	fmt.Fprintf(w, "events %d (%.3g events/s); sampled %d\n", r.Events, r.EventsPerSec, r.SampledEvents)

	fmt.Fprintf(w, "phase split of wall-clock:\n")
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
		fmt.Fprintf(w, "  %-22s %8.4fs  %5.1f%%  %s\n",
			p.name, p.sec, pct(p.sec, r.WallSeconds), bar(p.sec, r.WallSeconds, 30))
	}

	q := r.Queue
	fmt.Fprintf(w, "event queue: peak live %d; lifetime %d cancels\n", q.PeakLive, q.Final.Cancelled)

	n := r.Netsim
	fmt.Fprintf(w, "netsim: %d reallocations; mean component %.2f flows / %.2f rounds (max %d flows, %d links)\n",
		n.Reallocs, n.MeanCompFlows, n.MeanRounds, n.MaxCompFlows, n.MaxCompLinks)
	if n.Reallocs > 0 {
		fmt.Fprintf(w, "component-size distribution (flows touched per reallocation):\n")
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
			fmt.Fprintf(w, "  %-7s %9d  %s\n", label, b.Count, bar(float64(b.Count), float64(peak), 30))
		}
	}
	if len(r.Progress) > 0 {
		last := r.Progress[len(r.Progress)-1]
		fmt.Fprintf(w, "progress curve: %d points to sim %.2fs / wall %.3fs\n",
			len(r.Progress), last.SimSeconds, last.WallSeconds)
	}
}

// printPerfDiff compares two perf reports' throughput and phase split.
// Wall-clock numbers are noisy by nature, so the output shows ratios, not
// verdicts.
func printPerfDiff(w io.Writer, a, b *perf.Report) {
	fmt.Fprintf(w, "perf diff: %s -> %s\n", orDash(a.System), orDash(b.System))
	row := func(name string, va, vb float64, unit string) {
		ratio := "n/a"
		if va > 0 {
			ratio = fmt.Sprintf("%+.1f%%", (vb/va-1)*100)
		}
		fmt.Fprintf(w, "  %-26s %12.4g -> %12.4g %-6s %s\n", name, va, vb, unit, ratio)
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

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hstat: warning: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hstat: "+format+"\n", args...)
	os.Exit(1)
}
