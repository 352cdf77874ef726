package netsim_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"heroserve/internal/baselines"
	"heroserve/internal/core"
	"heroserve/internal/model"
	"heroserve/internal/netsim"
	"heroserve/internal/planner"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/topology"
	"heroserve/internal/workload"
)

// goldenCase is one row of the scripts/golden.sh matrix: the tracegen
// arguments and the cmd/serve flags that differ from serve's defaults.
type goldenCase struct {
	name        string
	kind        workload.Kind
	n           int
	rate        float64
	seed        int64
	system      string
	elephants   int
	ttft, tpot  float64
	batch       int
	scalePolicy string // "" = no autoscaling
}

var goldenMatrix = []goldenCase{
	{name: "heroserve-testbed-chatbot", kind: workload.Chatbot, n: 40, rate: 4, seed: 7,
		system: "heroserve", ttft: 2.5, tpot: 0.15, batch: 32},
	{name: "distserve-testbed-chatbot", kind: workload.Chatbot, n: 40, rate: 4, seed: 7,
		system: "distserve", ttft: 2.5, tpot: 0.15, batch: 32},
	{name: "ds-switchml-testbed-summarization", kind: workload.Summarization, n: 16, rate: 0.2, seed: 11,
		system: "ds-switchml", elephants: 2, ttft: 25, tpot: 0.2, batch: 1},
	{name: "heroserve-testbed-chatbot-autoscaled", kind: workload.Chatbot, n: 40, rate: 4, seed: 7,
		system: "heroserve", ttft: 2.5, tpot: 0.15, batch: 32, scalePolicy: "hybrid-slo"},
}

// TestGoldenMatrixMatchesOracle replays the four pinned golden runs in
// process — same traces, planner inputs, telemetry, default SLO rules,
// autoscaling and elephant traffic as cmd/serve — and requires every flow
// rate after every water-filling reallocation to equal the global oracle's
// bit for bit (and to be max-min fair). The run's Prometheus exposition
// must also reproduce the committed golden, which pins the rebuild to the
// runs scripts/golden.sh checks.
func TestGoldenMatrixMatchesOracle(t *testing.T) {
	for _, c := range goldenMatrix {
		t.Run(c.name, func(t *testing.T) {
			trace := workload.NewGenerator(c.kind, c.seed).Generate(c.n, c.rate)
			g := topology.Testbed()
			pre, dec := planner.SplitPoolsByServer(g, g.NumServers()/2)
			sla := serving.SLA{TTFT: c.ttft, TPOT: c.tpot}
			in := planner.Inputs{
				Model:       model.OPT13B(),
				Graph:       g,
				PrefillGPUs: pre,
				DecodeGPUs:  dec,
				Workload:    trace.BatchStats(c.batch),
				Lambda:      float64(len(trace.Requests)) / trace.Duration(),
				SLA:         sla,
				Seed:        c.seed,
			}
			hub := telemetry.New()
			if err := hub.Trace.StreamTo(io.Discard); err != nil {
				t.Fatal(err)
			}
			opts := serving.Options{
				Telemetry: hub,
				SLA:       &sla,
				SLO:       &slo.Config{Rules: slo.DefaultRules(c.ttft, c.tpot)},
			}
			if c.scalePolicy != "" {
				pol, err := serving.NewScalePolicy(c.scalePolicy)
				if err != nil {
					t.Fatal(err)
				}
				opts.Autoscale = &serving.AutoscaleConfig{InitialActive: 1, Policy: pol}
			}

			var sys *serving.System
			var err error
			switch c.system {
			case "heroserve":
				sys, _, _, err = core.NewSystem(in, nil, opts)
			case "distserve":
				sys, _, err = baselines.NewSystem(baselines.DistServe, in, opts)
			case "ds-switchml":
				sys, _, err = baselines.NewSystem(baselines.DSSwitchML, in, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.elephants > 0 {
				sys.InjectElephants(c.elephants, 512<<20, trace.Duration()+120, c.seed+99)
			}
			probe := netsim.NewOracleProbe(t, sys.Network())
			sys.Run(trace)

			reallocs, compared := probe.Counts()
			if reallocs == 0 {
				t.Fatal("run triggered no reallocations")
			}
			t.Logf("%d reallocations, %d rates checked", reallocs, compared)

			var prom bytes.Buffer
			if err := hub.Metrics.WriteProm(&prom); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", c.name+".prom"))
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedLines(prom.String()); got != string(want) {
				t.Errorf("exposition differs from testdata/golden/%s.prom: the rebuild no longer matches the golden run", c.name)
			}
		})
	}
}

// sortedLines sorts the exposition's lines bytewise, the normalization
// scripts/golden.sh applies (LC_ALL=C sort) before comparing.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}
