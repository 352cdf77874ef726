package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"heroserve/internal/faults"
	"heroserve/internal/serving"
	"heroserve/internal/telemetry"
	"heroserve/internal/telemetry/perf"
	"heroserve/internal/telemetry/slo"
	"heroserve/internal/workload"
)

// runFullyArmed serves one seeded HeroServe run with every trace producer
// armed — faults of each kind, autoscaling, SLO rules that fire, and the perf
// sampler's counter tracks — recording on the hub's tracer.
func runFullyArmed(t *testing.T, hub *telemetry.Hub) {
	t.Helper()
	in := inputs(t)
	in.Lambda = 8 // a fleet with decode instances to scale
	g := in.Graph
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LinkDegrade, At: 0.5, Duration: 2, Edge: 0, Factor: 0.25},
		{Kind: faults.SlotExhaustion, At: 1, Duration: 2, Switch: g.Switches()[0], Slots: 4},
		{Kind: faults.SwitchReboot, At: 2, Duration: 1, Switch: g.Switches()[0]},
		{Kind: faults.AgentStall, At: 1.5, Duration: 1.5},
	}}
	sla := in.SLA
	sys, _, _, err := NewSystem(in, nil, serving.Options{
		Telemetry:      hub,
		SLA:            &sla,
		Faults:         sched,
		SLO:            &slo.Config{Rules: append(faultBurstRules(), slo.DefaultRules(sla.TTFT, sla.TPOT)...)},
		Autoscale:      &serving.AutoscaleConfig{InitialActive: 1, ScaleOutBacklog: 1, Interval: 0.5},
		MaxDecodeBatch: 4,
		Perf:           perf.NewSampler(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(workload.NewGenerator(workload.Chatbot, 9).Generate(120, 20))
}

// marshalTrace is the encoding/json reference encoder: the trace document
// built from one json.Marshal per event.
func marshalTrace(t *testing.T, events []telemetry.Event) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		enc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		b.Write(enc)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}

// TestTraceEncoderMatchesMarshalReference: the trace of a run that emits
// every event and arg shape in the repo, exported through the append
// encoder, equals byte for byte the document encoding/json builds from the
// same events. (The perf counters carry wall-clock readings, so the check
// compares one run's events rather than two runs.)
func TestTraceEncoderMatchesMarshalReference(t *testing.T) {
	hub := telemetry.New()
	runFullyArmed(t, hub)
	events := hub.Trace.Events()
	want := marshalTrace(t, events)
	var got bytes.Buffer
	if err := hub.Trace.Export(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(i-200, 0)
		t.Fatalf("exported trace differs from the json.Marshal reference at byte %d:\n got ...%s\nwant ...%s",
			i, got.Bytes()[lo:min(i+200, got.Len())], want[lo:min(i+200, len(want))])
	}

	// The run must actually exercise the shapes the encoder inlines.
	seen := map[string]bool{}
	for _, ev := range events {
		seen["ph:"+ev.Ph] = true
		seen["cat:"+ev.Cat] = true
		for _, v := range ev.Args {
			switch v.(type) {
			case string:
				seen["string"] = true
			case int:
				seen["int"] = true
			case int64:
				seen["int64"] = true
			case float64:
				seen["float64"] = true
			case bool:
				seen["bool"] = true
			case []int:
				seen["[]int"] = true
			case map[string]any:
				seen["map"] = true
			}
		}
	}
	for _, k := range []string{"ph:M", "ph:X", "ph:i", "ph:b", "ph:e", "ph:C",
		"cat:fault", "cat:autoscale", "cat:slo", "cat:sched", "cat:perf",
		"string", "int", "int64", "float64", "bool", "[]int", "map"} {
		if !seen[k] {
			t.Errorf("run never emitted %s", k)
		}
	}
}
