package slo

import (
	"strings"
	"testing"
)

func TestDefaultRulesValidate(t *testing.T) {
	rules, err := checkRules(DefaultRules(2.5, 0.15))
	if err != nil {
		t.Fatalf("default rules invalid: %v", err)
	}
	names := make(map[string]bool)
	for _, r := range rules {
		names[r.Name] = true
	}
	for _, want := range []string{
		"slo-attainment-fast", "slo-attainment-slow", "critpath-stage-shift",
		"fault-stall-budget", "queue-growth", "kv-saturation",
		"slo-ttft-burn", "slo-tpot-burn",
	} {
		if !names[want] {
			t.Errorf("default rules missing %q", want)
		}
	}
	// Without SLA bounds the latency burn rules are dropped.
	rules, err = checkRules(DefaultRules(0, 0))
	if err != nil {
		t.Fatalf("SLA-less default rules invalid: %v", err)
	}
	for _, r := range rules {
		if r.Name == "slo-ttft-burn" || r.Name == "slo-tpot-burn" {
			t.Errorf("rule %q present without an SLA bound", r.Name)
		}
	}
}

func TestRuleValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string
	}{
		{"empty name", Rule{Kind: KindKVSaturation, Threshold: 0.9}, "empty name"},
		{"negative for", Rule{Name: "r", Kind: KindKVSaturation, Threshold: 0.9, For: -1}, "negative for"},
		{"negative min_mass", Rule{Name: "r", Kind: KindStageShift, Over: 10, MinMass: -1}, `rule "r": negative min_mass`},
		{"unknown kind", Rule{Name: "r", Kind: "bogus"}, "unknown kind"},
		{"unknown objective", Rule{Name: "r", Kind: KindBurnRate, Objective: "bogus"}, "unknown objective"},
		{"ttft without bound", Rule{Name: "r", Kind: KindBurnRate, Objective: ObjTTFT}, "bound > 0"},
		{"bad target", Rule{Name: "r", Kind: KindBurnRate, Objective: ObjAttainment, Target: 1.5,
			Fast: BurnWindow{1, 1}, Slow: BurnWindow{2, 1}}, "outside (0,1)"},
		{"zero windows", Rule{Name: "r", Kind: KindBurnRate, Objective: ObjAttainment, Target: 0.9}, "seconds > 0"},
		{"fast > slow", Rule{Name: "r", Kind: KindBurnRate, Objective: ObjAttainment, Target: 0.9,
			Fast: BurnWindow{10, 1}, Slow: BurnWindow{5, 1}}, "fast window longer"},
		{"zero burns", Rule{Name: "r", Kind: KindBurnRate, Objective: ObjAttainment, Target: 0.9,
			Fast: BurnWindow{Seconds: 1}, Slow: BurnWindow{Seconds: 2}}, "thresholds must be > 0"},
		{"structural without over", Rule{Name: "r", Kind: KindQueueGrowth, Threshold: 1}, "over > 0"},
		{"structural without threshold", Rule{Name: "r", Kind: KindFaultBudget, Over: 10}, "threshold > 0"},
		{"kv threshold above 1", Rule{Name: "r", Kind: KindKVSaturation, Threshold: 1.2}, "outside (0,1]"},
	}
	for _, tc := range cases {
		err := tc.rule.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q lacks %q", tc.name, err, tc.want)
		}
	}
	// Stage-shift needs no threshold.
	ok := Rule{Name: "r", Kind: KindStageShift, Over: 10}
	if err := ok.Validate(); err != nil {
		t.Errorf("stage-shift without threshold rejected: %v", err)
	}
}

func TestParseRulesFormats(t *testing.T) {
	doc := `{"rules": [{"name": "kv", "kind": "kv-saturation", "severity": "warning", "threshold": 0.9}]}`
	rules, err := ParseRules(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("object form: %v", err)
	}
	if len(rules) != 1 || rules[0].Name != "kv" || rules[0].Severity != SevWarning {
		t.Errorf("object form parsed %+v", rules)
	}
	bare := `[{"name": "kv", "kind": "kv-saturation", "threshold": 0.5, "for": 2}]`
	rules, err = ParseRules(strings.NewReader(bare))
	if err != nil {
		t.Fatalf("bare array form: %v", err)
	}
	if len(rules) != 1 || rules[0].For != 2 {
		t.Errorf("bare form parsed %+v", rules)
	}

	for name, bad := range map[string]struct{ doc, want string }{
		"empty set":       {`{"rules": []}`, "empty rule set"},
		"duplicate names": {`[{"name":"a","kind":"kv-saturation","threshold":0.5},{"name":"a","kind":"kv-saturation","threshold":0.6}]`, `duplicate rule name "a"`},
		"invalid rule":    {`[{"name":"a","kind":"bogus"}]`, `rule "a": unknown kind`},
		"bad severity":    {`[{"name":"a","kind":"kv-saturation","severity":"fatal","threshold":0.5}]`, `unknown severity "fatal"`},
		"not json":        {`nope`, "parse rules"},
		"misspelled field": {`{"rules": [{"kind":"stage-shift","over":5,"treshold":0.9,"name":"shift"}]}`,
			`rule 1 ("shift"): json: unknown field "treshold"`},
		"misspelled field, bare": {`[{"name":"kv","kind":"kv-saturation","threshold":0.9},{"name":"b","kind":"stage-shift","over":5,"treshold":0.9}]`,
			`rule 2 ("b"): json: unknown field "treshold"`},
		"unknown top-level field": {`{"rules": [{"name":"kv","kind":"kv-saturation","threshold":0.9}], "rule": []}`, `unknown field "rule"`},
		"trailing data":           {`{"rules": [{"name":"kv","kind":"kv-saturation","threshold":0.9}]} x`, "trailing data"},
		"negative min_mass":       {`[{"name":"m","kind":"stage-shift","over":5,"min_mass":-1}]`, `rule "m": negative min_mass`},
	} {
		_, err := ParseRules(strings.NewReader(bad.doc))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: error %q lacks %q", name, err, bad.want)
		}
	}
}

func TestCauseWindowFallbacks(t *testing.T) {
	r := Rule{Over: 12}
	if w := r.causeWindow(); w != 12 {
		t.Errorf("over-backed window = %g", w)
	}
	r = Rule{Slow: BurnWindow{Seconds: 40}}
	if w := r.causeWindow(); w != 40 {
		t.Errorf("slow-backed window = %g", w)
	}
	r = Rule{}
	if w := r.causeWindow(); w != 30 {
		t.Errorf("default window = %g", w)
	}
}
