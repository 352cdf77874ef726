package telemetry

import (
	"sort"
	"strings"
)

// StageDelta is one critical-path stage's change between two runs.
type StageDelta struct {
	Stage     string  `json:"stage"`
	TTFTA     float64 `json:"ttft_a"`
	TTFTB     float64 `json:"ttft_b"`
	TTFTDelta float64 `json:"ttft_delta"`
	E2EA      float64 `json:"e2e_a"`
	E2EB      float64 `json:"e2e_b"`
	E2EDelta  float64 `json:"e2e_delta"`
}

// CritPathDiff is the /runs/diff?view=critpath response: the per-stage delta
// of the two runs' ttft/e2e_critical_path_seconds_total partitions. Like the
// raw metric diff, snapshots are cumulative — diffing run N against N-1
// isolates run N's own critical-path contribution.
type CritPathDiff struct {
	A      int          `json:"a"`
	B      int          `json:"b"`
	Stages []StageDelta `json:"stages"`
}

const (
	ttftStagePrefix = `ttft_critical_path_seconds_total{stage="`
	e2eStagePrefix  = `e2e_critical_path_seconds_total{stage="`
)

// critPathDiff reduces two metric snapshots to the per-stage delta table.
func critPathDiff(a, b int, sa, sb map[string]float64) CritPathDiff {
	type pair struct{ ttftA, ttftB, e2eA, e2eB float64 }
	stages := map[string]*pair{}
	get := func(stage string) *pair {
		p, ok := stages[stage]
		if !ok {
			p = &pair{}
			stages[stage] = p
		}
		return p
	}
	scan := func(series map[string]float64, set func(p *pair, family int, v float64)) {
		for k, v := range series {
			if strings.HasPrefix(k, ttftStagePrefix) {
				if stage, ok := stageLabel(k, ttftStagePrefix); ok {
					set(get(stage), 0, v)
				}
			} else if strings.HasPrefix(k, e2eStagePrefix) {
				if stage, ok := stageLabel(k, e2eStagePrefix); ok {
					set(get(stage), 1, v)
				}
			}
		}
	}
	scan(sa, func(p *pair, fam int, v float64) {
		if fam == 0 {
			p.ttftA = v
		} else {
			p.e2eA = v
		}
	})
	scan(sb, func(p *pair, fam int, v float64) {
		if fam == 0 {
			p.ttftB = v
		} else {
			p.e2eB = v
		}
	})
	out := CritPathDiff{A: a, B: b, Stages: []StageDelta{}}
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := stages[n]
		out.Stages = append(out.Stages, StageDelta{
			Stage:     n,
			TTFTA:     p.ttftA,
			TTFTB:     p.ttftB,
			TTFTDelta: p.ttftB - p.ttftA,
			E2EA:      p.e2eA,
			E2EB:      p.e2eB,
			E2EDelta:  p.e2eB - p.e2eA,
		})
	}
	return out
}

// stageLabel extracts the stage value from a series key of the form
// family{stage="<stage>"}.
func stageLabel(series, prefix string) (string, bool) {
	rest := series[len(prefix):]
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		return "", false
	}
	return rest[:end], true
}
