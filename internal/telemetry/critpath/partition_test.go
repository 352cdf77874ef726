package critpath

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

// oraclePartition is the direct O(n²) partition the sweep replaced: every
// elementary segment is tested against every clipped interval. It is the
// reference the sweep must match bit for bit.
func oraclePartition(out map[string]float64, w window, computeStage string, comm, pipe, faults []interval) {
	type clipped struct {
		interval
		prio int // lower wins
	}
	var spans []clipped
	add := func(ivs []interval, prio int, stage string) {
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
			spans = append(spans, clipped{interval{s, e, st}, prio})
		}
	}
	add(comm, 0, "")
	add(pipe, 1, StagePipeline)
	add(faults, 2, "")
	if len(spans) == 0 {
		addStage(out, computeStage, w.end-w.start)
		return
	}
	pts := make([]float64, 0, 2*len(spans)+2)
	pts = append(pts, w.start, w.end)
	for _, sp := range spans {
		pts = append(pts, sp.start, sp.end)
	}
	sort.Float64s(pts)
	for i := 0; i+1 < len(pts); i++ {
		s, e := pts[i], pts[i+1]
		if e <= s {
			continue
		}
		mid := s + (e-s)/2
		stage := computeStage
		bestPrio, found := 0, false
		for _, sp := range spans {
			if sp.start <= mid && mid < sp.end {
				if !found || sp.prio < bestPrio || (sp.prio == bestPrio && compareStages(sp.stage, stage) < 0) {
					bestPrio, stage, found = sp.prio, sp.stage, true
				}
			}
		}
		addStage(out, stage, e-s)
	}
}

// partitionCase is one partition input: a window, its compute stage, and
// the comm, pipeline and fault intervals that compete for it.
type partitionCase struct {
	name               string
	w                  window
	compute            string
	comm, pipe, faults []interval
}

// checkPartition runs the oracle and the sweep on the same input (twice on
// one sweep, to exercise scratch reuse) and requires the same stage set and
// bit-equal totals.
func checkPartition(t *testing.T, c partitionCase) {
	t.Helper()
	want := map[string]float64{StageQueue: 0.5}
	oraclePartition(want, c.w, c.compute, c.comm, c.pipe, c.faults)
	var sw sweep
	for round := 0; round < 2; round++ {
		got := map[string]float64{StageQueue: 0.5}
		sw.partition(got, c.w, c.compute, c.comm, c.pipe, c.faults)
		if len(got) != len(want) {
			t.Fatalf("%s: sweep stages %v, oracle %v", c.name, got, want)
		}
		for s, v := range want {
			g, ok := got[s]
			if !ok || math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s round %d: stage %q sweep %v (%#x), oracle %v (%#x)",
					c.name, round, s, g, math.Float64bits(g), v, math.Float64bits(v))
			}
		}
	}
}

// decodeCase builds a request's decode window of n iterations of 35 ms, each
// carrying an all-reduce whose scheme rotates, with a pipeline transfer every
// 7th iteration and a fault stall across a tenth of the window.
func decodeCase(n int) partitionCase {
	const t0, iter = 4e6, 35e3
	schemes := []string{"ring", "ina-sync", "ina-async", "ina-hetero"}
	c := partitionCase{
		name:    fmt.Sprintf("decode-%d", n),
		w:       window{start: t0, end: t0 + float64(n)*iter, seen: true},
		compute: StageDecodeCompute,
	}
	for i := 0; i < n; i++ {
		s := t0 + float64(i)*iter + 21e3
		c.comm = append(c.comm, interval{s, s + 9e3 + float64(i%5)*1e3, StageAllReduce(schemes[i%len(schemes)])})
		if i%7 == 0 {
			c.pipe = append(c.pipe, interval{s - 4e3, s + 2e3, ""})
		}
	}
	c.faults = []interval{{t0 + float64(n)*iter*0.4, t0 + float64(n)*iter*0.5, StageFaultStall}}
	return c
}

func partitionCases() []partitionCase {
	one := 1.0
	up := math.Nextafter(one, 2)
	up2 := math.Nextafter(up, 2)
	down := math.Nextafter(one, 0)
	w := window{start: 0, end: 10, seen: true}
	return []partitionCase{
		{name: "empty", w: w, compute: StagePrefillCompute},
		{name: "adjacent-floats", w: window{start: down, end: up2, seen: true}, compute: StagePrefillCompute,
			comm:   []interval{{one, up, "allreduce-ring"}, {down, one, "allreduce-ina-sync"}},
			faults: []interval{{up, up2, StageFaultStall}}},
		{name: "mid-rounds-onto-end", w: window{start: one, end: up, seen: true}, compute: StagePrefillCompute,
			comm: []interval{{up, 2, "allreduce-ring"}, {0, up, "allreduce-ina-async"}}},
		{name: "coincident", w: w, compute: StagePrefillCompute,
			comm:   []interval{{2, 4, "allreduce-ring"}, {2, 4, "allreduce-ina-hetero"}, {4, 4, "allreduce-ring"}, {4, 6, "allreduce-ring"}},
			pipe:   []interval{{2, 4, ""}, {6, 8, ""}},
			faults: []interval{{6, 8, StageFaultStall}, {8, 10, StageFaultStall}}},
		{name: "nested-overlapping-schemes", w: w, compute: StageDecodeCompute,
			comm: []interval{{1, 9, "allreduce-ina-hetero"}, {2, 3, "allreduce-ring"}, {2.5, 5, "allreduce-ina-sync"},
				{4, 7, "allreduce-ina-async"}, {6, 8, "allreduce-ring"}}},
		{name: "priority", w: w, compute: StagePrefillCompute,
			comm:   []interval{{3, 5, "allreduce-ina-async"}},
			pipe:   []interval{{2, 6, ""}},
			faults: []interval{{1, 7, StageFaultStall}}},
		{name: "outside-and-empty", w: w, compute: StagePrefillCompute,
			comm:   []interval{{-5, -1, "allreduce-ring"}, {11, 12, "allreduce-ring"}, {3, 3, "allreduce-ring"}, {5, 4, "allreduce-ina-sync"}},
			pipe:   []interval{{-1, 0.5, ""}, {9.5, 20, ""}},
			faults: []interval{{10, 11, StageFaultStall}}},
		{name: "unknown-stages-share-first-byte", w: w, compute: StagePrefillCompute,
			comm: []interval{{1, 5, "allreduce-zeta"}, {2, 6, "allreduce-alpha"}, {3, 7, "allreduce-"}, {4, 8, "allreduce-ring"}}},
		{name: "non-finite", w: window{start: math.Inf(-1), end: math.Inf(1), seen: true}, compute: StagePrefillCompute,
			comm:   []interval{{-1e308, 1e308, "allreduce-ring"}, {math.NaN(), 3, "allreduce-ina-sync"}, {2, math.NaN(), "allreduce-ina-sync"}},
			faults: []interval{{0, math.Inf(1), StageFaultStall}}},
		{name: "nan-bounds", w: w, compute: StagePrefillCompute,
			comm: []interval{{math.NaN(), 5, "allreduce-ring"}, {2, math.NaN(), "allreduce-ring"}, {6, 7, "allreduce-ina-sync"}}},
		{name: "overflowing-midpoint", w: window{start: -1e308, end: 1.5e308, seen: true}, compute: StageDecodeCompute,
			comm:   []interval{{-1e308, 1e308, "allreduce-ring"}},
			faults: []interval{{1e308, 1.5e308, StageFaultStall}}},
		decodeCase(300),
	}
}

func TestPartitionMatchesOracle(t *testing.T) {
	for _, c := range partitionCases() {
		checkPartition(t, c)
	}
}

func TestCompareStagesBreaksTiesByLabel(t *testing.T) {
	if c := compareStages("allreduce-zeta", "allreduce-alpha"); c <= 0 {
		t.Errorf("unknown labels sharing a first byte must order by name, got %d", c)
	}
	if c := compareStages(StageFaultStall, "allreduce-alpha"); c >= 0 {
		t.Errorf("known labels must order before unknown ones, got %d", c)
	}
}

// Fuzz input encoding: a sequence of floats, each introduced by a tag byte —
// 0: the next 8 bytes are raw float64 bits; 1: the next byte b gives b/8
// (a coarse grid, so boundaries coincide); 2: the float after the previous
// one (an adjacent boundary); 3: the previous float again. The first two
// floats are the window; then each interval is a kind byte (list and scheme)
// followed by its start and end.
const (
	tagRaw = iota
	tagGrid
	tagNext
	tagSame
)

var fuzzStages = []string{"allreduce-ring", "allreduce-ina-sync", "allreduce-ina-async",
	"allreduce-ina-hetero", "allreduce-zeta", "allreduce-alpha"}

type fuzzReader struct {
	data []byte
	prev float64
}

func (r *fuzzReader) byte() (byte, bool) {
	if len(r.data) == 0 {
		return 0, false
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b, true
}

func (r *fuzzReader) float() (float64, bool) {
	tag, ok := r.byte()
	if !ok {
		return 0, false
	}
	switch tag % 4 {
	case tagRaw:
		if len(r.data) < 8 {
			return 0, false
		}
		r.prev = math.Float64frombits(binary.LittleEndian.Uint64(r.data))
		r.data = r.data[8:]
	case tagGrid:
		b, ok := r.byte()
		if !ok {
			return 0, false
		}
		r.prev = float64(b) / 8
	case tagNext:
		r.prev = math.Nextafter(r.prev, math.Inf(1))
	}
	return r.prev, true
}

func decodeFuzzCase(data []byte) (partitionCase, bool) {
	r := &fuzzReader{data: data}
	ws, ok1 := r.float()
	we, ok2 := r.float()
	if !ok1 || !ok2 {
		return partitionCase{}, false
	}
	c := partitionCase{name: "fuzz", w: window{start: ws, end: we, seen: true}, compute: StagePrefillCompute}
	for n := 0; n < 512; n++ {
		kind, ok := r.byte()
		if !ok {
			break
		}
		s, ok1 := r.float()
		e, ok2 := r.float()
		if !ok1 || !ok2 {
			break
		}
		switch kind % 3 {
		case 0:
			c.comm = append(c.comm, interval{s, e, fuzzStages[int(kind/3)%len(fuzzStages)]})
		case 1:
			c.pipe = append(c.pipe, interval{s, e, ""})
		default:
			c.faults = append(c.faults, interval{s, e, StageFaultStall})
		}
	}
	return c, true
}

// encodeFuzzCase writes a case in the fuzz encoding, every float raw.
func encodeFuzzCase(c partitionCase) []byte {
	var b []byte
	raw := func(v float64) {
		b = append(b, tagRaw)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	raw(c.w.start)
	raw(c.w.end)
	stageIndex := func(st string) byte {
		for i, s := range fuzzStages {
			if s == st {
				return byte(i)
			}
		}
		return 0
	}
	for _, iv := range c.comm {
		b = append(b, 3*stageIndex(iv.stage))
		raw(iv.start)
		raw(iv.end)
	}
	for _, iv := range c.pipe {
		b = append(b, 1)
		raw(iv.start)
		raw(iv.end)
	}
	for _, iv := range c.faults {
		b = append(b, 2)
		raw(iv.start)
		raw(iv.end)
	}
	return b
}

func FuzzPartition(f *testing.F) {
	for _, c := range partitionCases() {
		f.Add(encodeFuzzCase(c))
	}
	// Grid and adjacent-float encodings: window [0, 4], a comm span ending on
	// the float after 1, a fault starting there, a pipeline span coincident
	// with the comm span.
	f.Add([]byte{tagGrid, 0, tagGrid, 32,
		0, tagGrid, 8, tagNext,
		2, tagSame, tagGrid, 24,
		1, tagGrid, 8, tagGrid, 8})
	f.Add([]byte{tagGrid, 8, tagNext,
		3, tagGrid, 8, tagNext, 0, tagSame, tagNext, 5, tagGrid, 8, tagNext})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeFuzzCase(data)
		if !ok {
			return
		}
		checkPartition(t, c)
	})
}

func BenchmarkPartition(b *testing.B) {
	impls := []struct {
		name string
		run  func(*sweep, map[string]float64, partitionCase)
	}{
		{"sweep", func(sw *sweep, out map[string]float64, c partitionCase) {
			sw.partition(out, c.w, c.compute, c.comm, c.pipe, c.faults)
		}},
		{"oracle", func(_ *sweep, out map[string]float64, c partitionCase) {
			oraclePartition(out, c.w, c.compute, c.comm, c.pipe, c.faults)
		}},
	}
	for _, impl := range impls {
		for _, n := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("impl=%s/intervals=%d", impl.name, n), func(b *testing.B) {
				c := decodeCase(n)
				var sw sweep
				out := make(map[string]float64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(out)
					impl.run(&sw, out, c)
				}
			})
		}
	}
}
