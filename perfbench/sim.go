package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"heroserve/internal/serving"
)

// simResult is what one run predicts for the modelled serving system,
// checked against its trace.
type simResult struct {
	attempted, served int
	met               int // served within both SLO limits
	ttft, tpot        []float64
	ttftSum           float64
	makespan          float64
	kvMean, kvPeak    float64
	// digest fingerprints the per-request TTFT/TPOT/E2E sample,
	// Results.Comm, the makespan and, with telemetry armed, the trace bytes.
	digest   string
	problems []string
}

func (s *simResult) problem(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// summarize checks one run's outputs against its trace and reduces them.
func summarize(su *setup, res *serving.Results, inst *instance) *simResult {
	n := len(su.trace.Requests)
	s := &simResult{attempted: n, served: res.Served, makespan: res.Duration}
	if res.Served != len(res.Requests) {
		s.problem("Results.Served %d but %d request records", res.Served, len(res.Requests))
	}
	seen := make([]bool, n)
	s.ttft = make([]float64, 0, len(res.Requests))
	s.tpot = make([]float64, 0, len(res.Requests))
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range res.Requests {
		if r.ID < 0 || r.ID >= n || seen[r.ID] {
			s.problem("request ID %d unknown or served twice", r.ID)
			continue
		}
		seen[r.ID] = true
		if !finiteNonNeg(r.TTFT) || !finiteNonNeg(r.TPOT) || !finiteNonNeg(r.EndToEnd) || r.TTFT > r.EndToEnd {
			s.problem("request %d has latencies TTFT %g TPOT %g E2E %g", r.ID, r.TTFT, r.TPOT, r.EndToEnd)
		}
		if arr := su.trace.Requests[r.ID].Arrival; arr+r.EndToEnd > res.Duration*(1+1e-12) {
			s.problem("request %d finishes after the makespan", r.ID)
		}
		s.ttft = append(s.ttft, r.TTFT)
		s.tpot = append(s.tpot, r.TPOT)
		s.ttftSum += r.TTFT
		if r.TTFT <= su.spec.sla.TTFT && r.TPOT <= su.spec.sla.TPOT {
			s.met++
		}
		word(uint64(r.ID))
		word(math.Float64bits(r.TTFT))
		word(math.Float64bits(r.TPOT))
		word(math.Float64bits(r.EndToEnd))
	}
	fmt.Fprintf(h, "%+v|%x", res.Comm, math.Float64bits(res.Duration))
	if inst.sink != nil {
		fmt.Fprintf(h, "|trace %s", inst.sink.digest())
	}
	s.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	if p := tailPercentile(len(s.ttft)); p < 99 {
		s.problem("%d served requests support only p%g, not p99", len(s.ttft), p)
	}
	s.kvMean, s.kvPeak = res.MeanKVUtilization(), res.PeakKVUtilization()
	return s
}

// simMetrics are the simulated end-to-end metrics of a set of distinct
// traces, pooled: percentiles over every served request, shares over every
// attempted one, throughput over the summed makespans.
type simMetrics struct {
	ttftP50, ttftP99 float64
	tpotP50, tpotP99 float64
	attainment       float64
	servedFrac       float64
	throughput       float64
}

func pool(sims []*simResult) simMetrics {
	var ttft, tpot []float64
	var attempted, served, met int
	var makespan float64
	for _, s := range sims {
		ttft = append(ttft, s.ttft...)
		tpot = append(tpot, s.tpot...)
		attempted += s.attempted
		served += s.served
		met += s.met
		makespan += s.makespan
	}
	m := simMetrics{
		attainment: float64(met) / float64(attempted),
		servedFrac: float64(served) / float64(attempted),
		throughput: float64(served) / makespan,
	}
	if len(ttft) > 0 {
		sort.Float64s(ttft)
		sort.Float64s(tpot)
		m.ttftP50, m.ttftP99 = percentile(ttft, 50), percentile(ttft, 99)
		m.tpotP50, m.tpotP99 = percentile(tpot, 50), percentile(tpot, 99)
	}
	return m
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }
