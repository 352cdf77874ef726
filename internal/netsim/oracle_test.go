package netsim

import (
	"math"
	"testing"

	"heroserve/internal/topology"
)

// oracleRates is the allocator's test oracle: a global progressive
// water-filling fixed point over every live flow and loaded link, rebuilt
// from scratch. Each round freezes the unfrozen flows of the link with the
// smallest fair share — ties going to the lowest edge id through an
// ascending strict-< scan — at that share. It mutates nothing: rates come
// back parallel to n.order, together with the work a global recomputation
// does (loaded links, flows, bottleneck rounds).
func oracleRates(n *Network) (rates []float64, nLinks, nFlows, rounds int) {
	capLeft := make([]float64, len(n.linkFlows))
	count := make([]int, len(n.linkFlows))
	for eid, fl := range n.linkFlows {
		if len(fl) == 0 {
			continue
		}
		capLeft[eid] = n.effectiveCapacity(topology.EdgeID(eid))
		count[eid] = len(fl)
		nLinks++
	}
	nFlows = len(n.order)
	rates = make([]float64, nFlows)
	frozen := make([]bool, nFlows)
	for unfrozen := nFlows; unfrozen > 0; {
		bestShare := math.Inf(1)
		bestLink := topology.EdgeID(-1)
		for eid, c := range count {
			if c == 0 {
				continue
			}
			if share := capLeft[eid] / float64(c); share < bestShare {
				bestShare = share
				bestLink = topology.EdgeID(eid)
			}
		}
		if bestLink < 0 {
			break // unreachable: every unfrozen flow still loads some link
		}
		rounds++
		for _, f := range n.linkFlows[bestLink] {
			i, _ := n.orderIndex(f)
			if frozen[i] {
				continue
			}
			frozen[i] = true
			rates[i] = bestShare
			unfrozen--
			for _, eid := range f.Path.Edges {
				capLeft[eid] -= bestShare
				if capLeft[eid] < 0 {
					capLeft[eid] = 0
				}
				count[eid]--
			}
		}
	}
	return rates, nLinks, nFlows, rounds
}

// oracleProbe is a PerfProbe that, after every reallocation, requires the
// allocator's rates to match the oracle bit for bit and to be max-min fair,
// and the recomputed component to be no larger than the global fixed point.
type oracleProbe struct {
	t        testing.TB
	n        *Network
	reallocs int
	compared int
}

func newOracleProbe(t testing.TB, n *Network) *oracleProbe {
	p := &oracleProbe{t: t, n: n}
	n.SetPerf(p)
	return p
}

func (p *oracleProbe) ReallocStart() int64 { return 0 }

func (p *oracleProbe) ReallocDone(_ int64, links, flows, _ int) {
	p.reallocs++
	want, gLinks, gFlows, _ := oracleRates(p.n)
	for i, f := range p.n.order {
		if math.Float64bits(f.rate) != math.Float64bits(want[i]) {
			p.t.Fatalf("reallocation %d: flow %d: rate %v, oracle %v", p.reallocs, f.ID, f.rate, want[i])
		}
	}
	p.compared += len(want)
	if links > gLinks || flows > gFlows {
		p.t.Fatalf("reallocation %d: component (%d links, %d flows) exceeds the global fixed point (%d links, %d flows)",
			p.reallocs, links, flows, gLinks, gFlows)
	}
	checkMaxMin(p.t, p.n, p.reallocs)
}

// checkMaxMin asserts the allocation on n is max-min fair: no link carries
// more than its effective capacity (within float tolerance), and every
// active flow is bottlenecked — some link on its path is saturated and the
// flow's rate is maximal among that link's flows (a flow that could be
// raised without lowering a faster flow is not max-min).
func checkMaxMin(t testing.TB, n *Network, step int) {
	t.Helper()
	const tol = 1e-6
	for e := 0; e < n.g.NumEdges(); e++ {
		eid := topology.EdgeID(e)
		c := n.effectiveCapacity(eid)
		if r := n.EdgeRate(eid); r > c*(1+tol)+1e-9 {
			t.Fatalf("step %d: link %d over capacity: rate %g > cap %g", step, e, r, c)
		}
	}
	for _, fl := range n.order {
		bottlenecked := false
		for _, eid := range fl.Path.Edges {
			c := n.effectiveCapacity(eid)
			if n.EdgeRate(eid) < c*(1-tol)-1e-9 {
				continue // not saturated
			}
			maxRate := 0.0
			for _, g := range n.linkFlows[eid] {
				if g.rate > maxRate {
					maxRate = g.rate
				}
			}
			if fl.rate >= maxRate*(1-tol)-1e-12 {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("step %d: flow %d (rate %g) is not bottlenecked on any saturated path link — allocation is not max-min",
				step, fl.ID, fl.rate)
		}
	}
}
