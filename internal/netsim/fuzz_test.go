package netsim

import (
	"math"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// FuzzReallocate decodes arbitrary bytes into a small topology plus a script
// of flow starts/cancels, link rescalings, and engine steps, and checks after
// every reallocation that the allocator's output is a max-min fair
// allocation:
//
//  1. no link carries more than its effective capacity (within float
//     tolerance);
//  2. every active flow is bottlenecked — some link on its path is saturated
//     and the flow's rate is maximal among that link's flows (a flow that
//     could be raised without lowering a faster flow is not max-min);
//  3. every rate equals the global oracle's (oracleRates) bit-for-bit;
//  4. replaying the script on a fresh network reproduces every rate
//     bit-for-bit (determinism).
func FuzzReallocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 0, 0, 1, 0, 2, 1, 0, 0, 1, 0, 3})
	f.Add([]byte{7, 40, 2, 0, 0, 2, 2, 3, 1, 0, 2, 5, 1, 0, 1, 0, 3, 3, 2, 1, 3})
	f.Add([]byte{1, 10, 0, 0, 255, 255, 0, 0, 128, 2, 0, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		first := runScenario(t, data)
		second := runScenario(t, data) // determinism: replay must be bit-identical
		if len(first) != len(second) {
			t.Fatalf("replay diverged: %d state words vs %d", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay diverged at state word %d: %x vs %x", i, first[i], second[i])
			}
		}
	})
}

type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// runScenario decodes and executes one fuzz scenario with the oracle probe
// armed, returning the final state as float bits for the caller's
// determinism check.
func runScenario(t *testing.T, data []byte) []uint64 {
	d := &fuzzDecoder{data: data}

	nEdges := 1 + int(d.byte())%8
	g := topology.NewGraph()
	prev := g.AddNode(topology.Node{Kind: topology.KindHost})
	for i := 0; i < nEdges; i++ {
		next := g.AddNode(topology.Node{Kind: topology.KindHost})
		capScale := 0.25 * float64(1+int(d.byte())%16)
		g.AddEdge(prev, next, topology.LinkEthernet, capScale*1e9, 0)
		prev = next
	}

	eng := sim.NewEngine()
	n := New(g, eng)
	newOracleProbe(t, n)

	var created []*Flow
	fracs := []float64{0, 0.25, 0.5, 1}

	nOps := 2 + int(d.byte())%40
	for op := 0; op < nOps; op++ {
		switch d.byte() % 4 {
		case 0: // start a flow on 1-3 distinct edges
			k := 1 + int(d.byte())%3
			var edges []topology.EdgeID
			for j := 0; j < k; j++ {
				eid := topology.EdgeID(int(d.byte()) % nEdges)
				dup := false
				for _, e := range edges {
					if e == eid {
						dup = true
					}
				}
				if !dup {
					edges = append(edges, eid)
				}
			}
			size := int64(1+int(d.byte()))<<16 + int64(d.byte())
			p := topology.Path{Edges: edges}
			created = append(created, n.StartFlow(p, size, nil))
		case 1: // cancel an earlier flow
			if len(created) > 0 {
				n.CancelFlow(created[int(d.byte())%len(created)])
			}
		case 2: // rescale a link (degrade / blackout / recover)
			eid := topology.EdgeID(int(d.byte()) % nEdges)
			frac := fracs[int(d.byte())%4]
			n.SetLinkScale(eid, frac)
		case 3: // advance the simulation one event (flow completions)
			eng.Step()
		}
	}

	bits := make([]uint64, 0, 2*len(created)+nEdges)
	for _, fl := range created {
		bits = append(bits, math.Float64bits(fl.Rate()), math.Float64bits(fl.Remaining()))
	}
	for e := 0; e < nEdges; e++ {
		bits = append(bits, math.Float64bits(n.BytesCarried(topology.EdgeID(e))))
	}
	return bits
}
