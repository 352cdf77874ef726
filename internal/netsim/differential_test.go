package netsim

import (
	"math/rand"
	"testing"

	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

// The differential harness drives the incremental allocator through long
// randomized scripts and, after every reallocation, requires every active
// flow's rate to be BIT-identical to the oracle's global progressive-filling
// fixed point over the live flow set (oracleRates), and the allocation to be
// max-min fair (checkMaxMin).
//
// Scripts mix flow add/cancel storms, link degrade/blackout/recovery
// mid-flight, and a periodic daemon monitor — the operations the serving
// stack actually performs against the network.

type netOp struct {
	at   sim.Time
	kind int // 0 = start, 1 = cancel, 2 = link scale
	path int // start: index into the path table
	size int64
	pick int     // cancel: pseudo-index into flows created so far
	eid  int     // link scale: pseudo-index into edges
	frac float64 // link scale
}

// genNetScript pre-generates ops on a coarse time grid (collisions wanted).
func genNetScript(rng *rand.Rand, nOps, nPaths, horizon int) []netOp {
	ops := make([]netOp, nOps)
	for i := range ops {
		op := &ops[i]
		op.at = sim.Time(rng.Intn(horizon*16)) / 16.0
		switch r := rng.Intn(10); {
		case r < 6: // start storm-heavy mix
			op.kind = 0
			op.path = rng.Intn(nPaths)
			op.size = int64(rng.Intn(1<<22) + 1)
			if rng.Intn(8) == 0 {
				op.size = int64(rng.Intn(1<<26) + 1) // occasional elephant
			}
			if rng.Intn(64) == 0 {
				op.size = 0 // zero-size: latency-only delivery path
			}
		case r < 8:
			op.kind = 1
			op.pick = rng.Int()
		default:
			op.kind = 2
			op.eid = rng.Int()
			op.frac = []float64{0, 0, 0.1, 0.25, 0.5, 1, 1}[rng.Intn(7)]
		}
	}
	return ops
}

type netRun struct {
	eng     *sim.Engine
	net     *Network
	created []*Flow
	done    int
}

// install schedules every op and a daemon monitor on the run's engine.
func (r *netRun) install(ops []netOp, paths []topology.Path, nEdges int) {
	for i := range ops {
		op := ops[i]
		r.eng.Schedule(op.at, func() {
			switch op.kind {
			case 0:
				f := r.net.StartFlow(paths[op.path], op.size, func(*Flow) { r.done++ })
				r.created = append(r.created, f)
			case 1:
				if len(r.created) > 0 {
					r.net.CancelFlow(r.created[op.pick%len(r.created)])
				}
			case 2:
				r.net.SetLinkScale(topology.EdgeID(op.eid%nEdges), op.frac)
			}
		})
	}
	// Daemon monitor: polls link state every 50 ms while work remains, the
	// way the online scheduler's refresh loop does. Runs on daemon events so
	// it cannot keep the simulation alive by itself.
	var tick func()
	tick = func() {
		for e := 0; e < nEdges; e++ {
			_ = r.net.EdgeUtilization(topology.EdgeID(e))
		}
		if r.eng.PendingWork() > 0 {
			r.eng.AfterDaemon(0.05, tick)
		}
	}
	r.eng.AfterDaemon(0.05, tick)
}

// buildPaths returns a deterministic table of GPU-to-GPU paths over g.
func buildPaths(t testing.TB, g *topology.Graph, rng *rand.Rand, n int) []topology.Path {
	t.Helper()
	gpus := g.GPUs()
	m := g.NewMatrix(gpus, topology.TransferCost(1<<20), nil)
	paths := make([]topology.Path, 0, n)
	for guard := 0; len(paths) < n && guard < n*50; guard++ {
		a := gpus[rng.Intn(len(gpus))]
		b := gpus[rng.Intn(len(gpus))]
		if a == b {
			continue
		}
		if p, ok := m.PathBetween(a, b); ok {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		t.Fatal("no usable paths")
	}
	return paths
}

func runDifferential(t *testing.T, mkGraph func() *topology.Graph, seed int64, nOps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := mkGraph()
	paths := buildPaths(t, g, rng, 48)
	ops := genNetScript(rng, nOps, len(paths), 30)

	r := &netRun{eng: sim.NewEngine()}
	r.net = New(g, r.eng)
	probe := newOracleProbe(t, r.net)
	r.install(ops, paths, g.NumEdges())
	r.eng.Run()

	if r.done == 0 {
		t.Fatal("script completed no flows")
	}
	if probe.reallocs == 0 {
		t.Fatal("script triggered no reallocations")
	}
	t.Logf("seed %d: %d flows created, %d completed; %d reallocations, %d rates checked",
		seed, len(r.created), r.done, probe.reallocs, probe.compared)
}

// TestDifferentialNetsim is the headline equivalence proof: >= 3 seeds x
// >= 10k operations on two topologies, incremental allocator vs the global
// oracle, exact agreement at every reallocation.
func TestDifferentialNetsim(t *testing.T) {
	type combo struct {
		name    string
		mkGraph func() *topology.Graph
		seed    int64
		ops     int
	}
	combos := []combo{
		{"testbed/seed=1", topology.Testbed, 1, 10000},
		{"testbed/seed=2", topology.Testbed, 2, 10000},
		{"testbed/seed=3", topology.Testbed, 3, 10000},
		{"pod2/seed=4", func() *topology.Graph { return topology.Pod2Tracks(4) }, 4, 10000},
	}
	if testing.Short() {
		combos = combos[:3]
	}
	for _, c := range combos {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runDifferential(t, c.mkGraph, c.seed, c.ops)
		})
	}
}

// TestFastPathSteadyStateAllocs pins the allocator's allocation claim: once
// flows are in steady state, a reallocation triggered by link rescaling
// performs no heap allocation at all — netsim's scratch is reused and every
// completion event is moved in place by Reschedule.
func TestFastPathSteadyStateAllocs(t *testing.T) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	n := New(g, eng)
	rng := rand.New(rand.NewSource(5))
	paths := buildPaths(t, g, rng, 16)
	for i, p := range paths {
		n.StartFlow(p, int64(1<<30+i), nil)
	}
	eid := paths[0].Edges[0]
	// Warm up scratch growth.
	n.SetLinkScale(eid, 0.5)
	n.SetLinkScale(eid, 1)
	perOp := testing.AllocsPerRun(200, func() {
		n.SetLinkScale(eid, 0.5)
		n.SetLinkScale(eid, 1)
	})
	// Each SetLinkScale reschedules every live flow: 16 events per call, two
	// calls per run, none of them allocating.
	if perOp != 0 {
		t.Errorf("steady-state reallocation allocates %.1f objects per op, want 0", perOp)
	}
}
