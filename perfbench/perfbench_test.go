package main

import (
	"testing"
	"time"

	"heroserve/internal/collective"
	"heroserve/internal/netsim"
	"heroserve/internal/serving"
	"heroserve/internal/sim"
	"heroserve/internal/topology"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The reported percentile leaves at least ten samples beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// manualClock lets a test place span boundaries at exact instants.
type manualClock struct{ now time.Duration }

func (c *manualClock) at(d time.Duration) { c.now = d }

func newTestTracer() (*tracer, *manualClock) {
	c := &manualClock{}
	tr := newTracer()
	tr.clock = func() time.Duration { return c.now }
	return tr, c
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	tr, c := newTestTracer()
	c.at(0)
	tr.begin(layerCallback, nil)
	c.at(1)
	tr.begin(layerAllReduce, []int{4, 7})
	c.at(2)
	tr.begin(layerRoute, nil)
	c.at(4)
	tr.end() // route: 2
	c.at(5)
	tr.begin(layerRealloc, nil)
	c.at(8)
	tr.end() // realloc: 3
	c.at(10)
	tr.end() // all-reduce: 9, of which 5 in children
	c.at(11)
	tr.begin(layerRealloc, nil)
	c.at(12)
	tr.end() // realloc directly under the callback: 1
	c.at(13)
	tr.end() // callback: 13, of which 10 in children

	want := map[layer]layerStat{
		layerCallback:  {calls: 1, total: 13, self: 3},
		layerAllReduce: {calls: 1, total: 9, self: 4},
		layerRoute:     {calls: 1, total: 2, self: 2},
		layerRealloc:   {calls: 2, total: 4, self: 4},
	}
	for l, w := range want {
		if got := tr.layers[l]; got != w {
			t.Errorf("%s: got %+v, want %+v", l, got, w)
		}
	}
	// Spans finish child-first; each names its parent and keeps its requests.
	parents := map[string]string{}
	byID := map[uint64]spanRecord{}
	for _, s := range tr.log {
		byID[s.ID] = s
	}
	for _, s := range tr.log {
		if s.Parent != 0 {
			parents[s.Name] = byID[s.Parent].Name
		}
	}
	if parents["collective.route"] != "core.allreduce" || parents["core.allreduce"] != "serving.callback" || parents["netsim.realloc"] != "serving.callback" {
		t.Errorf("parents = %v", parents)
	}
	if ar := tr.log[2]; ar.Name != "core.allreduce" || len(ar.Reqs) != 2 || ar.Reqs[1] != 7 {
		t.Errorf("all-reduce span = %+v", ar)
	}
}

func TestSpanLogIsBounded(t *testing.T) {
	tr, c := newTestTracer()
	for i := 0; i < spanKeep+10; i++ {
		c.at(time.Duration(i))
		tr.begin(layerRoute, nil)
		tr.end()
	}
	if len(tr.log) != spanKeep || tr.layers[layerRoute].calls != spanKeep+10 {
		t.Fatalf("kept %d spans of %d", len(tr.log), tr.layers[layerRoute].calls)
	}
}

// fakePolicy completes each all-reduce after delay simulated seconds, or
// synchronously when delay is zero.
type fakePolicy struct {
	delay float64
	calls int
}

func (f *fakePolicy) Name() string { return "fake-policy" }

func (f *fakePolicy) AllReduce(ctx *serving.GroupCtx, _ int64, _ int, done func()) {
	f.calls++
	if f.delay == 0 {
		done()
		return
	}
	ctx.Comm.Network().Engine().After(f.delay, done)
}

func testComm() (*collective.Comm, *sim.Engine, *topology.Graph) {
	g := topology.Testbed()
	eng := sim.NewEngine()
	return collective.NewComm(netsim.New(g, eng), collective.NewStaticRouter(g)), eng, g
}

func TestTracedPolicyPassesThrough(t *testing.T) {
	for _, delay := range []float64{0, 0.25} {
		comm, eng, g := testComm()
		inner := &fakePolicy{delay: delay}
		tr := newTracer()
		p := &tracedPolicy{inner: inner, tr: tr}
		if p.Name() != "fake-policy" {
			t.Fatalf("Name() = %q, want the wrapped policy's", p.Name())
		}
		dones := 0
		ctx := &serving.GroupCtx{Comm: comm, Group: g.GPUs()[:2], Switch: -1, Reqs: []int{1}}
		eng.Schedule(1, func() { p.AllReduce(ctx, 1<<20, 2, func() { dones++ }) })
		eng.Run()
		if inner.calls != 1 || dones != 1 {
			t.Fatalf("delay %g: inner called %d times, done %d times; want 1 and 1", delay, inner.calls, dones)
		}
		if p.simDone != 1 || p.simSum != delay {
			t.Errorf("delay %g: recorded %d completions, %g sim-seconds", delay, p.simDone, p.simSum)
		}
		if st := tr.layers[layerAllReduce]; st.calls != 1 {
			t.Errorf("delay %g: %d all-reduce spans", delay, st.calls)
		}
	}
}

func TestTracedRouterPassesThrough(t *testing.T) {
	_, _, g := testComm()
	inner := collective.NewStaticRouter(g)
	tr := newTracer()
	r := &tracedRouter{inner: inner, tr: tr}
	gpus := g.GPUs()
	a, b := gpus[0], gpus[len(gpus)-1]
	want, wok := inner.Route(a, b, 1<<20)
	got, ok := r.Route(a, b, 1<<20)
	if ok != wok || len(got.Edges) != len(want.Edges) {
		t.Fatalf("Route = %v %v, want %v %v", got, ok, want, wok)
	}
	if tr.layers[layerRoute].calls != 1 {
		t.Errorf("%d route spans, want 1", tr.layers[layerRoute].calls)
	}
}
