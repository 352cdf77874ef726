package sim

import "testing"

// recProfiler records the Begin/End call sequence so tests can assert the
// engine brackets exactly the executed events.
type recProfiler struct {
	begins []Time
	ends   []int64
	next   int64
}

func (p *recProfiler) BeginEvent(at Time) int64 {
	p.begins = append(p.begins, at)
	p.next++
	return p.next
}

func (p *recProfiler) EndEvent(token int64) { p.ends = append(p.ends, token) }

// TestProfilerBracketsExecutedEvents runs each script on the heap queue and
// requires BeginEvent/EndEvent around exactly the events that execute, at the
// time they execute: a cancelled event is never bracketed and a rescheduled
// one is bracketed at its new time.
func TestProfilerBracketsExecutedEvents(t *testing.T) {
	for _, tc := range []struct {
		name       string
		reschedule bool
		wantBegins []Time
	}{
		{"heap", false, []Time{1, 3}},
		{"reschedule", true, []Time{1, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			prof := &recProfiler{}
			eng.SetProfiler(prof)
			var order []Time
			eng.Schedule(1, func() { order = append(order, 1) })
			ev := eng.Schedule(2, func() { order = append(order, 2) })
			last := eng.Schedule(3, func() { order = append(order, 3) })
			eng.Cancel(ev)
			if tc.reschedule {
				eng.Reschedule(last, 4)
			}
			eng.Run()
			if len(order) != 2 {
				t.Fatalf("executed %v, want [1 3]", order)
			}
			want := tc.wantBegins
			if len(prof.begins) != 2 || prof.begins[0] != want[0] || prof.begins[1] != want[1] {
				t.Fatalf("BeginEvent times = %v, want %v", prof.begins, want)
			}
			if len(prof.ends) != 2 || prof.ends[0] != 1 || prof.ends[1] != 2 {
				t.Fatalf("EndEvent tokens = %v, want [1 2]", prof.ends)
			}
		})
	}
}

// TestProfilerDoesNotChangeOrder replays a cancel-heavy script with and
// without a profiler installed and requires an identical execution order.
func TestProfilerDoesNotChangeOrder(t *testing.T) {
	script := func(eng *Engine, prof Profiler) []int {
		if prof != nil {
			eng.SetProfiler(prof)
		}
		var got []int
		var evs []Event
		for i := 0; i < 200; i++ {
			i := i
			at := Time(i%7) + Time(i)/100
			evs = append(evs, eng.Schedule(at, func() { got = append(got, i) }))
		}
		for i := 0; i < len(evs); i += 3 {
			eng.Cancel(evs[i])
		}
		eng.Run()
		return got
	}
	plain := script(NewEngine(), nil)
	profiled := script(NewEngine(), &recProfiler{})
	if len(plain) != len(profiled) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(profiled))
	}
	for i := range plain {
		if plain[i] != profiled[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, plain[i], profiled[i])
		}
	}
}

func TestQueueStatsHeap(t *testing.T) {
	eng := NewEngine()
	var evs []Event
	for i := 0; i < 50; i++ {
		evs = append(evs, eng.Schedule(Time(i), func() {}))
	}
	eng.Cancel(evs[0])
	eng.Cancel(evs[0]) // stale: not counted twice
	eng.Reschedule(evs[1], 100)
	if st := eng.QueueStats(); st != (QueueStats{Live: 49, Cancelled: 1}) {
		t.Fatalf("stats = %+v, want Live=49 Cancelled=1", st)
	}
	eng.Run()
	if st := eng.QueueStats(); st != (QueueStats{Live: 0, Cancelled: 1}) {
		t.Fatalf("drained stats = %+v, want Live=0 Cancelled=1", st)
	}
}
