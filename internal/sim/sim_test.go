package sim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{3, 1, 2, 0.5} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{0.5, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %g, want %g", i, got[i], want[i])
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %g, want 3", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var secondAt Time
	e.Schedule(5, func() {
		e.After(2, func() { secondAt = e.Now() })
	})
	e.Run()
	if secondAt != 7 {
		t.Errorf("nested After fired at %g, want 7", secondAt)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	// Double cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
	if e.Reschedule(ev, 2) || e.Reschedule(Event{}, 2) {
		t.Error("Reschedule moved a cancelled or zero handle")
	}
	if e.Pending() != 0 || e.QueueStats().Cancelled != 1 {
		t.Errorf("Pending=%d Cancelled=%d, want 0, 1", e.Pending(), e.QueueStats().Cancelled)
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var events []Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, e.Schedule(Time(i), func() { got = append(got, i) }))
	}
	e.Cancel(events[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	ev := e.Schedule(20, func() {})
	e.RunUntil(10)
	mustPanic(t, "Schedule into the past", "schedule at 5 before now 10", func() { e.Schedule(5, func() {}) })
	mustPanic(t, "Reschedule into the past", "reschedule at 5 before now 10", func() { e.Reschedule(ev, 5) })
}

// mustPanic fails the test unless fn panics with a message containing want.
func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
		} else if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want it to mention %q", what, r, want)
		}
	}()
	fn()
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	mustPanic(t, "Schedule(NaN)", "schedule at NaN", func() { e.Schedule(math.NaN(), func() {}) })
	mustPanic(t, "ScheduleDaemon(NaN)", "schedule at NaN", func() { e.ScheduleDaemon(math.NaN(), func() {}) })
	mustPanic(t, "Reschedule(NaN)", "reschedule at NaN", func() { e.Reschedule(ev, math.NaN()) })
	if e.Pending() != 1 || e.PendingWork() != 1 {
		t.Fatalf("Pending=%d PendingWork=%d after rejected calls, want 1, 1", e.Pending(), e.PendingWork())
	}
	e.Run()
	if e.Now() != 1 || e.Processed() != 1 {
		t.Fatalf("Now=%g Processed=%d, want 1, 1", e.Now(), e.Processed())
	}
}

// Reschedule moves an event in place: it keeps the callback, takes the FIFO
// position of a freshly scheduled event at its new time, and leaves the
// counters alone.
func TestRescheduleMovesEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	a := e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(2, func() { got = append(got, "b") })
	d := e.ScheduleDaemon(3, func() { got = append(got, "d") })
	e.Schedule(4, func() { got = append(got, "c") })
	// a lands behind b (same instant, later sequence number); the daemon
	// tick moves ahead of everything.
	if !e.Reschedule(a, 2) || !e.Reschedule(d, 0.5) {
		t.Fatal("Reschedule of a queued event reported false")
	}
	if e.Pending() != 4 || e.PendingWork() != 3 || e.QueueStats().Cancelled != 0 {
		t.Fatalf("Pending=%d PendingWork=%d Cancelled=%d, want 4, 3, 0",
			e.Pending(), e.PendingWork(), e.QueueStats().Cancelled)
	}
	e.Run()
	if want := "d b a c"; strings.Join(got, " ") != want {
		t.Fatalf("order %v, want %s", got, want)
	}
	if e.Reschedule(a, 9) {
		t.Fatal("Reschedule of an executed event reported true")
	}
}

// A stale handle must not reach the event that recycled its slot.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	old := e.Schedule(1, func() {})
	e.Cancel(old)
	ran := false
	fresh := e.Schedule(2, func() { ran = true })
	if fresh.slot != old.slot {
		t.Fatalf("slot not recycled: old %d fresh %d", old.slot, fresh.slot)
	}
	e.Cancel(old)
	if e.Reschedule(old, 5) {
		t.Fatal("Reschedule through a stale handle reported true")
	}
	e.Run()
	if !ran || e.Now() != 2 {
		t.Fatalf("recycled event ran=%v at %g, want true at 2", ran, e.Now())
	}
}

// The event loop allocates nothing in steady state: neither scheduling and
// popping, nor netsim's pattern of moving pending events and popping one.
func TestSteadyStateZeroAllocs(t *testing.T) {
	nop := func() {}
	t.Run("schedule-step", func(t *testing.T) {
		e := NewEngine()
		r := lcg(1)
		for i := 0; i < 1024; i++ {
			e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
		}
		allocs := testing.AllocsPerRun(10000, func() {
			e.Schedule(e.Now()+Time(r.next()%(1<<20))/1e3, nop)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("Schedule+Step allocates %.2f objects per op, want 0", allocs)
		}
	})
	t.Run("reschedule-step", func(t *testing.T) {
		e := NewEngine()
		r := lcg(2)
		events := make([]Event, 64)
		for i := range events {
			events[i] = e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
		}
		allocs := testing.AllocsPerRun(10000, func() {
			for j := range events {
				at := e.Now() + Time(r.next()%(1<<20))/1e3
				if !e.Reschedule(events[j], at) {
					events[j] = e.Schedule(at, nop)
				}
			}
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("Reschedule+Step allocates %.2f objects per op, want 0", allocs)
		}
	})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) executed %d events, want 3", len(got))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %g after RunUntil(3)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	// RunUntil past the last event advances the clock to the deadline.
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %g after RunUntil(100)", e.Now())
	}
	if len(got) != 5 {
		t.Errorf("executed %d events total, want 5", len(got))
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	ev1 := e.Schedule(1, func() {})
	ran := false
	e.Schedule(2, func() { ran = true })
	later := e.Schedule(10, func() {})
	e.Cancel(ev1)
	e.RunUntil(5)
	if !ran {
		t.Error("second event did not run")
	}
	if e.Now() != 5 {
		t.Errorf("Now = %g, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(later)
	e.Run()
	if e.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", e.Processed())
	}
}

// TestRunUntilSkipsTombstoneHead stacks several cancelled events and one
// moved-away event at the queue head. Cancellation is eager, so none of them
// may linger as a tombstone: RunUntil must run only the live event before the
// deadline and leave just the moved event queued.
func TestRunUntilSkipsTombstoneHead(t *testing.T) {
	e := NewEngine()
	var heads []Event
	for i := 0; i < 4; i++ {
		heads = append(heads, e.Schedule(1, func() { t.Error("cancelled event ran") }))
	}
	ran := false
	e.Schedule(2, func() { ran = true })
	moved := e.Schedule(1, func() {})
	e.Reschedule(moved, 10)
	for _, ev := range heads {
		e.Cancel(ev)
	}
	e.RunUntil(5)
	if !ran {
		t.Error("second event did not run")
	}
	if e.Now() != 5 {
		t.Errorf("Now = %g, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(moved)
	e.Run()
	if e.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", e.Processed())
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	ev := e.Schedule(100, func() {})
	e.Cancel(ev)
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7 (cancelled events must not count)", e.Processed())
	}
}

// Property: for any set of timestamps, the engine executes callbacks in
// nondecreasing time order and ends with the clock at the max timestamp.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r) / 16.0
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return e.Now() == fired[len(fired)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving Schedule and Step never violates time ordering, even
// when new events are scheduled from inside callbacks.
func TestQuickNestedScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var fired []Time
		var schedule func(depth int, at Time)
		schedule = func(depth int, at Time) {
			e.Schedule(at, func() {
				fired = append(fired, e.Now())
				if depth > 0 {
					schedule(depth-1, e.Now()+Time(rng.Intn(10)))
				}
			})
		}
		for i := 0; i < 10; i++ {
			schedule(3, Time(rng.Intn(100)))
		}
		e.Run()
		if !sort.Float64sAreSorted(fired) {
			t.Fatalf("trial %d: events fired out of order", trial)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, 1024)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, at := range times {
			e.Schedule(at, func() {})
		}
		e.Run()
	}
}

func TestDaemonEventsDoNotKeepEngineAlive(t *testing.T) {
	// Two periodic daemon loops that each reschedule while the other's tick
	// is queued: with plain events this ping-pongs forever. Run must stop
	// once the only real work (one event at t=1) has drained.
	e := NewEngine()
	ticks := 0
	var loopA, loopB func()
	loopA = func() {
		ticks++
		if e.PendingWork() > 0 {
			e.AfterDaemon(0.5, loopA)
		}
	}
	loopB = func() {
		ticks++
		if e.PendingWork() > 0 {
			e.AfterDaemon(0.5, loopB)
		}
	}
	e.AfterDaemon(0.5, loopA)
	e.AfterDaemon(0.5, loopB)
	worked := false
	e.Schedule(1, func() { worked = true })
	e.Run()
	if !worked {
		t.Error("the real event never ran")
	}
	if e.Now() != 1 {
		t.Errorf("clock stopped at %g, want 1 (the last real event)", e.Now())
	}
	if ticks == 0 {
		t.Error("daemon loops never ticked while work was pending")
	}
	if e.PendingWork() != 0 {
		t.Errorf("PendingWork = %d after Run", e.PendingWork())
	}
}

func TestCancelDaemonAccounting(t *testing.T) {
	e := NewEngine()
	w := e.Schedule(1, func() {})
	d := e.ScheduleDaemon(2, func() {})
	if e.PendingWork() != 1 || e.Pending() != 2 {
		t.Fatalf("PendingWork=%d Pending=%d, want 1, 2", e.PendingWork(), e.Pending())
	}
	e.Cancel(w)
	if e.PendingWork() != 0 {
		t.Errorf("PendingWork = %d after cancelling the work event", e.PendingWork())
	}
	e.Cancel(d)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling everything", e.Pending())
	}
	e.Run() // must return immediately
}
