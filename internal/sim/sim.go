// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulators in this repository (the flow-level network simulator, the
// switch data plane, and the end-to-end serving simulator) share one Engine:
// a priority queue of timestamped events with deterministic FIFO tie-breaking
// for events scheduled at the same instant. Simulated time is a float64
// number of seconds; no wall-clock time is ever consulted, so runs are fully
// reproducible.
//
// The queue is allocation-free in steady state. Events live in a slab of
// slots recycled through a free list; the priority queue is a 4-ary heap of
// small value entries (time, sequence number, slot), and every slot records
// its entry's heap position so Cancel and Reschedule reach it in O(1) and
// repair the heap in O(log n). Callers hold Event values — a slot index plus
// a generation — rather than pointers, so a handle outliving its event is
// detected, not dereferenced. internal/sim/differential_test.go locksteps the
// engine against a container/heap oracle over long randomized scripts.
package sim

import (
	"fmt"
	"math"
	"slices"
)

// Time is a simulated timestamp in seconds since the start of the run.
type Time = float64

// Forever is a timestamp later than any event the simulator will process.
// It is convenient as the initial value of "earliest deadline" computations.
const Forever Time = math.MaxFloat64

// Event is a handle to a scheduled callback. The callback runs exactly once,
// at the event's timestamp, unless the event is cancelled first.
//
// The zero Event means "no event". A handle goes stale once its event has
// run or been cancelled: the engine recycles the slot under a new
// generation, so Cancel on a stale handle is a no-op and Reschedule reports
// false, even when the slot already carries another event.
type Event struct {
	slot uint32
	gen  uint32 // 0 never names a live event
}

// slot is the slab record of one queued event.
type slot struct {
	fn     func()
	pos    int32 // heap position while queued, -1 while free
	gen    uint32
	daemon bool
}

// entry is a heap element. Ordering reads only at and seq, so sifts never
// touch the slab except to record positions.
type entry struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	slot uint32
}

// before reports whether a precedes b in the engine's total (time, FIFO)
// order. seq is unique, so the order is strict and the pop sequence does not
// depend on the heap's shape.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// QueueStats is a point-in-time snapshot of the event queue, the raw
// material of the performance observatory (internal/telemetry/perf).
type QueueStats struct {
	// Live is the number of queued events.
	Live int
	// Cancelled counts every Cancel that removed a queued event. Reschedule
	// moves an event and is not a cancellation.
	Cancelled uint64
}

// Profiler receives the engine's self-profiling callbacks. BeginEvent runs
// after an event is popped (the clock already advanced) and immediately
// before its callback; the token it returns is handed to EndEvent right
// after the callback returns. Implementations decide internally how often to
// pay for wall-clock reads — returning token 0 marks the event as unsampled.
// The engine's simulated behavior is completely independent of the profiler:
// it schedules nothing, cancels nothing, and observes the queue read-only.
type Profiler interface {
	BeginEvent(at Time) int64
	EndEvent(token int64)
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	heap    []entry
	slots   []slot
	free    []uint32 // recycled slot indices
	nextSeq uint64
	// processed counts events that have executed (not cancelled ones).
	processed uint64
	cancelled uint64
	// work counts queued non-daemon events: the events that represent real
	// simulated activity rather than periodic housekeeping.
	work int
	// prof, when non-nil, brackets every executed event callback. It is a
	// pure observer: the simulated schedule is identical with or without it.
	prof Profiler
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// SetProfiler installs (or, with nil, removes) the engine's self-profiling
// observer. The profiler sees every executed event but cannot influence the
// simulation: determinism of the event order is untouched.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }

// QueueStats snapshots the event queue. It is read-only and safe to call at
// any point, including from a Profiler callback.
func (e *Engine) QueueStats() QueueStats {
	return QueueStats{Live: len(e.heap), Cancelled: e.cancelled}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) }

// PendingWork returns the number of queued non-daemon events. Periodic
// control loops should consult it — not Pending — when deciding whether to
// reschedule themselves: counting every queued event lets two daemon loops
// keep each other (and the whole simulation) alive forever.
func (e *Engine) PendingWork() int { return e.work }

// checkTime panics on a timestamp the queue cannot order: one in the past
// (always a simulator bug — silently reordering time would corrupt every
// downstream measurement) or NaN (which compares "not before" everything and
// would silently corrupt the heap order).
func (e *Engine) checkTime(op string, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: %s at %g before now %g", op, at, e.now))
	}
	if at != at {
		panic(fmt.Sprintf("sim: %s at NaN (now %g)", op, e.now))
	}
}

// Schedule enqueues fn to run at absolute time at. Scheduling in the past or
// at NaN panics.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.schedule(at, fn, false)
}

// After enqueues fn to run delay seconds from now. Negative delays panic.
func (e *Engine) After(delay Time, fn func()) Event {
	return e.Schedule(e.now+delay, fn)
}

// ScheduleDaemon enqueues a housekeeping callback — a periodic scheduler
// refresh, an autoscaler control step — that must not keep the simulation
// alive on its own: Run stops once only daemon events remain, discarding
// them unrun.
func (e *Engine) ScheduleDaemon(at Time, fn func()) Event {
	return e.schedule(at, fn, true)
}

// AfterDaemon enqueues a daemon callback delay seconds from now.
func (e *Engine) AfterDaemon(delay Time, fn func()) Event {
	return e.ScheduleDaemon(e.now+delay, fn)
}

func (e *Engine) schedule(at Time, fn func(), daemon bool) Event {
	e.checkTime("schedule", at)
	var id uint32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = uint32(len(e.slots))
		e.slots = append(grow(e.slots), slot{gen: 1})
	}
	s := &e.slots[id]
	s.fn = fn
	s.daemon = daemon
	if !daemon {
		e.work++
	}
	e.heap = append(grow(e.heap), entry{at: at, seq: e.nextSeq, slot: id})
	e.nextSeq++
	e.up(len(e.heap) - 1)
	return Event{slot: id, gen: s.gen}
}

// grow doubles the capacity of a full slice. append alone grows a large
// slice by only 1.25x, so a run that schedules a long backlog up front (a
// whole background-traffic train, say) would copy the queue about five
// times over instead of about twice.
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		return slices.Grow(s, len(s)+16)
	}
	return s
}

// queued returns ev's slot when ev names a queued event, nil when the handle
// is zero or stale.
func (e *Engine) queued(ev Event) *slot {
	if int(ev.slot) >= len(e.slots) {
		return nil
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || s.pos < 0 {
		return nil
	}
	return s
}

// release returns a slot to the free list under a new generation, making
// every outstanding handle to it stale.
func (e *Engine) release(id uint32) {
	s := &e.slots[id]
	s.fn = nil
	s.pos = -1
	if s.gen++; s.gen == 0 {
		s.gen = 1
	}
	if !s.daemon {
		e.work--
	}
	e.free = append(e.free, id)
}

// Cancel removes ev from the queue so that it will not run. Cancelling the
// zero Event, or an already-executed or already-cancelled one, is a no-op.
func (e *Engine) Cancel(ev Event) {
	s := e.queued(ev)
	if s == nil {
		return
	}
	e.removeAt(int(s.pos))
	e.release(ev.slot)
	e.cancelled++
}

// Reschedule moves the queued event ev to time at, keeping its callback and
// daemon flag, and reports true. It draws a fresh FIFO sequence number —
// exactly the one Cancel followed by Schedule would assign — so the pop
// order is the same as for that pair. A zero or stale handle is left alone
// and Reschedule reports false. A past or NaN at panics, as for Schedule.
func (e *Engine) Reschedule(ev Event, at Time) bool {
	e.checkTime("reschedule", at)
	s := e.queued(ev)
	if s == nil {
		return false
	}
	i := int(s.pos)
	e.heap[i].at = at
	e.heap[i].seq = e.nextSeq
	e.nextSeq++
	e.fix(i)
	return true
}

// Step executes the next pending event. It returns false when the queue is
// empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	e.removeAt(0)
	fn := e.slots[top.slot].fn
	e.release(top.slot)
	e.now = top.at
	e.processed++
	if e.prof == nil {
		fn()
		return true
	}
	tok := e.prof.BeginEvent(top.at)
	fn()
	e.prof.EndEvent(tok)
	return true
}

// Run executes events until no real work remains. Daemon events still queued
// once the work drains are discarded unrun: a periodic control tick with
// nothing left to control must not advance the clock forever.
func (e *Engine) Run() {
	for e.work > 0 && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is ahead of the last event). Events scheduled
// after deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// The heap is 4-ary: children of i are 4i+1..4i+4. A wider node halves the
// tree depth of a binary heap, and the four children's keys share a cache
// line or two, so pops — the dominant operation — touch fewer lines.

// place stores x at heap position i and records the position in its slot.
func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slots[x.slot].pos = int32(i)
}

func (e *Engine) up(i int) {
	x := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !x.before(&e.heap[p]) {
			break
		}
		e.place(i, e.heap[p])
		i = p
	}
	e.place(i, x)
}

func (e *Engine) down(i int) {
	x := e.heap[i]
	n := len(e.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.heap[j].before(&e.heap[m]) {
				m = j
			}
		}
		if !e.heap[m].before(&x) {
			break
		}
		e.place(i, e.heap[m])
		i = m
	}
	e.place(i, x)
}

// fix restores heap order after the entry at i changed its key.
func (e *Engine) fix(i int) {
	if i > 0 && e.heap[i].before(&e.heap[(i-1)>>2]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

// removeAt deletes the heap entry at i, filling the hole with the last
// entry. The removed entry's slot is left for the caller to release.
func (e *Engine) removeAt(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap = e.heap[:last]
		e.fix(i)
		return
	}
	e.heap = e.heap[:last]
}
