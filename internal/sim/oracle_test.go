package sim

import "container/heap"

// oracle is the reference event queue the engine is tested against: a
// container/heap of event pointers with eager heap.Remove on cancel. Its
// reschedule is literally a cancel followed by a schedule of the same
// callback, which is the equivalence the engine's in-place Reschedule must
// preserve.
type oracle struct {
	clock     Time
	q         oracleQueue
	nextSeq   uint64
	processed uint64
	work      int
}

type oracleEvent struct {
	at     Time
	seq    uint64
	fn     func()
	index  int // heap index while queued, -1 once run or cancelled
	daemon bool
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }

func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *oracleQueue) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

func (o *oracle) schedule(at Time, daemon bool, fn func()) *oracleEvent {
	if at < o.clock || at != at {
		panic("oracle: bad schedule time")
	}
	ev := &oracleEvent{at: at, seq: o.nextSeq, fn: fn, daemon: daemon}
	o.nextSeq++
	heap.Push(&o.q, ev)
	if !daemon {
		o.work++
	}
	return ev
}

// cancel removes a queued event; nil and dequeued events are ignored.
func (o *oracle) cancel(ev *oracleEvent) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&o.q, ev.index)
	ev.index = -1
	if !ev.daemon {
		o.work--
	}
}

// reschedule cancels a queued event and schedules its callback anew,
// returning the replacement. A nil or dequeued event is returned unchanged
// with false.
func (o *oracle) reschedule(ev *oracleEvent, at Time) (*oracleEvent, bool) {
	if ev == nil || ev.index < 0 {
		return ev, false
	}
	o.cancel(ev)
	return o.schedule(at, ev.daemon, ev.fn), true
}

func (o *oracle) step() bool {
	if len(o.q) == 0 {
		return false
	}
	ev := heap.Pop(&o.q).(*oracleEvent)
	if !ev.daemon {
		o.work--
	}
	o.clock = ev.at
	o.processed++
	ev.fn()
	return true
}

func (o *oracle) runUntil(deadline Time) {
	for len(o.q) > 0 && o.q[0].at <= deadline {
		o.step()
	}
	if o.clock < deadline {
		o.clock = deadline
	}
}

// runner is the surface the differential and property tests exercise, with
// events named by caller-chosen integer ids so that one script drives both
// the engine and the oracle.
type runner interface {
	schedule(id int, at Time, daemon bool, fn func())
	cancel(id int)
	reschedule(id int, at Time) bool
	step() bool
	run()
	runUntil(deadline Time)
	now() Time
	processed() uint64
	pending() int
	pendingWork() int
}

// runners returns constructors for both implementations, keyed by the
// subtest names the property tests use.
func runners() map[string]func() runner {
	return map[string]func() runner{
		"fast":      func() runner { return &engineRunner{e: NewEngine()} },
		"reference": func() runner { return &oracleRunner{} },
	}
}

type engineRunner struct {
	e  *Engine
	ev []Event
}

func (d *engineRunner) handle(id int) *Event {
	for len(d.ev) <= id {
		d.ev = append(d.ev, Event{})
	}
	return &d.ev[id]
}

func (d *engineRunner) schedule(id int, at Time, daemon bool, fn func()) {
	if daemon {
		*d.handle(id) = d.e.ScheduleDaemon(at, fn)
	} else {
		*d.handle(id) = d.e.Schedule(at, fn)
	}
}

func (d *engineRunner) cancel(id int)                   { d.e.Cancel(*d.handle(id)) }
func (d *engineRunner) reschedule(id int, at Time) bool { return d.e.Reschedule(*d.handle(id), at) }
func (d *engineRunner) step() bool                      { return d.e.Step() }
func (d *engineRunner) run()                            { d.e.Run() }
func (d *engineRunner) runUntil(deadline Time)          { d.e.RunUntil(deadline) }
func (d *engineRunner) now() Time                       { return d.e.Now() }
func (d *engineRunner) processed() uint64               { return d.e.Processed() }
func (d *engineRunner) pending() int                    { return d.e.Pending() }
func (d *engineRunner) pendingWork() int                { return d.e.PendingWork() }

type oracleRunner struct {
	o  oracle
	ev []*oracleEvent
}

func (d *oracleRunner) handle(id int) **oracleEvent {
	for len(d.ev) <= id {
		d.ev = append(d.ev, nil)
	}
	return &d.ev[id]
}

func (d *oracleRunner) schedule(id int, at Time, daemon bool, fn func()) {
	*d.handle(id) = d.o.schedule(at, daemon, fn)
}

func (d *oracleRunner) cancel(id int) { d.o.cancel(*d.handle(id)) }

func (d *oracleRunner) reschedule(id int, at Time) bool {
	h := d.handle(id)
	var ok bool
	*h, ok = d.o.reschedule(*h, at)
	return ok
}

func (d *oracleRunner) step() bool { return d.o.step() }

func (d *oracleRunner) run() {
	for d.o.work > 0 && d.o.step() {
	}
}

func (d *oracleRunner) runUntil(deadline Time) { d.o.runUntil(deadline) }
func (d *oracleRunner) now() Time              { return d.o.clock }
func (d *oracleRunner) processed() uint64      { return d.o.processed }
func (d *oracleRunner) pending() int           { return len(d.o.q) }
func (d *oracleRunner) pendingWork() int       { return d.o.work }
