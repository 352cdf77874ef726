package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential harness drives the engine and the container/heap oracle
// (oracle_test.go) through one and the same script and asserts they are
// indistinguishable: identical callback sequences (event id and timestamp
// bits), identical Reschedule results, and identical clock, Processed,
// Pending and PendingWork after every operation.
//
// A script is a tape of operations. Scheduled callbacks may themselves
// consume the next few operations of the tape, so scheduling, cancelling and
// rescheduling also happen from inside running events. Cancel and Reschedule
// name any earlier event id: many of those handles are stale (their event
// already ran or was cancelled), and on the engine a stale handle's slot has
// usually been recycled for a newer event — the generation check must keep
// it from touching that event.

type opKind uint8

const (
	opSchedule opKind = iota
	opDaemon
	opCancel
	opReschedule
	opStep
	opRunUntil
	numOpKinds
)

type scriptOp struct {
	kind   opKind
	delay  Time // schedule/reschedule: offset from now; runUntil: horizon
	target int  // cancel/reschedule: reduced modulo the ids assigned so far
	nest   int  // schedule: tape operations the callback executes itself
}

// gridDelay maps a byte onto a coarse time grid, a quarter of the time
// zero, so equal timestamps (the FIFO tie-break) are common.
func gridDelay(b byte) Time {
	if b%4 == 0 {
		return 0
	}
	return Time(b%40) / 16
}

// genScript builds a deterministic random tape of n operations.
func genScript(seed int64, n int) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	// Percent weights per kind: schedules dominate so the queue stays deep;
	// cancels and reschedules often hit stale handles.
	weights := [numOpKinds]int{30, 6, 18, 18, 22, 6}
	ops := make([]scriptOp, n)
	for i := range ops {
		r := rng.Intn(100)
		k := opKind(0)
		for r >= weights[k] {
			r -= weights[k]
			k++
		}
		ops[i] = scriptOp{kind: k, delay: gridDelay(byte(rng.Intn(256))), target: rng.Int()}
		if k <= opDaemon && rng.Intn(3) == 0 {
			ops[i].nest = 1 + rng.Intn(3)
		}
	}
	return ops
}

// decodeScript turns raw fuzz bytes into a tape, three bytes per operation.
func decodeScript(data []byte) []scriptOp {
	ops := make([]scriptOp, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		op := scriptOp{kind: opKind(data[i] % byte(numOpKinds)), delay: gridDelay(data[i+1]), target: int(data[i+2])}
		if op.kind <= opDaemon {
			op.nest = int(data[i+2] % 4)
		}
		ops = append(ops, op)
	}
	return ops
}

type scriptRun struct {
	d    runner
	ops  []scriptOp
	next int // tape cursor
	ids  int // event ids assigned so far
	// logIDs/logAts record (event id, timestamp bits) per executed callback.
	logIDs []int
	logAts []uint64
	// resched records every Reschedule result.
	resched []bool
	// reused counts stale handles passed to Cancel/Reschedule whose slot
	// held a live newer event at the time (engine runs only).
	reused int
}

// exec runs the operation at the cursor. Inside a callback (nested) the
// queue-draining operations are skipped: events do not step the engine.
func (r *scriptRun) exec(nested bool) {
	op := r.ops[r.next]
	r.next++
	now := r.d.now()
	switch op.kind {
	case opSchedule, opDaemon:
		id, nest := r.ids, op.nest
		r.ids++
		r.d.schedule(id, now+op.delay, op.kind == opDaemon, func() { r.fire(id, nest) })
	case opCancel, opReschedule:
		if r.ids == 0 {
			return
		}
		id := op.target % r.ids
		r.noteReuse(id)
		if op.kind == opCancel {
			r.d.cancel(id)
		} else {
			r.resched = append(r.resched, r.d.reschedule(id, now+op.delay))
		}
	case opStep:
		if !nested {
			r.d.step()
		}
	case opRunUntil:
		if !nested {
			r.d.runUntil(now + op.delay)
		}
	}
}

func (r *scriptRun) fire(id, nest int) {
	r.logIDs = append(r.logIDs, id)
	r.logAts = append(r.logAts, math.Float64bits(r.d.now()))
	for k := 0; k < nest && r.next < len(r.ops); k++ {
		r.exec(true)
	}
}

func (r *scriptRun) noteReuse(id int) {
	ed, ok := r.d.(*engineRunner)
	if !ok {
		return
	}
	h := *ed.handle(id)
	if h.gen != 0 && ed.e.queued(h) == nil && ed.e.slots[h.slot].pos >= 0 {
		r.reused++
	}
}

// compare fails unless both runs agree on every observable.
func compare(t testing.TB, step int, ref, fast *scriptRun) {
	t.Helper()
	if a, b := ref.d.now(), fast.d.now(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("step %d: Now ref=%g fast=%g", step, a, b)
	}
	if a, b := ref.d.processed(), fast.d.processed(); a != b {
		t.Fatalf("step %d: Processed ref=%d fast=%d", step, a, b)
	}
	if a, b := ref.d.pending(), fast.d.pending(); a != b {
		t.Fatalf("step %d: Pending ref=%d fast=%d", step, a, b)
	}
	if a, b := ref.d.pendingWork(), fast.d.pendingWork(); a != b {
		t.Fatalf("step %d: PendingWork ref=%d fast=%d", step, a, b)
	}
	if ref.next != fast.next || ref.ids != fast.ids {
		t.Fatalf("step %d: tape cursor ref=(%d,%d) fast=(%d,%d)", step, ref.next, ref.ids, fast.next, fast.ids)
	}
	if len(ref.logIDs) != len(fast.logIDs) {
		t.Fatalf("step %d: log length ref=%d fast=%d", step, len(ref.logIDs), len(fast.logIDs))
	}
	for k := range ref.logIDs {
		if ref.logIDs[k] != fast.logIDs[k] || ref.logAts[k] != fast.logAts[k] {
			t.Fatalf("step %d: log[%d] ref=(%d,%x) fast=(%d,%x)", step, k,
				ref.logIDs[k], ref.logAts[k], fast.logIDs[k], fast.logAts[k])
		}
	}
	if len(ref.resched) != len(fast.resched) {
		t.Fatalf("step %d: reschedule count ref=%d fast=%d", step, len(ref.resched), len(fast.resched))
	}
	for k := range ref.resched {
		if ref.resched[k] != fast.resched[k] {
			t.Fatalf("step %d: reschedule %d ref=%v fast=%v", step, k, ref.resched[k], fast.resched[k])
		}
	}
}

// lockstep plays the tape on the oracle and the engine one operation at a
// time, then drains both the way Run does, comparing after every step. It
// returns both runs for coverage checks.
func lockstep(t testing.TB, ops []scriptOp) (ref, fast *scriptRun) {
	t.Helper()
	ref = &scriptRun{d: &oracleRunner{}, ops: ops}
	fast = &scriptRun{d: &engineRunner{e: NewEngine()}, ops: ops}
	step := 0
	for fast.next < len(ops) {
		ref.exec(false)
		fast.exec(false)
		step++
		compare(t, step, ref, fast)
	}
	for ref.d.pendingWork() > 0 {
		sa, sb := ref.d.step(), fast.d.step()
		if sa != sb {
			t.Fatalf("step %d: Step ref=%v fast=%v", step, sa, sb)
		}
		step++
		compare(t, step, ref, fast)
	}
	compare(t, step, ref, fast)
	return ref, fast
}

// TestDifferentialEngines locksteps the engine against the oracle over long
// randomized tapes (>= 10k operations per seed, >= 3 seeds).
func TestDifferentialEngines(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	size := 12000
	if testing.Short() {
		seeds = seeds[:3]
		size = 10000
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, fast := lockstep(t, genScript(seed, size))
			moved := 0
			for _, ok := range fast.resched {
				if ok {
					moved++
				}
			}
			if len(fast.logIDs) == 0 || moved == 0 || moved == len(fast.resched) {
				t.Fatalf("tape too tame: %d events ran, %d of %d reschedules moved an event",
					len(fast.logIDs), moved, len(fast.resched))
			}
			if fast.reused == 0 {
				t.Fatal("no stale handle ever named a recycled slot")
			}
		})
	}
}

// FuzzEngine decodes arbitrary bytes into a tape and locksteps the engine
// against the oracle on it.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 1, 4, 0, 0, 3, 0, 0, 2, 0, 1})
	f.Add([]byte{1, 3, 2, 0, 3, 3, 0, 0, 0, 3, 5, 1, 5, 60, 0, 0, 1, 2, 4, 0, 0, 3, 9, 4})
	seed := genScript(7, 200)
	raw := make([]byte, 0, 3*len(seed))
	for _, op := range seed {
		raw = append(raw, byte(op.kind), byte(op.delay*16), byte(op.target))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		lockstep(t, decodeScript(data))
	})
}
