package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: among events scheduled at one and the same timestamp, the
// survivors of any interleaved cancellation pattern still fire in schedule
// (FIFO) order. It must hold on the engine and on the oracle alike.
func TestFIFOPreservedUnderInterleavedCancel(t *testing.T) {
	for name, mk := range runners() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 200; trial++ {
				d := mk()
				const n = 60
				var fired []int
				cancelled := make([]bool, n)
				for i := 0; i < n; i++ {
					i := i
					d.schedule(i, 2.5, false, func() { fired = append(fired, i) })
					// Interleave: cancel a random earlier (or this very)
					// event between schedules.
					if rng.Intn(2) == 0 {
						k := rng.Intn(i + 1)
						d.cancel(k)
						cancelled[k] = true
					}
				}
				d.run()
				want := 0
				for _, c := range cancelled {
					if !c {
						want++
					}
				}
				if len(fired) != want {
					t.Fatalf("trial %d: %d callbacks fired, want %d", trial, len(fired), want)
				}
				prev := -1
				for _, id := range fired {
					if cancelled[id] {
						t.Fatalf("trial %d: cancelled event %d fired", trial, id)
					}
					if id <= prev {
						t.Fatalf("trial %d: FIFO order violated: %v", trial, fired)
					}
					prev = id
				}
			}
		})
	}
}

// Property: Pending and PendingWork stay exact under cancellation with
// daemons in the mix, and Run still stops once only daemons remain.
func TestPendingWorkWithDaemonsUnderLazyCancel(t *testing.T) {
	for name, mk := range runners() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 100; trial++ {
				d := mk()
				const n = 80
				daemon := make([]bool, n)
				cancelled := make([]bool, n)
				liveWork, live := 0, 0
				for i := 0; i < n; i++ {
					daemon[i] = rng.Intn(3) == 0
					d.schedule(i, Time(rng.Intn(50)), daemon[i], func() {})
					if !daemon[i] {
						liveWork++
					}
					live++
					if rng.Intn(3) == 0 {
						k := rng.Intn(i + 1)
						if !cancelled[k] {
							cancelled[k] = true
							if !daemon[k] {
								liveWork--
							}
							live--
						}
						d.cancel(k)
					}
					if got := d.pendingWork(); got != liveWork {
						t.Fatalf("trial %d: PendingWork = %d, want %d", trial, got, liveWork)
					}
					if got := d.pending(); got != live {
						t.Fatalf("trial %d: Pending = %d, want %d", trial, got, live)
					}
				}
				d.run()
				if d.pendingWork() != 0 {
					t.Fatalf("trial %d: PendingWork = %d after Run", trial, d.pendingWork())
				}
				// Every non-cancelled work event must have run; Run may leave
				// daemons queued but executes no further work.
				want := uint64(0)
				for i := range cancelled {
					if !cancelled[i] && !daemon[i] {
						want++
					}
				}
				// Daemons scheduled before the last work event also run, so
				// Processed >= want.
				if d.processed() < want {
					t.Fatalf("trial %d: Processed = %d < %d live work events", trial, d.processed(), want)
				}
			}
		})
	}
}

// Property: for any random schedule with random cancellations and
// reschedules, the engine and the oracle execute the same number of events
// and end at the same clock.
func TestProcessedEquivalenceAcrossFronts(t *testing.T) {
	f := func(raw []uint16, mask []uint8) bool {
		ref, fast := runners()["reference"](), runners()["fast"]()
		for i, r := range raw {
			at := Time(r) / 32.0
			ref.schedule(i, at, false, func() {})
			fast.schedule(i, at, false, func() {})
			if i >= len(mask) {
				continue
			}
			// Cancel or move a deterministic earlier event on both.
			k := int(r) % (i + 1)
			switch mask[i] % 3 {
			case 1:
				ref.cancel(k)
				fast.cancel(k)
			case 2:
				at := Time(mask[i]) / 8.0
				if ref.reschedule(k, at) != fast.reschedule(k, at) {
					return false
				}
			}
		}
		ref.run()
		fast.run()
		return ref.processed() == fast.processed() &&
			ref.now() == fast.now() &&
			ref.pending() == fast.pending()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A cancel storm — schedule many, cancel almost all — must leave the
// survivors firing in (time, FIFO) order with exact counters, and must
// actually shrink the queue (cancellation is eager: no dead entries).
func TestCancelStorm(t *testing.T) {
	e := NewEngine()
	const n = 20000
	var events []Event
	var fired []int
	ats := make([]Time, n)
	for i := 0; i < n; i++ {
		i := i
		ats[i] = Time(i%97) + Time(i)/1e6
		events = append(events, e.Schedule(ats[i], func() { fired = append(fired, i) }))
	}
	for i, ev := range events {
		if i%500 != 0 {
			e.Cancel(ev)
		}
	}
	if got, want := e.Pending(), n/500; got != want {
		t.Fatalf("Pending = %d after storm, want %d", got, want)
	}
	if got, want := e.QueueStats(), (QueueStats{Live: n / 500, Cancelled: n - n/500}); got != want {
		t.Fatalf("QueueStats = %+v after storm, want %+v", got, want)
	}
	e.Run()
	if len(fired) != n/500 {
		t.Fatalf("%d survivors fired, want %d", len(fired), n/500)
	}
	for i := 1; i < len(fired); i++ {
		a, b := ats[fired[i-1]], ats[fired[i]]
		if b < a || (b == a && fired[i] < fired[i-1]) {
			t.Fatalf("survivors out of order: %d then %d", fired[i-1], fired[i])
		}
	}
	if e.Pending() != 0 || e.PendingWork() != 0 {
		t.Fatalf("Pending=%d PendingWork=%d after drain", e.Pending(), e.PendingWork())
	}
}
