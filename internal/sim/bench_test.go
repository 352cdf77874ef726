package sim

import (
	"testing"
)

// lcg is a tiny deterministic generator; math/rand's overhead would drown
// the queue operations being measured.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

// BenchmarkEngineScheduleStep is the steady-state event loop: one Schedule
// and one Step per iteration against a standing window of pending events.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	r := lcg(1)
	nop := func() {}
	const window = 1024
	for i := 0; i < window; i++ {
		e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(r.next()%(1<<20))/1e3, nop)
		if !e.Step() {
			b.Fatal("engine drained")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineReschedule is netsim's reallocation pattern: move every
// pending completion of a block of 64 to a new time, then process one. The
// event that just ran has a stale handle and is scheduled anew.
func BenchmarkEngineReschedule(b *testing.B) {
	const block = 64
	e := NewEngine()
	r := lcg(2)
	nop := func() {}
	events := make([]Event, block)
	for i := range events {
		events[i] = e.Schedule(Time(r.next()%(1<<20))/1e3, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			at := e.Now() + Time(r.next()%(1<<20))/1e3
			if !e.Reschedule(events[j], at) {
				events[j] = e.Schedule(at, nop)
			}
		}
		if !e.Step() {
			b.Fatal("engine drained")
		}
	}
	b.StopTimer()
	// Each iteration moves the whole block and pops one event.
	b.ReportMetric(float64(b.N)*(block+1)/b.Elapsed().Seconds(), "ops/s")
}
