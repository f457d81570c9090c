package sim

import (
	"testing"
	"time"
)

// benchEngine returns an engine holding 64 far-off events, so that every
// push and sift walks a heap of realistic depth.
func benchEngine() *Engine {
	e := New()
	for i := range 64 {
		e.Schedule(time.Hour+time.Duration(i)*time.Millisecond, func() {})
	}
	return e
}

// BenchmarkScheduleStep queues one plain event and dispatches it: the cost
// of each of the two events an op of latency and compute takes on a
// kernel past its core count.
func BenchmarkScheduleStep(b *testing.B) {
	e := benchEngine()
	defer e.Release()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		e.Schedule(time.Duration(i%7)*time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkChainStep queues one chain and steps it: the hop re-keys the
// entry in place, then the second stage is dispatched.
func BenchmarkChainStep(b *testing.B) {
	e := benchEngine()
	defer e.Release()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		e.Chain(time.Duration(i%7)*time.Microsecond, time.Duration(i%5)*time.Microsecond, fn)
		e.Step()
	}
}

// BenchmarkAdvance runs one event ahead inside a dispatch: the cost that
// replaces queueing and dispatching an op's event (BenchmarkScheduleStep,
// BenchmarkChainStep) while nothing else is due before the op ends.
func BenchmarkAdvance(b *testing.B) {
	e := benchEngine()
	defer e.Release()
	b.ReportAllocs()
	e.Schedule(0, func() {
		b.ResetTimer()
		for i := range b.N {
			if !e.Advance(e.Now()+time.Duration(i%7), 2) {
				b.Fatal("Advance refused")
			}
		}
	})
	e.Step()
}
