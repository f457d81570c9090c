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
