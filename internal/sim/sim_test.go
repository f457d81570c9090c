package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunAdvancesClock(t *testing.T) {
	e := New()
	var fired []time.Duration
	e.Schedule(10*time.Second, func() { fired = append(fired, e.Now()) })
	e.Schedule(5*time.Second, func() { fired = append(fired, e.Now()) })
	e.Schedule(20*time.Second, func() { fired = append(fired, e.Now()) })
	e.Run()
	want := []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
	if e.Now() != 20*time.Second {
		t.Errorf("final Now() = %v, want 20s", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO within a timestamp)", i, v, i)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func() {
		fired := false
		e.Schedule(-5*time.Second, func() {
			fired = true
			if e.Now() != time.Second {
				t.Errorf("clamped event fired at %v, want 1s", e.Now())
			}
		})
		_ = fired
	})
	e.Run()
	if e.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", e.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before cancel")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if tm.Pending() {
		t.Fatal("timer should not be pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	e := New()
	tm := e.Schedule(time.Second, func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestCancelZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Cancel() {
		t.Fatal("Cancel on zero timer should report false")
	}
	if tm.Pending() {
		t.Fatal("zero timer should not be pending")
	}
}

// Pending must report only live events: cancelled-but-unpopped entries do
// not count (regression: it used to report the raw queue length).
func TestPendingExcludesCancelled(t *testing.T) {
	e := New()
	a := e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	a.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending() after cancel = %d, want 1 (cancelled event still queued)", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() after run = %d, want 0", e.Pending())
	}
}

// A stale Timer whose slot has been recycled for a newer event must not
// cancel the newer event.
func TestStaleTimerDoesNotCancelRecycledSlot(t *testing.T) {
	e := New()
	old := e.Schedule(time.Second, func() {})
	e.Run() // fires and releases the slot
	fired := false
	fresh := e.Schedule(time.Second, func() { fired = true })
	if old.Cancel() {
		t.Fatal("stale timer Cancel should report false")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer should still be pending")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled-slot event should have fired")
	}
}

// The hot path must not allocate per event: slots and heap entries are
// recycled across schedule/dispatch cycles.
func TestScheduleStepDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm up the arena and heap capacity.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	})
	if avg > 0.01 {
		t.Fatalf("Schedule+Step allocates %.3f objects/op, want 0", avg)
	}
	// A chain hops and completes in one Step; an unchained one fires at
	// its hop.
	avg = testing.AllocsPerRun(1000, func() {
		e.Chain(time.Millisecond, time.Millisecond, fn)
		e.Step()
		e.Chain(time.Millisecond, time.Millisecond, fn).Unchain(fn)
		e.Step()
	})
	if avg > 0.01 {
		t.Fatalf("Chain+hop+Step and Unchain+Step allocate %.3f objects/op, want 0", avg)
	}
	// An event that runs ahead twice.
	ahead := func() {
		for range 2 {
			if !e.Advance(e.Now()+time.Millisecond, 2) {
				t.Fatal("Advance refused with nothing queued")
			}
		}
	}
	avg = testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, ahead)
		e.Step()
	})
	if avg > 0.01 {
		t.Fatalf("Schedule+Step+Advance allocates %.3f objects/op, want 0", avg)
	}
}

func TestEventsScheduledDuringRunAreDispatched(t *testing.T) {
	e := New()
	var hits int
	var recurse func()
	recurse = func() {
		hits++
		if hits < 5 {
			e.Schedule(time.Second, recurse)
		}
	}
	e.Schedule(time.Second, recurse)
	e.Run()
	if hits != 5 {
		t.Fatalf("hits = %d, want 5", hits)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("after Run fired %d events, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := New()
	e.RunUntil(42 * time.Second)
	if e.Now() != 42*time.Second {
		t.Fatalf("Now() = %v, want 42s", e.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := New()
	e.RunUntil(10 * time.Second)
	e.RunFor(5 * time.Second)
	if e.Now() != 15*time.Second {
		t.Fatalf("Now() = %v, want 15s", e.Now())
	}
}

func TestNextEventAt(t *testing.T) {
	e := New()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty queue should report false")
	}
	tm := e.Schedule(7*time.Second, func() {})
	e.Schedule(9*time.Second, func() {})
	if at, ok := e.NextEventAt(); !ok || at != 7*time.Second {
		t.Fatalf("NextEventAt = %v, %v; want 7s, true", at, ok)
	}
	tm.Cancel()
	if at, ok := e.NextEventAt(); !ok || at != 9*time.Second {
		t.Fatalf("NextEventAt after cancel = %v, %v; want 9s, true", at, ok)
	}
}

func TestAtClampsPastTimes(t *testing.T) {
	e := New()
	e.RunUntil(10 * time.Second)
	fired := time.Duration(-1)
	e.At(5*time.Second, func() { fired = e.Now() })
	e.Run()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamp to 10s", fired)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty engine should report false")
	}
}

func TestTimerWhen(t *testing.T) {
	e := New()
	tm := e.Schedule(3*time.Second, func() {})
	if tm.When() != 3*time.Second {
		t.Fatalf("When() = %v, want 3s", tm.When())
	}
}

// Property: regardless of the order in which delays are scheduled, events
// fire in non-decreasing timestamp order and the engine dispatches exactly
// the non-cancelled ones.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		e := New()
		var firedAt []time.Duration
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			dur := time.Duration(d) * time.Millisecond
			timers[i] = e.Schedule(dur, func() {
				firedAt = append(firedAt, e.Now())
			})
		}
		cancelled := 0
		for i, tm := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				if tm.Cancel() {
					cancelled++
				}
			}
		}
		e.Run()
		if len(firedAt) != len(delays)-cancelled {
			return false
		}
		for i := 1; i < len(firedAt); i++ {
			if firedAt[i] < firedAt[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAtEachMatchesAtCalls installs a series of members once through n
// At calls and once through AtEach, on two engines driven through the
// same script, and compares the order in which everything fires. Times
// come from a few instants, so members tie with each other, with
// events scheduled before and after the install, and with events a
// member schedules at its own instant or later. The install happens
// after the clock has advanced, so some members lie in the past and
// are clamped. n = 0 and n = 1 are covered.
func TestAtEachMatchesAtCalls(t *testing.T) {
	rng := NewRNG(17)
	var members int
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 2}[trial%3]
		if trial >= 30 {
			n = rng.Intn(24)
		}
		members += n
		instant := func() time.Duration { return time.Duration(rng.Intn(6)) * time.Second }
		before := make([]time.Duration, rng.Intn(8))
		for i := range before {
			before[i] = instant()
		}
		installAt := time.Duration(rng.Intn(3)) * time.Second
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = instant()
		}
		slices.Sort(at)
		// follow[i] is what member i schedules: -1 nothing, else a delay.
		follow := make([]time.Duration, n)
		for i := range follow {
			follow[i] = []time.Duration{-1, 0, time.Second}[rng.Intn(3)]
		}
		after := make([]time.Duration, rng.Intn(8))
		for i := range after {
			after[i] = instant()
		}

		run := func(each bool) ([]string, uint64) {
			eng := New()
			defer eng.Release()
			var log []string
			note := func(format string, args ...any) func() {
				label := fmt.Sprintf(format, args...)
				return func() { log = append(log, fmt.Sprintf("%s@%v", label, eng.Now())) }
			}
			for i, tm := range before {
				eng.At(tm, note("before%d", i))
			}
			eng.RunUntil(installAt)
			member := func(i int) {
				note("member%d", i)()
				if follow[i] >= 0 {
					eng.Schedule(follow[i], note("follow%d", i))
				}
			}
			if each {
				eng.AtEach(n, func(i int) time.Duration { return at[i] }, member)
			} else {
				for i := range at {
					eng.At(at[i], func() { member(i) })
				}
			}
			for i, tm := range after {
				eng.At(tm, note("after%d", i))
			}
			eng.Run()
			return log, eng.Fired()
		}
		want, wantFired := run(false)
		got, gotFired := run(true)
		if !slices.Equal(got, want) || gotFired != wantFired {
			t.Fatalf("trial %d (n=%d, install at %v, times %v): AtEach fired %d events\n %v\nn At calls fired %d\n %v",
				trial, n, installAt, at, gotFired, got, wantFired, want)
		}
	}
	if members < 2000 {
		t.Fatalf("only %d members exercised", members)
	}
}

// TestAtEachQueuesOneMember checks that a series holds one heap entry
// and one Pending count however long it is, and that a member whose time
// precedes the one before it panics.
func TestAtEachQueuesOneMember(t *testing.T) {
	eng := New()
	fired := 0
	eng.AtEach(1000, func(i int) time.Duration { return time.Duration(i) * time.Millisecond }, func(int) {
		fired++
		if len(eng.heap) != 1 && fired < 1000 {
			t.Fatalf("member %d: heap holds %d entries, want 1", fired-1, len(eng.heap))
		}
	})
	if eng.Pending() != 1 || len(eng.heap) != 1 {
		t.Fatalf("after install: Pending %d, heap %d; want 1 and 1", eng.Pending(), len(eng.heap))
	}
	eng.Run()
	if fired != 1000 || eng.Pending() != 0 {
		t.Fatalf("fired %d members, %d pending; want 1000 and 0", fired, eng.Pending())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("AtEach with decreasing times should panic")
		}
	}()
	eng.AtEach(2, func(i int) time.Duration { return time.Duration(2-i) * time.Hour }, func(int) {})
	eng.Run()
}

// chainRun drives one random program, built from the same RNG draws
// whether chains are real (Chain) or stand-ins (the nested Schedule a
// chain replaces), and logs what fires where.
type chainRun struct {
	e       *Engine
	chained bool
	rng     *RNG
	log     []string
	chains  []*chainRef
	labels  int
	// Floors, counted only in chained runs.
	hopAtDeadline, cancelBefore, cancelAfter, unchainBefore int
}

// chainRef is one chain of the program. With real chains tm is the chain's
// Timer; with the nested stand-in it is the current stage's Timer, and
// unchain, once set, is what the hop event runs instead of queueing the
// second stage.
type chainRef struct {
	tm        Timer
	hopped    bool
	unchained bool
	unchain   func()
}

func (r *chainRun) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...)+fmt.Sprintf("@%v", r.e.Now()))
}

// delay draws from a coarse grid, so that ties are common.
func (r *chainRun) delay() time.Duration { return time.Duration(r.rng.Intn(4)) * time.Second }

// act is what every event does when it fires: zero to two steps, each a
// new event, a new chain, a cancel or an unchain of a chain made earlier.
func (r *chainRun) act() {
	for k := r.rng.Intn(3); k > 0; k-- {
		r.step(r.rng.Intn(6))
	}
}

func (r *chainRun) step(kind int) {
	if kind < 4 && r.labels >= 80 {
		return
	}
	switch kind {
	case 0, 1:
		id := r.labels
		r.labels++
		r.e.Schedule(r.delay(), func() { r.note("p%d", id); r.act() })
	case 2, 3:
		id := r.labels
		r.labels++
		hop, then := r.delay(), r.delay()
		ref := &chainRef{}
		r.chains = append(r.chains, ref)
		done := func() { r.note("c%d", id); r.act() }
		if r.chained {
			ref.tm = r.e.Chain(hop, then, done)
			return
		}
		ref.tm = r.e.Schedule(hop, func() {
			if ref.unchain != nil {
				ref.unchain()
				return
			}
			ref.hopped = true
			ref.tm = r.e.Schedule(then, done)
		})
	case 4:
		if len(r.chains) == 0 {
			return
		}
		i := r.rng.Intn(len(r.chains))
		ref := r.chains[i]
		if r.chained && !ref.unchained && ref.tm.Pending() {
			if r.e.slots[ref.tm.slot].state == slotChained {
				r.cancelBefore++
			} else {
				r.cancelAfter++
			}
		}
		r.note("cancel%d:%v", i, ref.tm.Cancel())
	case 5:
		if len(r.chains) == 0 {
			return
		}
		i := r.rng.Intn(len(r.chains))
		ref := r.chains[i]
		fn := func() { r.note("u%d", i); r.act() }
		var ok bool
		if r.chained {
			ok = ref.tm.Unchain(fn)
			if ok {
				r.unchainBefore++
			}
		} else if ok = ref.tm.Pending() && !ref.hopped && ref.unchain == nil; ok {
			ref.unchain = fn
		}
		ref.unchained = ref.unchained || ok
		r.note("unchain%d:%v", i, ok)
	}
}

// hopsAt counts chains that have not hopped and hop at t.
func (r *chainRun) hopsAt(t time.Duration) int {
	n := 0
	for _, he := range r.e.heap {
		if r.e.slots[he.slot].state == slotChained && he.at == t {
			n++
		}
	}
	return n
}

// drive installs a few events and chains at time zero, then advances the
// clock through a random mix of RunUntil, a StepUntil loop that stops once
// the clock reaches its deadline (as a cluster's run loop does), and
// single steps up to the next logged event, logging the clock, the
// pending count and the next event's time after each.
func (r *chainRun) drive() {
	for range 6 {
		r.step(r.rng.Intn(4))
	}
	for range 16 {
		dl := r.e.Now() + time.Duration(r.rng.Intn(3))*time.Second
		switch r.rng.Intn(3) {
		case 0:
			if r.chained {
				r.hopAtDeadline += r.hopsAt(dl)
			}
			r.e.RunUntil(dl)
			r.note("rununtil")
		case 1:
			if r.chained {
				r.hopAtDeadline += r.hopsAt(dl)
			}
			for r.e.Now() < dl {
				if !r.e.StepUntil(dl) {
					break
				}
			}
			r.note("loop")
		case 2:
			n := len(r.log)
			for len(r.log) == n && r.e.Step() {
			}
			r.note("step")
		}
		next, ok := r.e.NextEventAt()
		r.note("pending%d next%v:%v", r.e.Pending(), next, ok)
	}
	r.e.Run()
	r.note("run")
}

// TestChainMatchesNestedSchedule runs random programs on a coarse time
// grid twice, once with Chain and once with the nested Schedule it
// stands for, and requires the same firing order, the same clock after
// every RunUntil, StepUntil loop and step, and the same cancel and
// unchain results. Events tie
// with chains' hops and completions all the time; chains are cancelled
// before and after their hops and unchained before them; RunUntil and
// StepUntil deadlines land on hop times.
func TestChainMatchesNestedSchedule(t *testing.T) {
	var floors chainRun
	for trial := range 400 {
		run := func(chained bool) *chainRun {
			r := &chainRun{e: New(), chained: chained, rng: NewRNG(uint64(trial) + 1)}
			defer r.e.Release()
			r.drive()
			return r
		}
		want := run(false)
		got := run(true)
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("trial %d: chained run\n %v\nnested Schedule\n %v", trial, got.log, want.log)
		}
		floors.hopAtDeadline += got.hopAtDeadline
		floors.cancelBefore += got.cancelBefore
		floors.cancelAfter += got.cancelAfter
		floors.unchainBefore += got.unchainBefore
	}
	t.Logf("%d hops at a deadline, %d cancels before and %d after a hop, %d unchains",
		floors.hopAtDeadline, floors.cancelBefore, floors.cancelAfter, floors.unchainBefore)
	if floors.hopAtDeadline < 100 || floors.cancelBefore < 100 || floors.cancelAfter < 100 || floors.unchainBefore < 100 {
		t.Fatalf("too few cases exercised: %d hops at a deadline, %d cancels before and %d after a hop, %d unchains",
			floors.hopAtDeadline, floors.cancelBefore, floors.cancelAfter, floors.unchainBefore)
	}
}

// TestChainTimer checks what a chain's Timer reports in each stage.
func TestChainTimer(t *testing.T) {
	e := New()
	fired := 0
	tm := e.Chain(2*time.Second, 3*time.Second, func() { fired++ })
	if !tm.Pending() || tm.When() != 2*time.Second || e.Pending() != 1 {
		t.Fatalf("before the hop: pending %v, when %v, engine pending %d", tm.Pending(), tm.When(), e.Pending())
	}
	e.Schedule(4*time.Second, func() {
		if !tm.Pending() || tm.When() != 5*time.Second || tm.Unchain(func() {}) {
			t.Errorf("after the hop: pending %v, when %v", tm.Pending(), tm.When())
		}
	})
	e.Run()
	if fired != 1 || e.Fired() != 2 || e.Now() != 5*time.Second {
		t.Fatalf("fired %d, dispatched %d, now %v; want 1, 2 and 5s", fired, e.Fired(), e.Now())
	}
	if tm.Pending() || tm.Unchain(func() {}) {
		t.Fatal("a finished chain is still pending or unchains")
	}
	// A negative delay in either stage is clamped to zero.
	e.Chain(-time.Second, -time.Second, func() { fired++ })
	e.Run()
	if fired != 2 || e.Now() != 5*time.Second {
		t.Fatalf("clamped chain: fired %d, now %v", fired, e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical values across different seeds", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Uniform(5,8) = %v out of range", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("exponential mean = %v, want ~1.0", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(9)
	child := parent.Fork()
	// The child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork mirrors parent: %d/100 identical", same)
	}
}

func TestRNGStreamReproducible(t *testing.T) {
	a := NewRNG(9).Stream("cell-1")
	b := NewRNG(9).Stream("cell-1")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same label diverged at draw %d", i)
		}
	}
}

func TestRNGStreamDoesNotAdvanceParent(t *testing.T) {
	plain := NewRNG(9)
	tapped := NewRNG(9)
	tapped.Stream("x")
	tapped.Stream("y")
	for i := 0; i < 10; i++ {
		if plain.Uint64() != tapped.Uint64() {
			t.Fatalf("Stream perturbed the parent at draw %d", i)
		}
	}
}

func TestRNGStreamOrderIndependent(t *testing.T) {
	// Substreams depend only on (state, label), not on the order or
	// number of other Stream calls — the property that makes parallel
	// sweep execution reproducible.
	p1 := NewRNG(9)
	p2 := NewRNG(9)
	p2.Stream("other")
	p2.Stream("another")
	if p1.Stream("cell").Uint64() != p2.Stream("cell").Uint64() {
		t.Fatal("substream depends on sibling Stream calls")
	}
}

func TestRNGStreamLabelsDecorrelated(t *testing.T) {
	parent := NewRNG(9)
	a := parent.Stream("a")
	b := parent.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("labels a/b correlated: %d/100 identical", same)
	}
}
