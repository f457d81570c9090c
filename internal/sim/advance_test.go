package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// aheadRun drives one random program, built from the same RNG draws
// whether events may run their successor ahead (Advance) or always queue
// it, and logs what runs where, with the clock, the sequence counter and
// the pending count at every entry.
type aheadRun struct {
	e     *Engine
	ahead bool
	rng   *RNG
	log   []string
	// pool holds the events, chains and series members the steps queued,
	// for later cancels and unchains; successors are never in it, since
	// one run ahead has no Timer.
	pool   []Timer
	labels int
	// Floors, counted only in runs that advance.
	inline, toDeadline, refusedTie, refusedPast, refusedAtDeadline, refusedCancelled, refusedHop int
	// horizonWrong counts calls where Horizon foresaw Advance's answer
	// wrongly; it must stay 0.
	horizonWrong int
}

func (r *aheadRun) note(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...)+
		fmt.Sprintf("@%v seq%d pending%d", r.e.Now(), r.e.seq, r.e.Pending()))
}

// delay draws from a coarse grid, so that ties are common.
func (r *aheadRun) delay() time.Duration { return time.Duration(r.rng.Intn(4)) * time.Second }

// body is what event id does when it runs, dispatched or run ahead: it
// logs, takes zero to two steps, and may end by handing over to a
// successor, which it queues or, where it may, runs ahead to.
func (r *aheadRun) body(id int) {
	r.note("e%d", id)
	for k := r.rng.Intn(5) - 2; k > 0; k-- {
		r.step(r.rng.Intn(7))
	}
	if r.labels >= 120 || r.rng.Intn(4) == 0 {
		return
	}
	next := r.labels
	r.labels++
	// A successor is an event after hop, or a chain whose second stage
	// lasts then > 0 more, on a grid half as coarse as the steps' one.
	hop, then := r.delay()/2, time.Duration(0)
	if r.rng.Intn(2) == 0 {
		then = time.Duration(1+r.rng.Intn(2)) * time.Second / 2
	}
	try := r.rng.Intn(4) != 0
	if r.ahead && try {
		end, n := r.e.Now()+hop+then, uint64(1)
		if then > 0 {
			n = 2
		}
		limit := r.e.limit
		h, ok := r.e.Horizon()
		foreseen := ok && max(end, r.e.Now()) <= h
		if r.e.Advance(end, n) {
			if !foreseen {
				r.horizonWrong++
			}
			r.inline++
			if end == limit {
				r.toDeadline++
			}
			r.body(next)
			return
		}
		if foreseen {
			r.horizonWrong++
		}
		r.countRefusal(end, limit)
	}
	fn := func() { r.body(next) }
	if then > 0 {
		r.e.Chain(hop, then, fn)
	} else {
		r.e.Schedule(hop, fn)
	}
}

// countRefusal records why Advance refused to run ahead to end.
func (r *aheadRun) countRefusal(end, limit time.Duration) {
	if len(r.e.heap) > 0 && r.e.heap[0].at <= end {
		root := r.e.heap[0]
		switch r.e.slots[root.slot].state {
		case slotCancelled:
			r.refusedCancelled++
		case slotChained:
			r.refusedHop++
		default:
			if root.at == end {
				r.refusedTie++
			}
		}
		return
	}
	if end > limit {
		r.refusedPast++
	} else {
		r.refusedAtDeadline++
	}
}

func (r *aheadRun) step(kind int) {
	if kind < 4 && r.labels >= 120 {
		return
	}
	switch kind {
	case 0, 1:
		id := r.labels
		r.labels++
		r.pool = append(r.pool, r.e.Schedule(r.delay(), func() { r.body(id) }))
	case 2:
		id := r.labels
		r.labels++
		r.pool = append(r.pool, r.e.Chain(r.delay(), r.delay(), func() { r.body(id) }))
	case 3:
		// A series of up to three members at non-decreasing times.
		n := 1 + r.rng.Intn(3)
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = r.e.Now() + r.delay()
		}
		slices.Sort(at)
		id := r.labels
		r.labels += n
		r.e.AtEach(n, func(i int) time.Duration { return at[i] }, func(i int) { r.body(id + i) })
	case 4:
		if len(r.pool) == 0 {
			return
		}
		i := r.rng.Intn(len(r.pool))
		r.note("cancel%d:%v", i, r.pool[i].Cancel())
	case 5:
		if len(r.pool) == 0 {
			return
		}
		i := r.rng.Intn(len(r.pool))
		id := r.labels
		r.labels++
		r.note("unchain%d:%v", i, r.pool[i].Unchain(func() { r.body(id) }))
	}
}

// drive installs a few events at time zero, then advances the clock
// through a random mix of RunUntil and a StepUntil loop that stops once
// the clock reaches its deadline (as a cluster's run loop does), logging
// the clock, the pending count and the next event's time after each, and
// finally runs the queue dry.
func (r *aheadRun) drive() {
	for range 3 {
		r.step(r.rng.Intn(4))
	}
	for range 16 {
		dl := r.e.Now() + time.Duration(r.rng.Intn(4))*time.Second
		if r.rng.Intn(2) == 0 {
			r.e.RunUntil(dl)
			r.note("rununtil")
		} else {
			for r.e.Now() < dl {
				if !r.e.StepUntil(dl) {
					break
				}
			}
			r.note("loop")
		}
		next, ok := r.e.NextEventAt()
		r.note("next%v:%v", next, ok)
	}
	r.e.Run()
	r.note("run")
}

// TestAdvanceMatchesQueuedEvent runs random programs on a coarse time grid
// twice. In one run, some events run ahead to their successor with
// Advance; in the reference, every event queues its successor. Both must
// show the same firing order and the same clock, sequence counter and
// pending count at every event and after every RunUntil and StepUntil
// loop; so every later Seq matches too. The programs hold plain events,
// chains (cancelled before and after their hops, unchained), AtEach
// series and successors of one and two stages; deadlines land on
// successors' ends and between them. Floors make sure that Advance runs
// ahead onto a deadline and refuses for each of its reasons: a tie, an
// earlier cancelled entry, an earlier hop, an end past the deadline and a
// clock already at it. Before every call, Horizon must foresee its answer.
func TestAdvanceMatchesQueuedEvent(t *testing.T) {
	var floors aheadRun
	for trial := range 1500 {
		run := func(ahead bool) *aheadRun {
			r := &aheadRun{e: New(), ahead: ahead, rng: NewRNG(uint64(trial) + 1)}
			defer r.e.Release()
			r.drive()
			return r
		}
		want := run(false)
		got := run(true)
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("trial %d: running ahead\n %v\nqueueing\n %v", trial, got.log, want.log)
		}
		if got.horizonWrong > 0 {
			t.Fatalf("trial %d: Horizon foresaw %d of Advance's answers wrongly", trial, got.horizonWrong)
		}
		floors.inline += got.inline
		floors.toDeadline += got.toDeadline
		floors.refusedTie += got.refusedTie
		floors.refusedPast += got.refusedPast
		floors.refusedAtDeadline += got.refusedAtDeadline
		floors.refusedCancelled += got.refusedCancelled
		floors.refusedHop += got.refusedHop
	}
	t.Logf("%d run ahead (%d onto a deadline); refused for %d ties, %d cancelled entries, %d hops, %d ends past a deadline, %d clocks at one",
		floors.inline, floors.toDeadline, floors.refusedTie, floors.refusedCancelled, floors.refusedHop,
		floors.refusedPast, floors.refusedAtDeadline)
	if floors.inline < 2000 || floors.toDeadline < 100 || floors.refusedTie < 1000 || floors.refusedCancelled < 200 ||
		floors.refusedHop < 1000 || floors.refusedPast < 200 || floors.refusedAtDeadline < 100 {
		t.Fatal("too few cases exercised")
	}
}

// TestAdvanceOutsideDispatch checks that Advance refuses outside a
// dispatch, also on an engine released by a dispatch that panicked, and
// that it moves nothing when it refuses.
func TestAdvanceOutsideDispatch(t *testing.T) {
	e := New()
	if e.Advance(time.Second, 1) {
		t.Fatal("Advance ran ahead on a new engine")
	}
	e.Schedule(0, func() {})
	e.Run()
	if e.Advance(time.Second, 1) || e.Now() != 0 || e.seq != 1 {
		t.Fatalf("Advance after a dispatch: now %v, seq %d", e.Now(), e.seq)
	}
	e.Schedule(0, func() { panic("cell failed") })
	func() {
		defer func() { _ = recover() }()
		e.Run()
	}()
	e.Release()
	e = New()
	defer e.Release()
	if e.Advance(time.Second, 1) {
		t.Fatal("Advance ran ahead on an engine released mid-dispatch")
	}
	var ran bool
	e.Schedule(time.Second, func() {
		ran = e.Advance(3*time.Second, 2)
	})
	e.Run()
	if !ran || e.Now() != 3*time.Second || e.seq != 3 || e.Fired() != 1 {
		t.Fatalf("Advance in a dispatch: ran %v, now %v, seq %d, fired %d", ran, e.Now(), e.seq, e.Fired())
	}
}

// TestHorizon checks Horizon's bound at the edges: none outside a
// dispatch or with an entry due now, the deadline with nothing queued
// before it, and the instant before the root otherwise.
func TestHorizon(t *testing.T) {
	e := New()
	defer e.Release()
	if _, ok := e.Horizon(); ok {
		t.Fatal("Horizon reported a bound outside a dispatch")
	}
	type seen struct {
		h  time.Duration
		ok bool
	}
	var got []seen
	look := func() {
		h, ok := e.Horizon()
		got = append(got, seen{h, ok})
	}
	e.Schedule(time.Second, look)
	e.Schedule(3*time.Second, look)
	e.Schedule(3*time.Second, look)
	e.RunUntil(2 * time.Second)
	e.RunUntil(5 * time.Second)
	e.Schedule(0, look)
	e.Run()
	want := []seen{{2 * time.Second, true}, {0, false}, {5 * time.Second, true}, {math.MaxInt64, true}}
	if !slices.Equal(got, want) {
		t.Fatalf("Horizon read %v, want %v", got, want)
	}
}
