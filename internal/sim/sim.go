// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher-level substrates (disk, memory manager, OS processes, HDFS,
// MapReduce engine) are built as event-driven state machines on top of this
// kernel. Virtual time is represented as time.Duration offsets from the
// start of the simulation; two events scheduled for the same instant fire
// in scheduling order, which makes every run fully reproducible.
//
// The kernel is allocation-free on the hot path: events live in a reusable
// slot arena indexed by a value heap, and Timer handles are plain values
// carrying a (slot, generation) pair, so Schedule/At never heap-allocate
// per call. Generation counters make a stale Timer (one whose event fired
// or whose slot was recycled) safely inert.
//
// A chain (Chain) is an event whose first stage only waits: at its hop the
// engine moves the clock and re-queues the same heap entry for the second
// stage, exactly where a nested Schedule would have queued it. A hop is not
// a dispatch: it runs no function and Fired does not count it.
//
// A dispatched event may also run ahead (Advance): when the event it would
// queue next is due before everything already queued and within the
// deadline of the Step doing the dispatch, it moves the clock there and
// runs that event's code itself. So one Step may run the code of several
// events; a loop that steps until the queue empties or the clock reaches
// its deadline still stops where it would have stopped. Horizon reports
// how far ahead Advance would go, for a caller that runs several events'
// code at once.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// slot lifecycle states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
	// slotChained is a chain that has not hopped yet.
	slotChained
)

// eventSlot is one arena entry. Slots are recycled: gen increments every
// time a slot is released, invalidating Timers issued for earlier uses.
type eventSlot struct {
	fn func()
	at time.Duration
	// then is a chain's second-stage delay, read at its hop.
	then time.Duration
	// seq is the sequence number the event is queued under.
	seq   uint64
	gen   uint32
	state uint8
}

// heapEntry is a value-typed heap element ordered by (at, seq). Keeping
// the ordering key inline avoids chasing the slot arena during sifts.
type heapEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now  time.Duration
	seq  uint64
	heap []heapEntry
	// slots is the event arena; freeSlots indexes released entries.
	slots     []eventSlot
	freeSlots []int32
	// live counts scheduled events that are neither fired nor cancelled.
	live int
	// fired counts events that have been dispatched, for diagnostics.
	fired uint64
	// limit is the deadline of the StepUntil call dispatching an event,
	// and math.MinInt64 outside a dispatch, so that Advance refuses there.
	limit time.Duration
}

// enginePool recycles Engine shells released with Release, so a sweep cell
// that tears down and rebuilds its cluster per repetition reuses the slot
// arena and heap storage instead of regrowing them.
var enginePool = sync.Pool{New: func() any { return &Engine{} }}

// New returns an empty simulation engine positioned at virtual time zero.
func New() *Engine {
	e := enginePool.Get().(*Engine)
	// Hand out recycled slots in ascending index order, exactly as a fresh
	// engine would grow its arena.
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.freeSlots = append(e.freeSlots, int32(i))
	}
	e.limit = math.MinInt64
	return e
}

// Release returns the engine's event storage to a shared arena for reuse by
// a future New. Outstanding Timers become inert; the caller must drop every
// reference to the engine (and anything scheduled on it) afterwards.
func (e *Engine) Release() {
	for i := range e.slots {
		s := &e.slots[i]
		s.fn = nil
		s.state = slotFree
		s.gen++
	}
	e.heap = e.heap[:0]
	e.freeSlots = e.freeSlots[:0]
	e.now, e.seq = 0, 0
	e.live, e.fired = 0, 0
	// A dispatch that panicked never reset the limit.
	e.limit = math.MinInt64
	enginePool.Put(e)
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending reports the number of events currently scheduled, excluding
// cancelled events that have not yet been removed from the queue. Of an
// AtEach series it counts only the member queued next, not the members
// after it.
func (e *Engine) Pending() int { return e.live }

// Fired reports the number of events dispatched so far. A chain's hop is
// not a dispatch, so a chain that runs to completion counts once; an event
// run ahead with Advance is not one either, and counts nothing.
func (e *Engine) Fired() uint64 { return e.fired }

// Timer is a handle to a scheduled event. It can be used to cancel the
// event before it fires. The zero Timer is valid and refers to no event:
// Cancel and Pending on it report false.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// valid reports whether the timer still refers to its original pending
// event (the slot has not been recycled for a newer one). A chain is
// pending in either stage.
func (t Timer) valid() (*eventSlot, bool) {
	if t.eng == nil || int(t.slot) >= len(t.eng.slots) {
		return nil, false
	}
	s := &t.eng.slots[t.slot]
	if s.gen != t.gen || (s.state != slotPending && s.state != slotChained) {
		return nil, false
	}
	return s, true
}

// Cancel prevents the event from firing. It reports whether the event was
// still pending (a second Cancel, or cancelling an already-fired event,
// returns false). Cancel on the zero Timer is a no-op returning false.
func (t Timer) Cancel() bool {
	s, ok := t.valid()
	if !ok {
		return false
	}
	s.state = slotCancelled
	s.fn = nil
	t.eng.live--
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	_, ok := t.valid()
	return ok
}

// When reports the virtual time at which the timer fires (meaningful only
// while Pending). For a chain that has not hopped yet it is the hop's time.
func (t Timer) When() time.Duration {
	s, ok := t.valid()
	if !ok {
		return 0
	}
	return s.at
}

// Seq reports the sequence number the timer's event is queued under
// (meaningful only while Pending): of two events due at the same instant,
// the one with the smaller number fires first. A chain takes a new number
// at its hop, the one its second stage would have been scheduled with.
func (t Timer) Seq() uint64 {
	s, ok := t.valid()
	if !ok {
		return 0
	}
	return s.seq
}

// Unchain turns a chain that has not hopped yet into an ordinary event that
// calls fn at the hop, keeping its place in the queue. It reports whether
// the timer was such a chain; after the hop, or on any other timer, it does
// nothing and reports false.
func (t Timer) Unchain(fn func()) bool {
	s, ok := t.valid()
	if !ok || s.state != slotChained {
		return false
	}
	if fn == nil {
		panic("sim: Unchain called with nil function")
	}
	s.fn = fn
	s.state = slotPending
	return true
}

// Schedule arranges for fn to run after delay. Negative delays are clamped
// to zero (the event fires at the current time, after already-queued events
// for that time).
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute virtual time t. Times in the past
// are clamped to the current time.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if t < e.now {
		t = e.now
	}
	tm := e.queue(t, e.seq, fn)
	e.seq++
	return tm
}

// Chain arranges for fn to run then after a hop that falls hop from now,
// exactly where Schedule(hop, func() { Schedule(then, fn) }) would run it,
// ties with other events included, but without dispatching the hop. The chain waits
// in the queue under the key the hop event would have. At the hop the
// engine sets the clock to the hop's time and re-queues the same entry at
// hop + then, under the sequence number the nested Schedule would have
// taken. Negative delays are clamped to zero. The returned Timer follows
// the chain: Cancel before the hop cancels both stages, after it the
// second; Unchain turns it back into an event at the hop.
func (e *Engine) Chain(hop, then time.Duration, fn func()) Timer {
	tm := e.Schedule(hop, fn)
	s := &e.slots[tm.slot]
	s.then = max(then, 0)
	s.state = slotChained
	return tm
}

// AtEach arranges for fn(i) to run at absolute time at(i), for each i in
// [0, n). Times must not decrease with i; those in the past are clamped
// to the current time. Each member fires exactly where n At calls made
// now would fire it, ties with other events included: AtEach reserves n
// consecutive sequence numbers, and the heap orders events by (time,
// sequence). Only the next member waits in the queue, with its reserved
// number; when member i fires it queues member i+1, so a long series of
// arrivals costs the heap one entry and the caller one closure.
func (e *Engine) AtEach(n int, at func(i int) time.Duration, fn func(i int)) {
	if n <= 0 {
		return
	}
	if at == nil || fn == nil {
		panic("sim: AtEach called with nil function")
	}
	base, from := e.seq, e.now
	e.seq += uint64(n)
	next := 0
	var fire func()
	fire = func() {
		i := next
		next++
		if next < n {
			t := max(at(next), from)
			if t < e.now {
				panic(fmt.Sprintf("sim: AtEach member %d at %v precedes member %d at %v", next, t, i, e.now))
			}
			e.queue(t, base+uint64(next), fire)
		}
		fn(i)
	}
	e.queue(max(at(0), from), base, fire)
}

// Advance lets the event being dispatched run ahead to the event it would
// queue next: one due at t, which reaches t after taking n sequence
// numbers (an event queued now takes one; a chain takes two, at its
// creation and at its hop, and the hop must lie before t). If that event
// would be the next one dispatched, because t is no later than Horizon,
// Advance moves the clock to t, takes the n sequence numbers and reports
// true: the caller then runs the event's code itself, as the last thing
// it does, since nothing may run between the two. Otherwise, and outside a
// dispatch, it does nothing and reports false. A time before now is
// clamped to now. The event run ahead is not a dispatch: Fired does not
// count it.
func (e *Engine) Advance(t time.Duration, n uint64) bool {
	if h, ok := e.Horizon(); !ok || t > h {
		return false
	}
	e.now = max(t, e.now)
	e.seq += n
	return true
}

// Horizon reports the latest time Advance would accept now: the deadline
// of the StepUntil call dispatching, which the clock has not reached yet,
// or the instant before the queue's root if that comes first (cancelled
// entries and chains' hops included; on a tie the entry already queued
// goes first). It reports false where Advance would accept no time at
// all: outside a dispatch, at the deadline, or with an entry due now. A
// caller that runs several events ahead at once checks their last end
// against it before it calls Advance.
func (e *Engine) Horizon() (time.Duration, bool) {
	// At the deadline itself a loop that stops once the clock reaches it
	// would not dispatch anything more.
	if e.now >= e.limit {
		return 0, false
	}
	h := e.limit
	if len(e.heap) > 0 && e.heap[0].at <= h {
		if h = e.heap[0].at - 1; h < e.now {
			return 0, false
		}
	}
	return h, true
}

// queue puts fn in the heap at time t with sequence number seq.
func (e *Engine) queue(t time.Duration, seq uint64, fn func()) Timer {
	var slot int32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		slot = int32(len(e.slots) - 1)
	}
	s := &e.slots[slot]
	s.fn = fn
	s.at = t
	s.seq = seq
	s.state = slotPending
	e.push(heapEntry{at: t, seq: seq, slot: slot})
	e.live++
	return Timer{eng: e, slot: slot, gen: s.gen}
}

// release returns a slot to the arena, invalidating outstanding Timers.
func (e *Engine) release(slot int32) {
	s := &e.slots[slot]
	s.fn = nil
	s.state = slotFree
	s.gen++
	e.freeSlots = append(e.freeSlots, slot)
}

// Step dispatches the next pending event, advancing the clock to its
// timestamp. It reports whether an event was dispatched. Step does not
// return at a chain's hop: it sets the clock to the hop's time, as the
// hop's dispatch would have, and goes on to the next event. The event
// dispatched may run ahead (Advance), so one Step may run the code of
// several events and leave the clock past the dispatched event's time.
func (e *Engine) Step() bool {
	return e.StepUntil(math.MaxInt64)
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// StepUntil dispatches the next event if it fires at or before deadline,
// reporting whether one was dispatched. It fuses the peek and pop root
// inspections the run loops would otherwise do back to back. It passes
// over hops like Step, except a hop at the deadline itself: there it
// returns true, as the hop's dispatch did, so that a loop which stops once
// the clock reaches the deadline stops where it would have stopped. The
// event dispatched may run ahead (Advance) up to the deadline, never past
// it.
func (e *Engine) StepUntil(deadline time.Duration) bool {
	for len(e.heap) > 0 {
		he := e.heap[0]
		s := &e.slots[he.slot]
		if s.state == slotCancelled {
			e.pop()
			e.release(he.slot)
			continue
		}
		if he.at > deadline {
			return false
		}
		if s.state == slotChained {
			e.hop(s)
			if he.at == deadline {
				return true
			}
			continue
		}
		e.pop()
		e.now = he.at
		fn := s.fn
		e.release(he.slot)
		e.live--
		e.fired++
		e.limit = deadline
		fn()
		e.limit = math.MinInt64
		return true
	}
	return false
}

// hop runs the first stage of the chain at the root of the heap, whose
// slot is s: the clock moves to the hop's time and the root is re-keyed in
// place for the second stage, under the next sequence number.
func (e *Engine) hop(s *eventSlot) {
	root := &e.heap[0]
	e.now = root.at
	s.at = root.at + s.then
	s.seq = e.seq
	s.state = slotPending
	root.at, root.seq = s.at, e.seq
	e.seq++
	e.siftDown()
}

// RunUntil dispatches events with timestamps <= deadline and then advances
// the clock to deadline. Events scheduled for after the deadline remain
// queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for e.StepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor dispatches events for d of virtual time starting from Now.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + d)
}

// peek reports the timestamp of the next non-cancelled event, pruning
// cancelled entries from the top of the heap as it goes.
func (e *Engine) peek() (time.Duration, bool) {
	for len(e.heap) > 0 {
		he := e.heap[0]
		if e.slots[he.slot].state == slotCancelled {
			e.pop()
			e.release(he.slot)
			continue
		}
		return he.at, true
	}
	return 0, false
}

// NextEventAt reports the timestamp of the next pending event. The second
// result is false when the queue is empty.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	return e.peek()
}

// less orders heap entries by (timestamp, schedule order).
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an entry into the binary heap (sift-up).
func (e *Engine) push(he heapEntry) {
	h := append(e.heap, he)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// pop removes and returns the minimum entry.
func (e *Engine) pop() heapEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	e.siftDown()
	return top
}

// siftDown restores the heap order after the root's key grew.
func (e *Engine) siftDown() {
	h := e.heap
	n := len(h)
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].less(h[left]) {
			least = right
		}
		if !h[least].less(h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
