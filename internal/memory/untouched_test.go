package memory

import (
	"math/rand"
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

// untouchedHistory builds a manager from seed and drives it through a
// random history of registers, touches, stops, resumes, cache fills and
// exits over three spaces, so that they end partly touched, partly
// swapped and partly dropped, with the frame-extent list built or not.
func untouchedHistory(seed int64) (*Manager, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New()
	d := disk.New(eng, "swap", disk.Config{SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20})
	m, err := New(eng, d, diffConfig(rng))
	if err != nil {
		panic(err)
	}
	m.SetOOMHandler(func() {
		for pid := PID(1); pid <= 3; pid++ {
			if m.ResidentBytes(pid) > 0 {
				m.Unregister(pid)
				return
			}
		}
	})
	size := func(pid PID) int64 { return int64(8+4*int(pid)) << 10 }
	for pid := PID(1); pid <= 3; pid++ {
		m.Register(pid, size(pid))
	}
	for range 10 + rng.Intn(30) {
		pid := PID(1 + rng.Intn(3))
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			if m.Space(pid) != nil {
				off := rng.Int63n(size(pid))
				m.Touch(pid, off, 1+rng.Int63n(size(pid)-off), rng.Intn(2) == 0)
			}
		case 4:
			m.MarkStopped(pid)
		case 5:
			m.MarkRunning(pid)
		case 6:
			m.CacheFill(int64(rng.Intn(8)) << 10)
		case 7:
			m.Unregister(pid)
			m.Register(pid, size(pid))
		}
	}
	return m, rng
}

// TestTouchOfUnionMatchesChunkTouches checks the two facts a stretch of
// memory-only ops rests on. Untouched counts exactly the untouched pages
// of a range, refuses one with a swapped page and changes nothing. And
// where a region's chunks (not page-aligned) hold no swapped page and
// fault no more pages than are free, one Touch over the region leaves the
// same runs, stacks and counters as touching it chunk by chunk (and so the
// same extents, which Layout checks against them), and costs what the
// chunks cost together: MinorFaultCost per page that Untouched counted,
// each chunk counting the pages its predecessor has not.
func TestTouchOfUnionMatchesChunkTouches(t *testing.T) {
	var compared, faulting, partial, refused int
	for trial := range 3000 {
		seed := int64(trial) + 1
		chunked, rng := untouchedHistory(seed)
		union, _ := untouchedHistory(seed)
		pid := PID(1 + rng.Intn(3))
		s := chunked.Space(pid)
		if s == nil {
			continue
		}
		size := s.SizeBytes()
		from := rng.Int63n(size)
		to := from + 1 + rng.Int63n(size-from)
		chunk := 1 + rng.Int63n(3<<10)
		before, err := chunked.Layout()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The brute-force count of untouched pages, and whether any page
		// of [from, to) is swapped.
		var want int
		var swapped bool
		for pg := int32(from >> 10); pg <= int32((to-1)>>10); pg++ {
			switch s.runs[s.runIdx(pg)].state {
			case pageUntouched:
				want++
			case pageSwapped:
				swapped = true
			}
		}
		got, ok := chunked.Untouched(pid, from, to-from)
		if ok == swapped || (ok && got != want) {
			t.Fatalf("trial %d: Untouched(%d, %d) = %d, %v; want %d, swapped %v", trial, from, to-from, got, ok, want, swapped)
		}
		if after, _ := chunked.Layout(); after != before {
			t.Fatalf("trial %d: Untouched changed the manager:\n%s\n%s", trial, before, after)
		}
		if !ok {
			refused++
			continue
		}
		// Each chunk counts the pages from its first whole one on; a first
		// page shared with the chunk before was counted there.
		var sum int
		for lo := from; lo < to; lo += chunk {
			q := lo
			if lo > from {
				q = (lo + 1023) &^ 1023
			}
			n, _ := chunked.Untouched(pid, q, min(lo+chunk, to)-q)
			sum += n
		}
		if sum != want {
			t.Fatalf("trial %d: the chunks of [%d, %d) count %d untouched pages, the region %d", trial, from, to, sum, want)
		}
		if want > int(chunked.FreeBytes()>>10) {
			continue
		}
		var latency time.Duration
		for lo := from; lo < to; lo += chunk {
			d, err := chunked.Touch(pid, lo, min(chunk, to-lo), trial%2 == 0)
			if err != nil {
				t.Fatalf("trial %d: chunk touch: %v", trial, err)
			}
			latency += d
		}
		d, err := union.Touch(pid, from, to-from, trial%2 == 0)
		if err != nil || d != latency || d != time.Duration(want)*chunked.Config().MinorFaultCost {
			t.Fatalf("trial %d: one touch cost %v (%v), the chunks %v, %d faults %v", trial, d, err, latency, want,
				time.Duration(want)*chunked.Config().MinorFaultCost)
		}
		a, errA := chunked.Layout()
		b, errB := union.Layout()
		if errA != nil || errB != nil || a != b {
			t.Fatalf("trial %d: chunk by chunk (%v)\n%s\none touch (%v)\n%s", trial, errA, a, errB, b)
		}
		compared++
		if want > 0 {
			faulting++
			if want < int((to-1)>>10-from>>10+1) {
				partial++
			}
		}
	}
	t.Logf("%d regions compared (%d faulting, %d of them partly resident), %d refused for a swapped page", compared, faulting, partial, refused)
	if compared < 1000 || faulting < 300 || partial < 100 || refused < 100 {
		t.Fatal("too few cases exercised")
	}
}
