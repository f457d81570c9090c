package memory

// Exactness tests for the manager's fast paths: Unregister's one-pass
// extent rewrite against the per-run teardown it replaced, and the
// hinted searches against a linear scan.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

// unregisterPerRun is Unregister as it was before the one-pass rewrite:
// every resident run frees its frame range with its own search, split
// and coalesce.
func unregisterPerRun(m *Manager, pid PID) {
	s, ok := m.spaces[pid]
	if !ok {
		return
	}
	if pid >= 0 && int(pid) < len(m.dense) {
		m.dense[pid] = nil
	}
	for _, r := range s.runs {
		if r.state == pageResident {
			m.freeFrameRange(r.frameLo(), r.frameHi())
			m.pushFree(r.frame, r.n, r.fdir)
		}
		if r.slot {
			m.swapUsed -= int64(r.n) * m.cfg.PageSize
		}
	}
	s.runs = s.runs[:0]
	s.resident, s.swapped = 0, 0
	m.spaceFree = append(m.spaceFree, s)
	delete(m.spaces, pid)
}

// extents lists the extent list's entries in logical order.
func extents(m *Manager) []frameExt {
	out := make([]frameExt, m.exts.len())
	for i := range out {
		out[i] = *m.exts.at(i)
	}
	return out
}

// TestUnregisterMatchesPerRunTeardown drives two managers through the
// same randomized scripts of register, touch, stop, resume, cache-fill,
// clock-advancing and unregister steps over the differential test's
// adversarial geometries. One tears spaces down with Unregister, the
// other with unregisterPerRun, in explicit steps and in the OOM handler,
// which kills the largest resident space and so often the toucher
// itself. After every step the extent lists, free stacks and cache
// stacks must be equal entry for entry.
func TestUnregisterMatchesPerRunTeardown(t *testing.T) {
	const (
		scenarios = 150
		opsPer    = 300
		spaceMax  = 40 << 10
	)
	pids := []PID{0, 1, 2, 3, 4}
	var unregisters, toucherKills int
	for sc := 0; sc < scenarios; sc++ {
		rng := rand.New(rand.NewSource(int64(7000 + sc)))
		cfg := diffConfig(rng)
		var ms [2]*Manager
		var engs [2]*sim.Engine
		touching := PID(-1)
		for side := range ms {
			engs[side] = sim.New()
			dev := disk.New(engs[side], "swap", disk.Config{
				SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
			})
			m, err := New(engs[side], dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Both sides keep a frame-extent list from the start, so the
			// one-pass rewrite runs on every teardown and the per-run one
			// has a list to edit.
			m.buildExts()
			teardown := m.Unregister
			if side == 1 {
				teardown = func(pid PID) { unregisterPerRun(m, pid) }
			}
			m.SetOOMHandler(func() {
				victim, maxR := PID(-1), int64(-1)
				for _, pid := range pids {
					if r := m.ResidentBytes(pid); r > maxR {
						victim, maxR = pid, r
					}
				}
				if side == 0 && victim == touching {
					toucherKills++
				}
				teardown(victim)
			})
			ms[side] = m
		}
		compare := func(step int, op string) {
			t.Helper()
			for side, m := range ms {
				if err := m.checkInvariants(); err != nil {
					t.Fatalf("scenario %d step %d (%s): side %d invariants: %v", sc, step, op, side, err)
				}
			}
			a, b := ms[0], ms[1]
			if ea, eb := extents(a), extents(b); !slices.Equal(ea, eb) {
				t.Fatalf("scenario %d step %d (%s): extent lists differ:\n one-pass: %+v\n per-run:  %+v", sc, step, op, ea, eb)
			}
			if !slices.Equal(a.freeStack, b.freeStack) || !slices.Equal(a.cacheStack, b.cacheStack) {
				t.Fatalf("scenario %d step %d (%s): stacks differ:\n one-pass: free %+v cache %+v\n per-run:  free %+v cache %+v",
					sc, step, op, a.freeStack, a.cacheStack, b.freeStack, b.cacheStack)
			}
		}
		for step := 0; step < opsPer; step++ {
			pid := pids[rng.Intn(len(pids))]
			switch rng.Intn(10) {
			case 0, 1:
				size := int64(rng.Intn(spaceMax))
				for _, m := range ms {
					m.Register(pid, size) // an already registered pid fails on both sides
				}
				compare(step, "register")
			case 2, 3, 4, 5:
				s := ms[0].Space(pid)
				if s == nil || s.SizeBytes() == 0 {
					continue
				}
				off := rng.Int63n(s.SizeBytes())
				length := 1 + rng.Int63n(s.SizeBytes()-off)
				write := rng.Intn(2) == 0
				touching = pid
				for _, m := range ms {
					m.Touch(pid, off, length, write) // OOM errors happen on both sides
				}
				touching = -1
				compare(step, "touch")
			case 6:
				for _, m := range ms {
					m.MarkStopped(pid)
				}
				compare(step, "stop")
			case 7:
				for _, m := range ms {
					m.MarkRunning(pid)
				}
				compare(step, "run")
			case 8:
				if rng.Intn(2) == 0 {
					bytes := int64(rng.Intn(16)) << 10
					for _, m := range ms {
						m.CacheFill(bytes)
					}
					compare(step, "cachefill")
					continue
				}
				if ms[0].Space(pid) != nil {
					unregisters++
				}
				ms[0].Unregister(pid)
				unregisterPerRun(ms[1], pid)
				compare(step, "unregister")
			case 9:
				d := time.Duration(rng.Intn(2000)) * time.Millisecond
				for _, eng := range engs {
					eng.RunFor(d)
				}
				compare(step, "advance")
			}
		}
	}
	t.Logf("%d unregisters, %d OOM kills of the toucher", unregisters, toucherKills)
	if unregisters < 1000 || toucherKills < 50 {
		t.Fatalf("too few teardowns exercised: %d unregisters, %d OOM kills of the toucher", unregisters, toucherKills)
	}
}

// TestSearchesMatchLinearScan checks extList.search and Space.runIdx
// against a linear scan over random interval lists, with the extent
// list's gap at random positions and both hints at random values,
// stale ones included.
func TestSearchesMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(120)
		starts := make([]int32, n)
		var end int32
		for i := range starts {
			starts[i] = end
			end += 1 + int32(rng.Intn(6))
		}
		linear := func(f int32) int {
			i := 0
			for i+1 < n && starts[i+1] <= f {
				i++
			}
			return i
		}

		var g extList
		for i := n - 1; i >= 0; i-- {
			e := frameExt{start: starts[i], n: end - starts[i], kind: extFree}
			if i+1 < n {
				e.n = starts[i+1] - starts[i]
			}
			g.insert(0, e)
		}
		s := &Space{}
		for i := range starts {
			r := pageRun{start: starts[i], n: end - starts[i]}
			if i+1 < n {
				r.n = starts[i+1] - starts[i]
			}
			s.runs = append(s.runs, r)
		}
		for probe := 0; probe < 60; probe++ {
			g.moveGap(rng.Intn(n + 1))
			g.hint = rng.Intn(n + 3)
			s.hint = rng.Intn(n + 3)
			f := int32(rng.Intn(int(end)))
			want := linear(f)
			if got := g.search(f); got != want {
				t.Fatalf("trial %d: extList.search(%d) = %d with gap at %d, want %d", trial, f, got, g.gs, want)
			}
			if g.hint != want {
				t.Fatalf("trial %d: extList.search(%d) left hint %d, want %d", trial, f, g.hint, want)
			}
			if got := s.runIdx(f); got != want {
				t.Fatalf("trial %d: runIdx(%d) = %d, want %d", trial, f, got, want)
			}
			if s.hint != want {
				t.Fatalf("trial %d: runIdx(%d) left hint %d, want %d", trial, f, s.hint, want)
			}
			// The successor of the last result, as a sequential walk
			// asks next.
			if next := want + 1; next < n {
				if got := g.search(starts[next]); got != next {
					t.Fatalf("trial %d: extList.search(%d) after %d = %d, want %d", trial, starts[next], f, got, next)
				}
				if got := s.runIdx(starts[next]); got != next {
					t.Fatalf("trial %d: runIdx(%d) after %d = %d, want %d", trial, starts[next], f, got, next)
				}
			}
		}
	}
}
