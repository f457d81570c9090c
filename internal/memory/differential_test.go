package memory

// Differential property test: the run-based Manager must be an exact
// drop-in for the original per-page model (refManager). Both are driven
// through identical randomized scripts of register/touch/re-touch/stop/
// resume/unregister/cache-fill/advance operations over adversarial
// geometries
// (tiny swap, swappiness > 0, cache present/absent) and every observable
// — returned latencies, errors, manager stats, per-space stats, free and
// cache bytes, swap usage, and the swap device's own counters — must match
// after every single operation, both before the manager has built its
// frame-extent list and after.

import (
	"math/rand"
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

// diffPair holds the two implementations under lockstep test.
type diffPair struct {
	t    *testing.T
	engN *sim.Engine
	engR *sim.Engine
	devN *disk.Device
	devR *disk.Device
	n    *Manager
	r    *refManager
	pids []PID
	// unbuilt and built count the comparisons made before and after the
	// manager built its frame-extent list; before records the operations
	// compared, and whether cache was dropped, while it was unbuilt.
	unbuilt, built int
	before         map[string]bool
}

func newDiffPair(t *testing.T, cfg Config, dcfg disk.Config, pids []PID) *diffPair {
	t.Helper()
	p := &diffPair{t: t, engN: sim.New(), engR: sim.New(), pids: pids, before: map[string]bool{}}
	p.devN = disk.New(p.engN, "swapN", dcfg)
	p.devR = disk.New(p.engR, "swapR", dcfg)
	var err error
	p.n, err = New(p.engN, p.devN, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.r, err = newRefManager(p.engR, p.devR, cfg)
	if err != nil {
		t.Fatalf("newRefManager: %v", err)
	}
	oom := func(resident func(PID) int64, unregister func(PID)) func() {
		return func() {
			victim := PID(-1)
			var maxR int64 = -1
			for _, pid := range pids {
				if r := resident(pid); r > maxR {
					maxR = r
					victim = pid
				}
			}
			if victim >= 0 {
				unregister(victim)
			}
		}
	}
	p.n.SetOOMHandler(oom(p.n.ResidentBytes, p.n.Unregister))
	p.r.SetOOMHandler(oom(p.r.ResidentBytes, p.r.Unregister))
	return p
}

// compare asserts every observable of both implementations matches.
func (p *diffPair) compare(step int, op string) {
	t := p.t
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): "+format, append([]any{step, op}, args...)...)
	}
	if err := p.n.checkInvariants(); err != nil {
		fail("run-based invariants: %v", err)
	}
	if p.n.exts.len() == 0 {
		p.unbuilt++
		p.before[op] = true
		if p.n.Stats().CacheDropBytes > 0 {
			p.before["cache drop"] = true
		}
	} else {
		p.built++
	}
	if a, b := p.n.Stats(), p.r.Stats(); a != b {
		fail("Stats diverged:\n run-based: %+v\n reference: %+v", a, b)
	}
	if a, b := p.n.FreeBytes(), p.r.FreeBytes(); a != b {
		fail("FreeBytes %d != %d", a, b)
	}
	if a, b := p.n.CacheBytes(), p.r.CacheBytes(); a != b {
		fail("CacheBytes %d != %d", a, b)
	}
	if a, b := p.n.SwapUsedBytes(), p.r.SwapUsedBytes(); a != b {
		fail("SwapUsedBytes %d != %d", a, b)
	}
	if a, b := p.devN.Stats(), p.devR.Stats(); a != b {
		fail("disk stats diverged:\n run-based: %+v\n reference: %+v", a, b)
	}
	if a, b := p.devN.BusyUntil(), p.devR.BusyUntil(); a != b {
		fail("disk BusyUntil %v != %v", a, b)
	}
	for _, pid := range p.pids {
		sn, sr := p.n.Space(pid), p.r.Space(pid)
		if (sn == nil) != (sr == nil) {
			fail("space %d presence: run-based %v, reference %v", pid, sn != nil, sr != nil)
		}
		if sn == nil {
			continue
		}
		if a, b := sn.Stats(), sr.Stats(); a != b {
			fail("space %d stats diverged:\n run-based: %+v\n reference: %+v", pid, a, b)
		}
	}
	if a, b := p.n.SwapRate(30*time.Second), p.r.SwapRate(30*time.Second); a != b {
		fail("SwapRate %v != %v", a, b)
	}
}

// diffConfig draws an adversarial geometry: small RAM so reclaim is
// constant, swap sized from starving to roomy, the full swappiness range,
// and page-cluster batches that don't divide space sizes evenly.
func diffConfig(rng *rand.Rand) Config {
	ramPages := 16 + rng.Intn(49) // 16..64 frames
	return Config{
		PageSize:          1024,
		RAMBytes:          int64(ramPages) << 10,
		ReservedBytes:     0,
		InitialCacheBytes: int64(rng.Intn(3)) * 8 << 10,
		SwapBytes:         int64(rng.Intn(33)) << 10, // 0..32 KiB: often starved
		Swappiness:        []int{0, 0, 30, 60, 100}[rng.Intn(5)],
		PageClusterPages:  []int{1, 3, 4, 7, 32}[rng.Intn(5)],
		MinorFaultCost:    time.Microsecond,
	}
}

// TestDifferentialRunBasedVsPerPage runs 120 scenarios of the adversarial
// mix, most of which reach the clock within a few steps, and 60 calm ones
// that open with small spaces under swappiness 0, so that their first
// clock pass comes after stops, resumes, re-touches, exits and cache
// drops have edited the runs and stacks alone.
func TestDifferentialRunBasedVsPerPage(t *testing.T) {
	const (
		scenarios = 120
		calm      = 60
		opsPer    = 250
	)
	pids := []PID{0, 1, 2, 3, 4}
	var unbuilt, built, lateBuilds int
	for sc := 0; sc < scenarios+calm; sc++ {
		rng := rand.New(rand.NewSource(int64(1000 + sc)))
		cfg := diffConfig(rng)
		calmSteps := 0
		if sc >= scenarios {
			calmSteps = 60 + rng.Intn(120)
			cfg.Swappiness = 0
			cfg.PageClusterPages = 1 + rng.Intn(4)
			cfg.InitialCacheBytes = int64(rng.Intn(17)) << 10
		}
		dcfg := disk.Config{
			SeekTime:       time.Millisecond,
			ReadBandwidth:  1 << 20,
			WriteBandwidth: 1 << 20,
		}
		p := newDiffPair(t, cfg, dcfg, pids)
		const spaceMax = 40 << 10 // up to 2.5x the largest RAM
		for step := 0; step < opsPer; step++ {
			pid := pids[rng.Intn(len(pids))]
			switch rng.Intn(10) {
			case 0, 1:
				size := int64(rng.Intn(spaceMax))
				if step < calmSteps {
					size = int64(rng.Intn(spaceMax / 8))
				}
				_, errN := p.n.Register(pid, size)
				_, errR := p.r.Register(pid, size)
				if (errN == nil) != (errR == nil) {
					t.Fatalf("scenario %d step %d: Register err mismatch: %v vs %v", sc, step, errN, errR)
				}
				p.compare(step, "register")
			case 2, 3, 4, 5, 6:
				if p.n.Space(pid) == nil {
					continue
				}
				size := p.n.Space(pid).SizeBytes()
				if size == 0 {
					continue
				}
				off := rng.Int63n(size)
				length := 1 + rng.Int63n(size-off)
				write := rng.Intn(2) == 0
				dN, errN := p.n.Touch(pid, off, length, write)
				dR, errR := p.r.Touch(pid, off, length, write)
				if dN != dR {
					t.Fatalf("scenario %d step %d: Touch(%d,%d,%d,%v) latency %v vs %v",
						sc, step, pid, off, length, write, dN, dR)
				}
				if (errN == nil) != (errR == nil) || (errN != nil && errN.Error() != errR.Error()) {
					t.Fatalf("scenario %d step %d: Touch err mismatch: %v vs %v", sc, step, errN, errR)
				}
				p.compare(step, "touch")
				// Re-touch a piece of the range at once: the pages are
				// resident unless the touch reclaimed from its own space,
				// so this takes the path that sets referenced bits, or
				// finds them set.
				if errN == nil && p.n.Space(pid) != nil && rng.Intn(3) == 0 {
					roff := off + rng.Int63n(length)
					rlen := 1 + rng.Int63n(off+length-roff)
					dN, errN = p.n.Touch(pid, roff, rlen, false)
					dR, errR = p.r.Touch(pid, roff, rlen, false)
					if dN != dR || (errN == nil) != (errR == nil) {
						t.Fatalf("scenario %d step %d: re-Touch(%d,%d,%d) = %v, %v vs %v, %v",
							sc, step, pid, roff, rlen, dN, errN, dR, errR)
					}
					p.compare(step, "retouch")
				}
			case 7:
				if rng.Intn(2) == 0 {
					p.n.MarkStopped(pid)
					p.r.MarkStopped(pid)
					p.compare(step, "stop")
				} else {
					p.n.MarkRunning(pid)
					p.r.MarkRunning(pid)
					p.compare(step, "run")
				}
			case 8:
				if rng.Intn(3) == 0 {
					p.n.Unregister(pid)
					p.r.Unregister(pid)
					p.compare(step, "unregister")
				} else {
					bytes := int64(rng.Intn(16)) << 10
					p.n.CacheFill(bytes)
					p.r.CacheFill(bytes)
					p.compare(step, "cachefill")
				}
			case 9:
				d := time.Duration(rng.Intn(2000)) * time.Millisecond
				p.engN.RunFor(d)
				p.engR.RunFor(d)
				p.compare(step, "advance")
			}
		}
		late := p.built > 0
		for _, op := range []string{"stop", "run", "retouch", "unregister", "cache drop"} {
			late = late && p.before[op]
		}
		if late {
			lateBuilds++
		}
		unbuilt += p.unbuilt
		built += p.built
	}
	t.Logf("%d comparisons before the frame-extent list was built, %d after; %d scenarios built it after stops, resumes, re-touches, exits and cache drops",
		unbuilt, built, lateBuilds)
	if unbuilt < 8000 || built < 14000 || lateBuilds < 30 {
		t.Fatalf("too little of one state exercised: %d comparisons unbuilt, %d built, %d late builds", unbuilt, built, lateBuilds)
	}
}

// TestDifferentialWorstCaseSweep drives both models through the paper's
// worst-case shape (write-everything, stop, second task floods memory,
// resume and read back) at miniature scale — the exact pattern behind
// Figures 3 and 4 — including a swappiness>0 variant.
func TestDifferentialWorstCaseSweep(t *testing.T) {
	for _, swappiness := range []int{0, 60} {
		cfg := Config{
			PageSize:          1024,
			RAMBytes:          64 << 10,
			InitialCacheBytes: 16 << 10,
			SwapBytes:         96 << 10,
			Swappiness:        swappiness,
			PageClusterPages:  4,
			MinorFaultCost:    time.Microsecond,
		}
		dcfg := disk.Config{SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20}
		p := newDiffPair(t, cfg, dcfg, []PID{1, 2})
		step := 0
		do := func(op string, fn func()) {
			fn()
			p.compare(step, op)
			step++
		}
		const tl, th = 48 << 10, 56 << 10
		do("register tl", func() { p.n.Register(1, tl); p.r.Register(1, tl) })
		do("alloc tl", func() {
			p.n.Touch(1, 0, tl, true)
			p.r.Touch(1, 0, tl, true)
		})
		do("re-touch tl", func() {
			p.n.Touch(1, 8<<10, 16<<10, false)
			p.r.Touch(1, 8<<10, 16<<10, false)
		})
		do("stop tl", func() { p.n.MarkStopped(1); p.r.MarkStopped(1) })
		do("register th", func() { p.n.Register(2, th); p.r.Register(2, th) })
		for off := int64(0); off < th; off += 8 << 10 {
			do("alloc th", func() {
				p.n.Touch(2, off, 8<<10, true)
				p.r.Touch(2, off, 8<<10, true)
			})
		}
		do("drain", func() { p.engN.RunFor(5 * time.Second); p.engR.RunFor(5 * time.Second) })
		do("read th", func() {
			p.n.Touch(2, 0, th, false)
			p.r.Touch(2, 0, th, false)
		})
		do("exit th", func() { p.n.Unregister(2); p.r.Unregister(2) })
		do("resume tl", func() { p.n.MarkRunning(1); p.r.MarkRunning(1) })
		do("read tl", func() {
			p.n.Touch(1, 0, tl, false)
			p.r.Touch(1, 0, tl, false)
		})
	}
}
