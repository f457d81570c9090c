package memory

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

// testSetup builds a manager with a tiny, fully controllable geometry:
// 1 KiB pages, 64 KiB of RAM (64 frames), no reserved memory, an optional
// cache, and 128 KiB of swap.
func testSetup(t *testing.T, cacheBytes int64) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.New()
	d := disk.New(eng, "swap", disk.Config{
		SeekTime:       time.Millisecond,
		ReadBandwidth:  1 << 20, // 1 MiB/s: 1 KiB page = ~1ms
		WriteBandwidth: 1 << 20,
	})
	m, err := New(eng, d, Config{
		PageSize:          1024,
		RAMBytes:          64 << 10,
		ReservedBytes:     0,
		InitialCacheBytes: cacheBytes,
		SwapBytes:         128 << 10,
		Swappiness:        0,
		PageClusterPages:  4,
		MinorFaultCost:    time.Microsecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, m
}

func mustRegister(t *testing.T, m *Manager, pid PID, bytes int64) *Space {
	t.Helper()
	s, err := m.Register(pid, bytes)
	if err != nil {
		t.Fatalf("Register(%d, %d): %v", pid, bytes, err)
	}
	return s
}

func mustTouch(t *testing.T, m *Manager, pid PID, off, n int64, write bool) time.Duration {
	t.Helper()
	d, err := m.Touch(pid, off, n, write)
	if err != nil {
		t.Fatalf("Touch(%d, %d, %d, %v): %v", pid, off, n, write, err)
	}
	return d
}

func checkInv(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.checkInvariants(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
}

func TestRegisterAndTouchMakesResident(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 8<<10)
	mustTouch(t, m, 1, 0, 8<<10, true)
	if got := m.ResidentBytes(1); got != 8<<10 {
		t.Fatalf("ResidentBytes = %d, want %d", got, 8<<10)
	}
	if got := m.FreeBytes(); got != 56<<10 {
		t.Fatalf("FreeBytes = %d, want %d", got, 56<<10)
	}
	checkInv(t, m)
}

func TestRegisterTwicefails(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 1024)
	if _, err := m.Register(1, 1024); err == nil {
		t.Fatal("second Register should fail")
	}
}

func TestTouchOutOfRangeFails(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 4096)
	if _, err := m.Touch(1, 0, 8192, false); err == nil {
		t.Fatal("touch beyond space should fail")
	}
	// An offset within one page below zero must fail too, although it
	// lies in page 0 when divided towards zero.
	for _, bad := range [][2]int64{{-1024, 512}, {-1, 1}, {-1024 + 1, 1024}} {
		if _, err := m.Touch(1, bad[0], bad[1], true); err == nil {
			t.Fatalf("Touch(%d, %d) before the space should fail", bad[0], bad[1])
		}
	}
	if got := m.ResidentBytes(1); got != 0 {
		t.Fatalf("failed touches left %d bytes resident", got)
	}
	checkInv(t, m)
}

func TestTouchUnregisteredFails(t *testing.T) {
	_, m := testSetup(t, 0)
	if _, err := m.Touch(42, 0, 1024, false); err == nil {
		t.Fatal("touch by unknown pid should fail")
	}
}

func TestZeroLengthTouchIsFree(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 4096)
	d := mustTouch(t, m, 1, 0, 0, true)
	if d != 0 {
		t.Fatalf("zero-length touch cost %v, want 0", d)
	}
	if m.ResidentBytes(1) != 0 {
		t.Fatal("zero-length touch should not fault pages in")
	}
}

func TestMinorFaultCostCharged(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 4<<10)
	d := mustTouch(t, m, 1, 0, 4<<10, true)
	// 4 pages x 1us minor fault cost, no disk involved.
	if want := 4 * time.Microsecond; d != want {
		t.Fatalf("touch cost %v, want %v", d, want)
	}
	if m.Stats().MinorFaults != 4 {
		t.Fatalf("MinorFaults = %d, want 4", m.Stats().MinorFaults)
	}
}

func TestRetouchResidentIsFree(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 4<<10)
	mustTouch(t, m, 1, 0, 4<<10, true)
	d := mustTouch(t, m, 1, 0, 4<<10, false)
	if d != 0 {
		t.Fatalf("re-touch cost %v, want 0", d)
	}
}

// refPages counts the resident pages of s whose referenced bit is set
// and clear.
func refPages(s *Space) (set, clear int) {
	for _, r := range s.runs {
		if r.state != pageResident {
			continue
		}
		if r.ref {
			set += int(r.n)
		} else {
			clear += int(r.n)
		}
	}
	return set, clear
}

// TestAllReferencedSpaceSkipsSetRef follows the referenced bits a space's
// runs carry through their transitions: faults set them, so a hot
// re-touch has nothing to set and allocates nothing; MarkStopped clears
// them and MarkRunning does not set them again; a touch sets the bits of
// the pages it touches only; and the clock's second-chance pass clears
// the bits of a running space whose frames it spares.
func TestAllReferencedSpaceSkipsSetRef(t *testing.T) {
	_, m := testSetup(t, 0)
	s := mustRegister(t, m, 1, 8<<10)
	mustTouch(t, m, 1, 0, 8<<10, true)
	if set, clear := refPages(s); set != 8 || clear != 0 {
		t.Fatalf("after faults %d pages referenced, %d not; want 8 and 0", set, clear)
	}
	allocs := testing.AllocsPerRun(100, func() { mustTouch(t, m, 1, 1<<10, 4<<10, true) })
	if allocs != 0 {
		t.Fatalf("a hot re-touch allocates %.1f objects", allocs)
	}
	checkInv(t, m)

	m.MarkStopped(1)
	m.MarkRunning(1)
	if set, clear := refPages(s); set != 0 || clear != 8 {
		t.Fatalf("after stop and resume %d pages referenced, %d not; want 0 and 8", set, clear)
	}
	if len(s.runs) != 1 {
		t.Fatalf("stopped space keeps %d runs, want them merged into 1", len(s.runs))
	}
	mustTouch(t, m, 1, 0, 4<<10, false) // re-references half the pages
	if set, clear := refPages(s); set != 4 || clear != 4 {
		t.Fatalf("after re-touching half %d pages referenced, %d not; want 4 and 4", set, clear)
	}
	checkInv(t, m)

	// A second space fills RAM; reclaim spares its referenced frames,
	// clearing their bits, before it evicts them.
	s2 := mustRegister(t, m, 2, 64<<10)
	mustTouch(t, m, 2, 0, 64<<10, true)
	if m.Stats().SecondChanceHit == 0 {
		t.Fatal("reclaim spared no referenced frame")
	}
	if _, clear := refPages(s2); clear == 0 {
		t.Fatal("the second-chance pass should clear the second space's bits")
	}
	checkInv(t, m)
}

// TestFrameOrderBuiltOnFirstClockPass: a task's whole lifetime without
// memory pressure (register, fault, cache fill, stop, resume, re-touch,
// exit) and reclaim that drops only cache leave the frame-extent list
// unbuilt; the first reclaim that reaches the clock builds it, the list
// it maintains from then on matches a fresh build, and a released
// manager's shell starts unbuilt again.
func TestFrameOrderBuiltOnFirstClockPass(t *testing.T) {
	_, m := testSetup(t, 8<<10) // 8 cache frames, 56 free
	unbuilt := func(when string) {
		t.Helper()
		if n := m.exts.len(); n != 0 {
			t.Fatalf("%s: frame-extent list built with %d extents", when, n)
		}
		checkInv(t, m)
	}
	unbuilt("after New")
	mustRegister(t, m, 1, 16<<10)
	mustTouch(t, m, 1, 0, 16<<10, true)
	m.CacheFill(8 << 10)
	m.MarkStopped(1)
	m.MarkRunning(1)
	mustTouch(t, m, 1, 4<<10, 8<<10, false)
	m.Unregister(1)
	unbuilt("after a task's lifetime")

	// 16 cache frames and 48 free: 64 pages take the free frames and then
	// the cache, which reclaim drops without the clock; the next pages
	// need the clock.
	mustRegister(t, m, 2, 72<<10)
	mustTouch(t, m, 2, 0, 64<<10, true)
	if st := m.Stats(); st.ReclaimScans == 0 || st.CacheDropBytes != 16<<10 {
		t.Fatalf("setup: want cache-only reclaim of all 16 cache frames, stats %+v", st)
	}
	unbuilt("after cache-only reclaim")

	mustTouch(t, m, 2, 64<<10, 8<<10, true)
	if m.exts.len() == 0 {
		t.Fatal("the first clock pass left the frame-extent list unbuilt")
	}
	if m.Stats().SecondChanceHit == 0 {
		t.Fatal("setup: the clock spared no referenced frame")
	}
	checkInv(t, m)
	m.Unregister(2)
	checkInv(t, m)

	// A manager shell recycled through Release starts unbuilt again.
	m.Release()
	_, m = testSetup(t, 8<<10)
	unbuilt("after New on a released shell")
}

func TestCacheEvictedFirstAtSwappinessZero(t *testing.T) {
	_, m := testSetup(t, 16<<10) // 16 KiB cache, 48 KiB free
	mustRegister(t, m, 1, 56<<10)
	// Touching 56 KiB needs 8 KiB beyond the 48 KiB free: the cache must
	// shrink, and nothing must be swapped.
	mustTouch(t, m, 1, 0, 56<<10, true)
	if got := m.CacheBytes(); got > 8<<10 {
		t.Fatalf("CacheBytes = %d, want <= 8 KiB after reclaim", got)
	}
	if m.Stats().PagedOutBytes != 0 {
		t.Fatalf("PagedOutBytes = %d, want 0 (cache should cover the deficit)", m.Stats().PagedOutBytes)
	}
	if m.SwapUsedBytes() != 0 {
		t.Fatalf("SwapUsedBytes = %d, want 0", m.SwapUsedBytes())
	}
	checkInv(t, m)
}

func TestDirtyEvictionWritesToSwap(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 48<<10)
	mustTouch(t, m, 1, 0, 48<<10, true) // dirty all of p1
	m.MarkStopped(1)
	mustRegister(t, m, 2, 48<<10)
	d := mustTouch(t, m, 2, 0, 48<<10, true)
	if d <= 0 {
		t.Fatal("touch under pressure should pay reclaim latency")
	}
	if m.Stats().PagedOutBytes == 0 {
		t.Fatal("dirty eviction should write to swap")
	}
	if m.SwappedBytes(1) == 0 {
		t.Fatal("p1 (stopped) should have pages in swap")
	}
	s1 := m.Space(1).Stats()
	if s1.PagedOutBytes == 0 {
		t.Fatal("per-space PagedOutBytes should track tl's eviction")
	}
	checkInv(t, m)
}

func TestCleanPagesDroppedForFree(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 48<<10)
	mustTouch(t, m, 1, 0, 48<<10, false) // read-only: clean pages
	m.MarkStopped(1)
	mustRegister(t, m, 2, 48<<10)
	mustTouch(t, m, 2, 0, 48<<10, true)
	if m.Stats().PagedOutBytes != 0 {
		t.Fatalf("clean pages should not be written to swap, got %d bytes", m.Stats().PagedOutBytes)
	}
	if m.SwapUsedBytes() != 0 {
		t.Fatalf("SwapUsedBytes = %d, want 0", m.SwapUsedBytes())
	}
	checkInv(t, m)
}

func TestStoppedProcessEvictedBeforeRunning(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 30<<10)
	mustTouch(t, m, 1, 0, 30<<10, true)
	mustRegister(t, m, 2, 30<<10)
	mustTouch(t, m, 2, 0, 30<<10, true)
	m.MarkStopped(1)
	// A third process needs memory; the stopped process's pages must go
	// first even though p2's are equally old.
	mustRegister(t, m, 3, 16<<10)
	mustTouch(t, m, 3, 0, 16<<10, true)
	if m.SwappedBytes(1) == 0 {
		t.Fatal("stopped p1 should lose pages")
	}
	if m.SwappedBytes(2) > m.SwappedBytes(1) {
		t.Fatalf("running p2 lost more (%d) than stopped p1 (%d)",
			m.SwappedBytes(2), m.SwappedBytes(1))
	}
	checkInv(t, m)
}

func TestPageInChargesMajorFaults(t *testing.T) {
	eng, m := testSetup(t, 0)
	mustRegister(t, m, 1, 48<<10)
	mustTouch(t, m, 1, 0, 48<<10, true)
	m.MarkStopped(1)
	mustRegister(t, m, 2, 48<<10)
	mustTouch(t, m, 2, 0, 48<<10, true)
	if m.SwappedBytes(1) == 0 {
		t.Fatal("setup: p1 must have swapped pages")
	}
	// Resume p1: unregister p2 to free frames, then touch p1's memory.
	m.Unregister(2)
	m.MarkRunning(1)
	eng.RunUntil(10 * time.Second) // let the swap device drain its queue
	before := m.Stats().MajorFaults
	d := mustTouch(t, m, 1, 0, 48<<10, false)
	if m.Stats().MajorFaults == before {
		t.Fatal("touching swapped pages should cause major faults")
	}
	if d <= 0 {
		t.Fatal("page-in should cost disk time")
	}
	if m.Space(1).Stats().PagedInBytes == 0 {
		t.Fatal("per-space PagedInBytes should grow")
	}
	if m.SwappedBytes(1) != 0 {
		t.Fatalf("after full touch, SwappedBytes = %d, want 0", m.SwappedBytes(1))
	}
	checkInv(t, m)
}

func TestSwapSlotFreedOnRedirty(t *testing.T) {
	eng, m := testSetup(t, 0)
	mustRegister(t, m, 1, 48<<10)
	mustTouch(t, m, 1, 0, 48<<10, true)
	m.MarkStopped(1)
	mustRegister(t, m, 2, 40<<10)
	mustTouch(t, m, 2, 0, 40<<10, true)
	swapped := m.SwapUsedBytes()
	if swapped == 0 {
		t.Fatal("setup: some of p1 must be in swap")
	}
	m.Unregister(2)
	m.MarkRunning(1)
	eng.RunUntil(10 * time.Second)
	// Re-dirty everything: swap copies are stale, slots must be freed.
	mustTouch(t, m, 1, 0, 48<<10, true)
	if m.SwapUsedBytes() != 0 {
		t.Fatalf("SwapUsedBytes = %d after re-dirty, want 0", m.SwapUsedBytes())
	}
	checkInv(t, m)
}

func TestUnregisterReleasesEverything(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 48<<10)
	mustTouch(t, m, 1, 0, 48<<10, true)
	m.MarkStopped(1)
	mustRegister(t, m, 2, 48<<10)
	mustTouch(t, m, 2, 0, 48<<10, true)
	m.Unregister(1)
	m.Unregister(2)
	if m.FreeBytes() != 64<<10 {
		t.Fatalf("FreeBytes = %d, want all %d back", m.FreeBytes(), 64<<10)
	}
	if m.SwapUsedBytes() != 0 {
		t.Fatalf("SwapUsedBytes = %d, want 0", m.SwapUsedBytes())
	}
	if m.Space(1) != nil || m.Space(2) != nil {
		t.Fatal("spaces should be gone")
	}
	checkInv(t, m)
}

func TestUnregisterUnknownPIDIsNoop(t *testing.T) {
	_, m := testSetup(t, 0)
	m.Unregister(99) // must not panic
	checkInv(t, m)
}

func TestOOMWhenSwapFullAndAllDirty(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "swap", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
	})
	m, err := New(eng, d, Config{
		PageSize: 1024, RAMBytes: 16 << 10, SwapBytes: 4 << 10,
		PageClusterPages: 4, MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, m, 1, 16<<10)
	mustTouch(t, m, 1, 0, 16<<10, true)
	// All 16 frames dirty and referenced by a running process; only 4 KiB
	// of swap. Another process needs more than cache+swap can provide.
	mustRegister(t, m, 2, 16<<10)
	oomFired := false
	m.SetOOMHandler(func() { oomFired = true })
	_, err = m.Touch(2, 0, 16<<10, true)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if !oomFired {
		t.Fatal("OOM handler should fire")
	}
	checkInv(t, m)
}

func TestOOMHandlerCanFreeMemory(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "swap", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
	})
	m, err := New(eng, d, Config{
		PageSize: 1024, RAMBytes: 16 << 10, SwapBytes: 4 << 10,
		PageClusterPages: 4, MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, m, 1, 16<<10)
	mustTouch(t, m, 1, 0, 16<<10, true)
	mustRegister(t, m, 2, 8<<10)
	m.SetOOMHandler(func() { m.Unregister(1) }) // OOM-kill p1
	if _, err := m.Touch(2, 0, 8<<10, true); err != nil {
		t.Fatalf("touch after OOM kill should succeed: %v", err)
	}
	if m.Space(1) != nil {
		t.Fatal("victim should be gone")
	}
	checkInv(t, m)
}

// TestOOMKillOfTheToucherEndsTheTouch: a lone process larger than RAM
// plus swap faults until nothing is reclaimable, and the OOM handler
// kills that very process. The touch must fail with ErrOutOfMemory
// instead of faulting on into the freed space, and every frame must be
// free again.
func TestOOMKillOfTheToucherEndsTheTouch(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "swap", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
	})
	m, err := New(eng, d, Config{
		PageSize: 1024, RAMBytes: 16 << 10, SwapBytes: 4 << 10,
		PageClusterPages: 4, MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, m, 1, 32<<10)
	kills := 0
	m.SetOOMHandler(func() {
		kills++
		m.Unregister(1)
	})
	if _, err := m.Touch(1, 0, 32<<10, true); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if kills != 1 || m.Space(1) != nil {
		t.Fatalf("OOM handler ran %d times, space present %v; want one kill of the toucher", kills, m.Space(1) != nil)
	}
	if m.FreeBytes() != 16<<10 || m.SwapUsedBytes() != 0 {
		t.Fatalf("free %d, swap used %d after the kill; want all 16 KiB free and no swap", m.FreeBytes(), m.SwapUsedBytes())
	}
	checkInv(t, m)
}

func TestCacheFillGrowsOnlyIntoFreeFrames(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 60<<10)
	mustTouch(t, m, 1, 0, 60<<10, true)
	m.CacheFill(16 << 10) // only 4 KiB free
	if got := m.CacheBytes(); got != 4<<10 {
		t.Fatalf("CacheBytes = %d, want 4 KiB (free frames only)", got)
	}
	if m.Stats().PagedOutBytes != 0 {
		t.Fatal("CacheFill must never force anonymous eviction")
	}
	checkInv(t, m)
}

func TestSecondChanceSparesReferencedPages(t *testing.T) {
	_, m := testSetup(t, 0)
	mustRegister(t, m, 1, 32<<10)
	mustTouch(t, m, 1, 0, 32<<10, true)
	// Keep p1's pages hot by re-touching (sets referenced bits), then
	// create pressure with p2. The clock should clear bits on the first
	// sweep rather than evicting immediately.
	mustTouch(t, m, 1, 0, 32<<10, false)
	mustRegister(t, m, 2, 40<<10)
	mustTouch(t, m, 2, 0, 40<<10, true)
	if m.Stats().SecondChanceHit == 0 {
		t.Fatal("clock should have given second chances")
	}
	checkInv(t, m)
}

func TestSwappinessHighEvictsAnonWithCachePresent(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "swap", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
	})
	m, err := New(eng, d, Config{
		PageSize: 1024, RAMBytes: 64 << 10, InitialCacheBytes: 32 << 10,
		SwapBytes: 128 << 10, Swappiness: 100, PageClusterPages: 4,
		MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, m, 1, 30<<10)
	mustTouch(t, m, 1, 0, 30<<10, true)
	m.MarkStopped(1)
	mustRegister(t, m, 2, 30<<10)
	mustTouch(t, m, 2, 0, 30<<10, true)
	// With swappiness 100 anonymous pages are targeted even though cache
	// remains.
	if m.Stats().PagedOutBytes == 0 {
		t.Fatal("swappiness 100 should swap anon pages despite cache")
	}
	if m.CacheBytes() == 0 {
		t.Fatal("cache should not be fully drained at swappiness 100")
	}
	checkInv(t, m)
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "swap", disk.DefaultConfig())
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero page size", Config{PageSize: 0, RAMBytes: 1 << 20}},
		{"page size not a power of two", Config{PageSize: 1000, RAMBytes: 1 << 20}},
		{"reserved >= RAM", Config{PageSize: 1024, RAMBytes: 1 << 20, ReservedBytes: 1 << 20}},
		{"bad swappiness", Config{PageSize: 1024, RAMBytes: 1 << 20, Swappiness: 101}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(eng, d, tc.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestDefaultConfigIsValid(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "swap", disk.DefaultConfig())
	m, err := New(eng, d, DefaultConfig())
	if err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	// 4 GB - 240 MB reserved - 256 MB cache should leave ~3.5 GB free.
	free := m.FreeBytes()
	if free < 3<<30 || free > 4<<30 {
		t.Fatalf("FreeBytes = %d, want ~3.5 GB", free)
	}
}

// TestWorkingSetBeyondRAMThrashes reproduces the qualitative Figure 4
// mechanism at miniature scale: as the second process's allocation grows,
// total swap traffic grows superlinearly once combined working sets exceed
// RAM.
func TestWorkingSetBeyondRAMThrashes(t *testing.T) {
	run := func(thBytes int64) int64 {
		eng := sim.New()
		d := disk.New(eng, "swap", disk.Config{
			SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
		})
		m, err := New(eng, d, Config{
			PageSize: 1024, RAMBytes: 64 << 10, SwapBytes: 256 << 10,
			PageClusterPages: 4, MinorFaultCost: time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		const tlBytes = 40 << 10
		mustRegister(t, m, 1, tlBytes)
		mustTouch(t, m, 1, 0, tlBytes, true)
		m.MarkStopped(1)
		mustRegister(t, m, 2, thBytes)
		// th writes all pages at startup and reads them back at the end,
		// like the paper's worst-case tasks.
		mustTouch(t, m, 2, 0, thBytes, true)
		mustTouch(t, m, 2, 0, thBytes, false)
		return m.Stats().PagedOutBytes + m.Stats().PagedInBytes
	}
	small := run(8 << 10) // fits comfortably
	medium := run(30 << 10)
	large := run(60 << 10) // alone nearly fills RAM
	if small != 0 {
		t.Fatalf("small allocation should not swap, got %d bytes", small)
	}
	if medium == 0 {
		t.Fatal("medium allocation should cause some swap")
	}
	if large <= medium*2 {
		t.Fatalf("swap traffic should grow superlinearly: medium=%d large=%d", medium, large)
	}
}

// Property: any sequence of register/touch/stop/run/unregister operations
// preserves frame conservation and mapping consistency.
func TestPropertyInvariantsUnderRandomOps(t *testing.T) {
	type op struct {
		Kind   uint8
		PID    uint8
		Offset uint16
		Len    uint16
		Write  bool
	}
	f := func(ops []op) bool {
		eng := sim.New()
		d := disk.New(eng, "swap", disk.Config{
			SeekTime: time.Millisecond, ReadBandwidth: 1 << 20, WriteBandwidth: 1 << 20,
		})
		m, err := New(eng, d, Config{
			PageSize: 1024, RAMBytes: 32 << 10, InitialCacheBytes: 8 << 10,
			SwapBytes: 64 << 10, PageClusterPages: 4, MinorFaultCost: time.Microsecond,
		})
		if err != nil {
			return false
		}
		m.SetOOMHandler(func() {
			// Kill the largest resident space, like the kernel would.
			var victim PID
			var max int64 = -1
			for pid := range m.spaces {
				if r := m.ResidentBytes(pid); r > max {
					max = r
					victim = pid
				}
			}
			if max >= 0 {
				m.Unregister(victim)
			}
		})
		const spaceSize = 16 << 10
		for _, o := range ops {
			pid := PID(o.PID % 8)
			switch o.Kind % 5 {
			case 0:
				m.Register(pid, spaceSize) // error (already present) is fine
			case 1:
				if m.Space(pid) != nil {
					off := int64(o.Offset) % spaceSize
					n := int64(o.Len)%4096 + 1
					if off+n > spaceSize {
						n = spaceSize - off
					}
					m.Touch(pid, off, n, o.Write) // OOM error is fine
				}
			case 2:
				m.MarkStopped(pid)
			case 3:
				m.MarkRunning(pid)
			case 4:
				m.Unregister(pid)
			}
			if err := m.checkInvariants(); err != nil {
				t.Logf("invariant after op %+v: %v", o, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
