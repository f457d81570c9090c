package memory

// Micro-benchmarks for the two hot paths the run-based rewrite targets.
// Run with:
//
//	go test -bench 'BenchmarkTouch|BenchmarkReclaim' -benchmem ./internal/memory/
//
// BenchmarkTouch measures faulting a worst-case (2 GB) region in and
// re-touching it hot; BenchmarkReclaim measures the steady-state thrash
// cycle (two working sets contending for RAM) that dominates Figures 3/4.

import (
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

func benchManager(b *testing.B) (*sim.Engine, *Manager) {
	b.Helper()
	eng := sim.New()
	d := disk.New(eng, "swap", disk.DefaultConfig())
	m, err := New(eng, d, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return eng, m
}

// BenchmarkTouchColdFault faults a 2 GB region into fresh frames — the
// paper's worst-case task allocation phase.
func BenchmarkTouchColdFault(b *testing.B) {
	const region = 2 << 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, m := benchManager(b)
		if _, err := m.Register(1, region); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Touch(1, 0, region, true); err != nil {
			b.Fatal(err)
		}
		m.Unregister(1)
		m.Release()
	}
}

// BenchmarkTouchHot re-touches a resident region (the rotating-buffer
// pattern of a running mapper): no faults, only referenced-bit upkeep.
func BenchmarkTouchHot(b *testing.B) {
	const region = 1 << 30
	_, m := benchManager(b)
	if _, err := m.Register(1, region); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Touch(1, 0, region, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%256) * (4 << 20)
		if _, err := m.Touch(1, off, 4<<20, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReclaim measures the suspend-and-flood cycle: a stopped 2 GB
// task is progressively evicted while a second task faults its own 2 GB
// in, then the first is resumed and read back — Figure 3's mechanism.
func BenchmarkReclaim(b *testing.B) {
	const region = 2 << 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, m := benchManager(b)
		if _, err := m.Register(1, region); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Touch(1, 0, region, true); err != nil {
			b.Fatal(err)
		}
		m.MarkStopped(1)
		if _, err := m.Register(2, region); err != nil {
			b.Fatal(err)
		}
		// Chunked like the simulator's programs, so reclaim interleaves
		// with allocation exactly as in the figure runs.
		for off := int64(0); off < region; off += 8 << 20 {
			if _, err := m.Touch(2, off, 8<<20, true); err != nil {
				b.Fatal(err)
			}
		}
		m.Unregister(2)
		m.MarkRunning(1)
		eng.RunFor(time.Minute)
		if _, err := m.Touch(1, 0, region, false); err != nil {
			b.Fatal(err)
		}
		m.Unregister(1)
		m.Release()
	}
}

// BenchmarkTouchChunkedAlloc follows one map task through the manager:
// its alloc stage faults a 2 GB space 8 MB at a time, then its process
// stage reads 1 GB of input through the page cache in 8 MB HDFS chunks.
// Each fault continues the anonymous extent and page run the previous
// one left, and each fill the cache extent — the edits a two-job cell
// makes most.
func BenchmarkTouchChunkedAlloc(b *testing.B) {
	const region, input, chunk = 2 << 30, 1 << 30, 8 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, m := benchManager(b)
		if _, err := m.Register(1, region); err != nil {
			b.Fatal(err)
		}
		for off := int64(0); off < region; off += chunk {
			if _, err := m.Touch(1, off, chunk, true); err != nil {
				b.Fatal(err)
			}
		}
		for read := int64(0); read < input; read += chunk {
			m.CacheFill(chunk)
		}
		m.Unregister(1)
		m.Release()
	}
}

// BenchmarkUnregister tears down a space of 32 runs whose frames
// interleave with two other spaces', on a list of about 100 extents:
// the shape a task exit meets on a node that has paged. Each iteration
// rebuilds the space off the timer; the teardown leaves its frames on
// the free stack, so the rebuild maps the same frame ranges again.
func BenchmarkUnregister(b *testing.B) {
	const chunk, runs = 1 << 20, 32
	_, m := benchManager(b)
	m.buildExts()
	for pid := PID(1); pid <= 3; pid++ {
		if _, err := m.Register(pid, runs*chunk); err != nil {
			b.Fatal(err)
		}
	}
	touch := func(pid PID, i int) {
		if _, err := m.Touch(pid, int64(i)*chunk, chunk, true); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < runs; i++ {
		for pid := PID(1); pid <= 3; pid++ {
			touch(pid, i)
		}
	}
	if n := m.exts.len(); n < 90 || n > 110 {
		b.Fatalf("%d extents, want about 100", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Unregister(2)
		b.StopTimer()
		if _, err := m.Register(2, runs*chunk); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < runs; r++ {
			touch(2, r)
		}
		if n := len(m.Space(2).runs); n != runs {
			b.Fatalf("rebuilt space has %d runs, want %d", n, runs)
		}
		b.StartTimer()
	}
}
