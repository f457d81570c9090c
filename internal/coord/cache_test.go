package coord

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"hadooppreempt/internal/sweep"
)

// countingTestBackend is the synthetic test backend plus an execution
// counter, so cache tests can tell replayed cells from executed ones.
type countingTestBackend struct {
	testBackend
	executed atomic.Int64
}

func (b *countingTestBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	b.executed.Add(1)
	return b.testBackend.Cell(pt, rec)
}

// fillCache runs the sweep single-process with the cache attached, so
// every cell has a verified entry, and returns the reference rendering.
func fillCache(t *testing.T, cache *sweep.Cache, g sweep.Grid, seed uint64, collapse ...string) string {
	t.Helper()
	want, err := sweep.RunBackend(&testBackend{g: g},
		sweep.Options{Parallel: 2, Seed: seed, Cache: cache}, collapse...)
	if err != nil {
		t.Fatal(err)
	}
	return encodeAll(t, want)
}

// TestCoordinatorRetiresWarmSweepWithoutWorkers: with every cell of the
// sweep cached, the coordinator retires all leases at Serve time and
// completes with no worker ever joining — and the replayed result is
// byte-identical to the run that filled the cache.
func TestCoordinatorRetiresWarmSweepWithoutWorkers(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("mode", "a", "b"), sweep.Floats("x", 1, 2, 3), sweep.Reps(2))
	seed := uint64(11)
	cache, err := sweep.NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	want := fillCache(t, cache, g, seed, sweep.RepAxis)

	c := startCoordinator(t, Config{
		LeaseCells:  3,
		LeaseTTL:    time.Minute,
		BackendName: "test",
		Cache:       cache,
	}, g, seed, sweep.RepAxis)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if encodeAll(t, got) != want {
		t.Fatal("cache-retired sweep differs from the run that filled the cache")
	}
	st := c.Status()
	if st.Cache == nil || st.Cache.Hits != int64(g.Size()) {
		t.Fatalf("status cache counters = %+v, want %d hits", st.Cache, g.Size())
	}
	for _, ss := range st.Sweeps {
		if ss.CellsDone != ss.Cells || ss.LeasesDone != ss.Leases {
			t.Fatalf("sweep %d not fully retired: %+v", ss.Sweep, ss)
		}
	}
}

// TestCoordinatorPartialCacheUsesWorkersForTheRest: with only some
// leases fully cached, the coordinator retires those and leases the
// remainder to a worker; the merged output is still byte-identical, and
// the worker executes only the uncached cells.
func TestCoordinatorPartialCacheUsesWorkersForTheRest(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("mode", "a", "b"), sweep.Floats("x", 1, 2, 3), sweep.Reps(2))
	seed := uint64(13)
	want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 2, Seed: seed}, sweep.RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sweep.NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	// Cache the first half of the grid by hand: with LeaseCells 3, the
	// first two leases are fully covered and the rest are not.
	sc := cache.Sweep("test", "", g, seed)
	points, err := g.Points(seed)
	if err != nil {
		t.Fatal(err)
	}
	b := &testBackend{g: g}
	cached := g.Size() / 2
	for _, pt := range points[:cached] {
		rec := &sweep.Recorder{}
		if err := b.Cell(pt, rec); err != nil {
			t.Fatal(err)
		}
		sc.Store(pt.Index, rec)
	}

	c := startCoordinator(t, Config{
		LeaseCells:  3,
		LeaseTTL:    time.Minute,
		BackendName: "test",
		Cache:       cache,
	}, g, seed, sweep.RepAxis)
	wb := &countingTestBackend{testBackend: testBackend{g: g}}
	werrc := make(chan error, 1)
	go func() {
		werrc <- RunWorker(context.Background(), WorkerConfig{
			Addr:     c.Addr(),
			Backend:  wb,
			Parallel: 2,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werrc; err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("partially cached distributed output differs from single-process")
	}
	if n := wb.executed.Load(); n != int64(g.Size()-cached) {
		t.Fatalf("worker executed %d cells, want the %d uncached", n, g.Size()-cached)
	}
}

// TestWorkerSkipsCachedCells: a worker given a warm cache uploads real
// results without executing a single cell, and the coordinator accepts
// them as usual.
func TestWorkerSkipsCachedCells(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("mode", "a", "b"), sweep.Reps(3))
	seed := uint64(17)
	cache, err := sweep.NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	want := fillCache(t, cache, g, seed, sweep.RepAxis)

	// Coordinator has no cache; only the worker replays.
	c := startCoordinator(t, Config{
		LeaseCells:  2,
		LeaseTTL:    time.Minute,
		BackendName: "test",
	}, g, seed, sweep.RepAxis)
	wb := &countingTestBackend{testBackend: testBackend{g: g}}
	werrc := make(chan error, 1)
	go func() {
		werrc <- RunWorker(context.Background(), WorkerConfig{
			Addr:     c.Addr(),
			Backend:  wb,
			Parallel: 2,
			Cache:    cache,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werrc; err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if encodeAll(t, got) != want {
		t.Fatal("worker cache replay differs from the run that filled the cache")
	}
	if n := wb.executed.Load(); n != 0 {
		t.Fatalf("worker executed %d cells with a warm cache", n)
	}
}

// TestResumeThenCacheNeverDoubleAbsorbs: a checkpointed coordinator
// that already accepted results restores them on -resume and must skip
// those leases during cache replay — the restored accumulator plus the
// cache-retired remainder still renders byte-identically.
func TestResumeThenCacheNeverDoubleAbsorbs(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("mode", "a", "b"), sweep.Floats("x", 1, 2, 3), sweep.Reps(2))
	seed := uint64(19)
	cache, err := sweep.NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	want := fillCache(t, cache, g, seed, sweep.RepAxis)
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")

	// First incarnation: no cache. A raw worker uploads exactly one
	// lease, which the checkpoint makes durable, then the coordinator
	// dies.
	c1 := startCoordinator(t, Config{
		LeaseCells:  3,
		LeaseTTL:    time.Minute,
		BackendName: "test",
		Checkpoint:  ckpt,
	}, g, seed, sweep.RepAxis)
	rc := newRawClient(t, c1, g)
	lr := rc.lease()
	if lr.Status != statusLease {
		t.Fatalf("lease status %q", lr.Status)
	}
	if rr := rc.upload(g, lr, 2); !rr.Accepted {
		t.Fatal("upload not accepted")
	}
	c1.Close()

	// Second incarnation: resume the ledger, then retire the remaining
	// leases from cache. The uploaded lease must not be replayed again.
	c2, err := resume(Config{
		Addr:        "127.0.0.1:0",
		LeaseCells:  3,
		LeaseTTL:    time.Minute,
		DoneGrace:   200 * time.Millisecond,
		BackendName: "test",
		Checkpoint:  ckpt,
		Cache:       cache,
	}, g, seed, sweep.RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := c2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if encodeAll(t, got) != want {
		t.Fatal("resume-plus-cache output differs: a lease was double-absorbed or lost")
	}
	if st := c2.Status(); st.Cache == nil || st.Cache.Hits != int64(g.Size()-len(lr.Cells)) {
		t.Fatalf("cache hits = %+v, want exactly the %d non-restored cells",
			st.Cache, g.Size()-len(lr.Cells))
	}
}
