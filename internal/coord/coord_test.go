package coord

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/sweep"
)

// testBackend is a deterministic synthetic backend: measurements derive
// purely from each cell's seed and coordinates, so every worker — and
// the single-process reference run — computes identical values.
type testBackend struct {
	g     sweep.Grid
	delay time.Duration
}

func (b *testBackend) Name() string              { return "test" }
func (b *testBackend) Grid() (sweep.Grid, error) { return b.g, nil }
func (b *testBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	rng := pt.RNG()
	rec.Observe("m0", float64(pt.Index)+rng.Float64())
	if pt.Seed%3 != 0 {
		rec.Observe("m1", rng.Float64()*1e9)
	}
	if pt.Seed%2 == 0 {
		rec.Label("flag", fmt.Sprintf("cell-%d", pt.Index))
	}
	return nil
}

// randomGrid mirrors the sweep package's property-test generator.
func randomGrid(rng *sim.RNG) sweep.Grid {
	axes := 1 + rng.Intn(3)
	g := sweep.Grid{}
	for a := 0; a < axes; a++ {
		name := fmt.Sprintf("ax%d", a)
		size := 1 + rng.Intn(4)
		labels := make([]string, size)
		for v := range labels {
			labels[v] = fmt.Sprintf("v%d", v)
		}
		g.Axes = append(g.Axes, sweep.Strings(name, labels...))
	}
	if rng.Intn(3) == 0 {
		g = g.Pair(g.Axes[rng.Intn(len(g.Axes))].Name)
	}
	return g
}

func randomCollapse(rng *sim.RNG, g sweep.Grid) []string {
	var out []string
	for _, a := range g.Axes {
		if rng.Intn(2) == 0 {
			out = append(out, a.Name)
		}
	}
	return out
}

// encodeAll renders a collapsed result in every output format.
func encodeAll(t *testing.T, c *sweep.Collapsed) string {
	t.Helper()
	var out bytes.Buffer
	for _, format := range []string{"csv", "json", "table", "series"} {
		if err := c.Write(&out, format); err != nil {
			if format == "series" && strings.Contains(err.Error(), "at least one surviving axis") {
				continue // fully collapsed grids have no series form
			}
			t.Fatal(err)
		}
	}
	return out.String()
}

// startCoordinator brings a coordinator up on a loopback port.
func startCoordinator(t *testing.T, cfg Config, g sweep.Grid, seed uint64, collapse ...string) *Coordinator {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.DoneGrace == 0 {
		cfg.DoneGrace = 200 * time.Millisecond
	}
	c := New(cfg)
	if err := c.Start(g, seed, collapse...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDistributedMatchesSingleProcessProperty is the acceptance
// criterion with everything randomized: for random grids, collapse
// sets, seeds, lease sizes, worker counts and join order, the
// coordinator's merged result renders byte-identically to a
// single-process sweep in every format.
func TestDistributedMatchesSingleProcessProperty(t *testing.T) {
	rng := sim.NewRNG(20260728)
	for trial := 0; trial < 12; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		seed := rng.Uint64()
		b := &testBackend{g: g}
		want, err := sweep.RunBackend(b, sweep.Options{Parallel: 4, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		c := startCoordinator(t, Config{
			LeaseCells:  1 + rng.Intn(3),
			LeaseTTL:    time.Minute,
			BackendName: "test",
		}, g, seed, collapse...)
		workers := 1 + rng.Intn(3)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			delay := time.Duration(rng.Intn(20)) * time.Millisecond
			go func(w int) {
				defer wg.Done()
				time.Sleep(delay) // randomize join order
				errs[w] = RunWorker(context.Background(), WorkerConfig{
					Addr:     c.Addr(),
					Backend:  &testBackend{g: g},
					Parallel: 2,
				})
			}(w)
		}
		got, err := c.Wait(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Workers still polling (or still joining) hear "done" while the
		// server is up; only then drain and stop it.
		wg.Wait()
		c.Drain()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: worker %d: %v", trial, w, err)
			}
		}
		if encodeAll(t, got) != encodeAll(t, want) {
			t.Fatalf("trial %d (cells=%d workers=%d): distributed output differs from single-process",
				trial, g.Size(), workers)
		}
	}
}

// rawClient speaks the wire protocol directly so tests can act as a
// worker that misbehaves (takes a lease and goes silent, or reports
// very late).
type rawClient struct {
	t    *testing.T
	base string
	id   joinResponse
}

func newRawClient(t *testing.T, c *Coordinator, g sweep.Grid) *rawClient {
	t.Helper()
	rc := &rawClient{t: t, base: "http://" + c.Addr()}
	err := post(context.Background(), http.DefaultClient, rc.base+"/v1/join", joinRequest{
		Proto:       protocolVersion,
		Backend:     "test",
		Fingerprint: g.Fingerprint(),
		Cells:       g.Size(),
	}, &rc.id)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func (rc *rawClient) lease() leaseResponse {
	rc.t.Helper()
	var lr leaseResponse
	if err := post(context.Background(), http.DefaultClient, rc.base+"/v1/lease",
		leaseRequest{Worker: rc.id.Worker}, &lr); err != nil {
		rc.t.Fatal(err)
	}
	return lr
}

func (rc *rawClient) upload(g sweep.Grid, lr leaseResponse, parallel int) resultResponse {
	rc.t.Helper()
	b := &testBackend{g: g}
	col, err := sweep.RunCells(g, b.Cell, rc.id.Seed, parallel, lr.Cells, rc.id.Collapse...)
	if err != nil {
		rc.t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteShard(&buf); err != nil {
		rc.t.Fatal(err)
	}
	var rr resultResponse
	if err := post(context.Background(), http.DefaultClient, rc.base+"/v1/result",
		resultRequest{Worker: rc.id.Worker, Lease: lr.Lease, Shard: buf.Bytes()}, &rr); err != nil {
		rc.t.Fatal(err)
	}
	return rr
}

// fakeClock is an injectable scheduling clock: tests advance it past
// lease TTLs instead of sleeping through them.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// setClock swaps the coordinator's scheduling clock.
func setClock(c *Coordinator, clk *fakeClock) {
	c.mu.Lock()
	c.now = clk.Now
	c.mu.Unlock()
}

// TestLeaseExpiryReissue: a worker takes a lease and vanishes; once the
// TTL passes (on the injected clock — no real sleep) the coordinator
// re-queues it, a healthy worker finishes the sweep, and the output is
// still byte-identical to single-process.
func TestLeaseExpiryReissue(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(4))
	want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 2, Seed: 9}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	c := startCoordinator(t, Config{LeaseCells: 2, LeaseTTL: 100 * time.Millisecond}, g, 9, "rep")
	clk := &fakeClock{t: time.Now()}
	setClock(c, clk)
	dead := newRawClient(t, c, g)
	if lr := dead.lease(); lr.Status != statusLease {
		t.Fatalf("dead worker got %q, want a lease", lr.Status)
	}
	// The dead worker never reports. A healthy worker joins after the
	// TTL has expired the lease.
	clk.Advance(150 * time.Millisecond)
	if err := RunWorker(context.Background(), WorkerConfig{Addr: c.Addr(), Backend: &testBackend{g: g}, Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Reissues < 1 {
		t.Fatalf("expected at least one reissue, stats %+v", st)
	}
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("output differs after lease reissue")
	}
}

// TestStealAndDuplicateDiscard: a slow worker holds a lease while a
// fast worker drains the queue; the fast worker steals the outstanding
// lease, and the slow worker's late upload is discarded without
// changing the output.
func TestStealAndDuplicateDiscard(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(3))
	want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 2, Seed: 5}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	c := startCoordinator(t, Config{LeaseCells: 2, LeaseTTL: time.Minute}, g, 5, "rep")
	slow := newRawClient(t, c, g)
	held := slow.lease()
	if held.Status != statusLease {
		t.Fatalf("slow worker got %q, want a lease", held.Status)
	}
	// Fast worker drains the queue; with the held lease outstanding and
	// the TTL far away, finishing requires stealing it.
	if err := RunWorker(context.Background(), WorkerConfig{Addr: c.Addr(), Backend: &testBackend{g: g}, Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The slow worker finally reports its (correct) result — discarded.
	if rr := slow.upload(g, held, 1); rr.Accepted {
		t.Fatal("late duplicate result was accepted")
	}
	// A straggler's error for a lease someone else completed is equally
	// irrelevant: it must be discarded, not abort the finished sweep.
	var rr resultResponse
	if err := post(context.Background(), http.DefaultClient, slow.base+"/v1/result",
		resultRequest{Worker: slow.id.Worker, Lease: held.Lease, Error: "late transient failure"}, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Accepted {
		t.Fatal("late error was accepted")
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatalf("late error for a done lease aborted the sweep: %v", err)
	}
	st := c.Stats()
	if st.Steals < 1 || st.Duplicates < 1 {
		t.Fatalf("expected a steal and a discarded duplicate, stats %+v", st)
	}
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("output differs after steal + duplicate discard")
	}
}

// TestJoinRejectsMismatchedWorker: a worker sweeping a different grid
// (or a different backend) is refused at join, before any lease.
func TestJoinRejectsMismatchedWorker(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(2))
	c := startCoordinator(t, Config{BackendName: "test", LeaseTTL: time.Minute}, g, 1, "rep")
	other := sweep.NewGrid(sweep.Strings("a", "x", "z"), sweep.Reps(2))
	err := RunWorker(context.Background(), WorkerConfig{
		Addr: c.Addr(), Backend: &testBackend{g: other}, JoinWindow: time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched grid joined: %v", err)
	}
	c.fail(fmt.Errorf("test over"))
}

// failBackend errors on one cell.
type failBackend struct{ g sweep.Grid }

func (b *failBackend) Name() string              { return "test" }
func (b *failBackend) Grid() (sweep.Grid, error) { return b.g, nil }
func (b *failBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	if pt.Index == 1 {
		return fmt.Errorf("synthetic cell failure")
	}
	rec.Observe("m0", 1)
	return nil
}

// TestWorkerCellErrorAbortsSweep: a deterministic cell error stops the
// sweep with the error surfaced at the coordinator, and later workers
// are told to abort.
func TestWorkerCellErrorAbortsSweep(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(2))
	c := startCoordinator(t, Config{LeaseCells: 4, LeaseTTL: time.Minute}, g, 1, "rep")
	err := RunWorker(context.Background(), WorkerConfig{Addr: c.Addr(), Backend: &failBackend{g: g}, Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
		t.Fatalf("worker error = %v, want the cell failure", err)
	}
	if _, err := c.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
		t.Fatalf("coordinator error = %v, want the cell failure", err)
	}
	err = RunWorker(context.Background(), WorkerConfig{Addr: c.Addr(), Backend: &testBackend{g: g}, Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("late worker error = %v, want abort", err)
	}
}

// TestDispatchBackendViaCoordinator drives the coordinator through the
// Start/Wait/Drain sequence the facade's DistributedSweep uses and
// checks the served sweep is byte-identical to RunBackend.
func TestDispatchBackendViaCoordinator(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y", "z"), sweep.Reps(2))
	b := &testBackend{g: g}
	want, err := sweep.RunBackend(b, sweep.Options{Parallel: 2, Seed: 3}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	workerErr := make(chan error, 1)
	c := New(Config{
		Addr: "127.0.0.1:0", LeaseCells: 2, LeaseTTL: time.Minute,
		DoneGrace: 200 * time.Millisecond,
		// OnListen delivers the bound address; no polling needed.
		OnListen: func(addr string) {
			go func() {
				workerErr <- RunWorker(context.Background(), WorkerConfig{Addr: addr, Backend: &testBackend{g: g}, Parallel: 2})
			}()
		},
	})
	if err := c.Start(g, 3, "rep"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(context.Background())
	c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("served sweep output differs from RunBackend")
	}
}

// TestResultIdempotentReplay: at-least-once delivery of /v1/result. The
// winner's own re-delivered upload is re-acknowledged as accepted
// without double-absorbing into the aggregate; another worker's copy of
// the same lease stays a discarded duplicate.
func TestResultIdempotentReplay(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(2))
	want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 2, Seed: 7}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	c := startCoordinator(t, Config{LeaseCells: 4, LeaseTTL: time.Minute}, g, 7, "rep")
	winner := newRawClient(t, c, g)
	lr := winner.lease()
	if lr.Status != statusLease {
		t.Fatalf("got %q, want a lease", lr.Status)
	}
	if rr := winner.upload(g, lr, 2); !rr.Accepted {
		t.Fatal("first upload rejected")
	}
	// Re-delivered upload from the winner (dropped ack, duplicated
	// request): same verdict, absorbed exactly once.
	if rr := winner.upload(g, lr, 2); !rr.Accepted {
		t.Fatal("winner's replayed upload not re-acknowledged as accepted")
	}
	// The same bytes from a different worker are a duplicate, not a
	// replay.
	other := newRawClient(t, c, g)
	if rr := other.upload(g, lr, 2); rr.Accepted {
		t.Fatal("another worker's duplicate upload was accepted")
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Replays != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want exactly 1 replay and 1 duplicate", st)
	}
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("output differs after replayed upload (double-absorbed?)")
	}
}

// flakyBackend fails chosen cells a fixed number of times, then runs
// them clean — the shape of a transient infrastructure fault.
type flakyBackend struct {
	g     sweep.Grid
	fails int // failures per flaky cell before success

	mu       sync.Mutex
	attempts map[int]int
}

func (b *flakyBackend) Name() string              { return "test" }
func (b *flakyBackend) Grid() (sweep.Grid, error) { return b.g, nil }
func (b *flakyBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	if pt.Index%3 == 1 {
		b.mu.Lock()
		n := b.attempts[pt.Index]
		b.attempts[pt.Index] = n + 1
		b.mu.Unlock()
		if n < b.fails {
			return fmt.Errorf("transient failure %d of cell %d", n+1, pt.Index)
		}
	}
	return (&testBackend{g: b.g}).Cell(pt, rec)
}

// TestLeaseFailureBudget: cell errors within the per-lease budget
// re-queue the lease and the sweep completes byte-identically; a
// deterministic poison cell exhausts the budget and aborts the sweep
// with the lease's cells and the worker error in the diagnostics.
func TestLeaseFailureBudget(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(3))
	want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 2, Seed: 11}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	c := startCoordinator(t, Config{LeaseCells: 2, LeaseTTL: time.Minute}, g, 11, "rep")
	flaky := &flakyBackend{g: g, fails: 1, attempts: make(map[int]int)}
	if err := RunWorker(context.Background(), WorkerConfig{Addr: c.Addr(), Backend: flaky, Parallel: 2}); err != nil {
		t.Fatalf("worker with in-budget flaky cells failed: %v", err)
	}
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Failures < 1 {
		t.Fatalf("stats = %+v, want absorbed failures", st)
	}
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("output differs after in-budget cell failures")
	}

	// Poison: the same cell fails every attempt; the budget (2) is
	// exhausted and the sweep aborts with diagnostics instead of
	// re-issuing forever.
	c2 := startCoordinator(t, Config{LeaseCells: 4, LeaseTTL: time.Minute, MaxLeaseFailures: 2}, g, 11, "rep")
	err = RunWorker(context.Background(), WorkerConfig{Addr: c2.Addr(), Backend: &failBackend{g: g}, Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
		t.Fatalf("worker error = %v, want the cell failure", err)
	}
	_, err = c2.Wait(context.Background())
	if err == nil {
		t.Fatal("poison cell did not abort the sweep")
	}
	for _, frag := range []string{"poison cell", "budget 2", "cells [", "synthetic cell failure", `cell "`} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("abort diagnostics %q missing %q", err, frag)
		}
	}
}
