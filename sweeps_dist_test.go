package hadooppreempt_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	hp "hadooppreempt"
	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/sweep"
)

// renderAll renders a collapsed sweep in every format.
func renderAll(t *testing.T, col *sweep.Collapsed) string {
	t.Helper()
	var out bytes.Buffer
	for _, format := range []string{"csv", "json", "table", "series"} {
		if err := col.Write(&out, format); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

// TestDistributedSweepMatchesLocal serves the paper's two-job grid
// from a coordinator to two workers — single-cell leases so both stay
// busy — and checks the merged result renders byte-identically to the
// in-process sweep in every format.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	backend := func() sweep.Backend {
		b, err := hp.SimSweep("twojob", 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, err := sweep.RunBackend(backend(), sweep.Options{Parallel: 4, Seed: 7}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	b := backend()
	g, err := b.Grid()
	if err != nil {
		t.Fatal(err)
	}
	c := coord.New(coord.Config{Addr: "127.0.0.1:0", LeaseCells: 1, LeaseTTL: time.Minute})
	if _, err := c.Enqueue(coord.Sweep{
		Grid: g, Seed: 7, Collapse: []string{"rep"},
		BackendName: b.Name(), BackendFP: coord.BackendFingerprint(b),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Serve(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for w := range workerErrs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = coord.RunWorker(context.Background(), coord.WorkerConfig{
				Addr: c.Addr(), Backend: backend(), Parallel: 2,
			})
		}(w)
	}
	wg.Wait()
	got, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for w, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if renderAll(t, got) != renderAll(t, want) {
		t.Fatal("distributed sweep output differs from the in-process sweep")
	}
}

// TestClusterPrimitiveSweep checks the new seed-paired primitive axis:
// the grid restricts the scheduler axis to the preempting schedulers,
// pairs susp and kill on identical workload draws, and runs
// deterministically.
func TestClusterPrimitiveSweep(t *testing.T) {
	grid, run := simGrid(t, "primitive", 4, 1)
	wantAxes := []string{"sched", "prim", "nodes", "mix", "rep"}
	if len(grid.Axes) != len(wantAxes) {
		t.Fatalf("grid has %d axes, want %d", len(grid.Axes), len(wantAxes))
	}
	for i, a := range grid.Axes {
		if a.Name != wantAxes[i] {
			t.Fatalf("axis %d is %q, want %q", i, a.Name, wantAxes[i])
		}
	}
	if labels := grid.Axes[0].Values; len(labels) != 2 || labels[0].Label != "fair" || labels[1].Label != "hfsp" {
		t.Fatalf("sched axis %v, want fair/hfsp only (FIFO never preempts)", labels)
	}
	if labels := grid.Axes[1].Values; len(labels) != 2 || labels[0].Label != "susp" || labels[1].Label != "kill" {
		t.Fatalf("prim axis %v, want susp/kill", labels)
	}
	points, err := grid.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed pairing: cells differing only in sched and prim must share a
	// seed, so primitives face identical workload draws.
	bySuffix := make(map[string]uint64)
	for _, pt := range points {
		key := pt.KeyWithout("sched", "prim")
		if seed, ok := bySuffix[key]; ok {
			if pt.Seed != seed {
				t.Fatalf("cell %q seed %d differs from its pair %d", pt.Key(), pt.Seed, seed)
			}
		} else {
			bySuffix[key] = pt.Seed
		}
	}
	render := func(parallel int) string {
		col, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: parallel, Seed: 1}, "rep")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := col.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if render(1) != render(4) {
		t.Fatal("primitive sweep differs across parallelism")
	}
}
