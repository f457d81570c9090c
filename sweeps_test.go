package hadooppreempt_test

import (
	"bytes"
	"slices"
	"testing"

	hp "hadooppreempt"
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sweep"
)

// simGrid returns the named sim grid and its cell runner, as declared by
// experiments.SimBackend, so a test may trim the grid's axes before
// running it.
func simGrid(t *testing.T, scenario string, jobs, reps int) (sweep.Grid, sweep.CellFunc) {
	t.Helper()
	b, err := experiments.SimBackend(scenario, jobs, reps)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Grid()
	if err != nil {
		t.Fatal(err)
	}
	return g, b.Cell
}

// TestTwoJobSweepEndToEnd drives the paper's two-job scenario grid
// through the streaming-collapse harness and checks the headline
// qualitative claim: the smaller (high-priority) job's sojourn improves
// under suspend compared to kill at every preemption point.
func TestTwoJobSweepEndToEnd(t *testing.T) {
	grid, run := simGrid(t, "twojob", 0, 1)
	col, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: 4, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	sojourn := make(map[string]map[string]float64) // prim -> r -> mean
	for _, g := range col.Groups {
		prim := g.Labels["prim"]
		if sojourn[prim] == nil {
			sojourn[prim] = make(map[string]float64)
		}
		sojourn[prim][g.Labels["r"]] = g.Metrics["sojourn_th_s"].Mean
	}
	if len(sojourn["susp"]) != 9 || len(sojourn["kill"]) != 9 {
		t.Fatalf("expected 9 preemption points per primitive, got susp=%d kill=%d",
			len(sojourn["susp"]), len(sojourn["kill"]))
	}
	for r, susp := range sojourn["susp"] {
		kill := sojourn["kill"][r]
		if susp >= kill {
			t.Errorf("at r=%s%%: susp sojourn %.1fs should beat kill %.1fs", r, susp, kill)
		}
	}
}

// TestSweepParallelismByteIdentical is the acceptance criterion: the
// same seed produces byte-identical aggregate output regardless of the
// worker pool size.
func TestSweepParallelismByteIdentical(t *testing.T) {
	render := func(parallel int) (string, string) {
		grid, run := simGrid(t, "twojob", 0, 1)
		col, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: parallel, Seed: 42}, "rep")
		if err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := col.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String(), js.String()
	}
	csv1, js1 := render(1)
	csv8, js8 := render(8)
	if csv1 != csv8 {
		t.Fatal("CSV output differs between -parallel 1 and -parallel 8")
	}
	if js1 != js8 {
		t.Fatal("JSON output differs between -parallel 1 and -parallel 8")
	}
}

// TestSweepShardMergeByteIdentical runs the two-job grid as three
// shards — through the serialized shard-file form — and checks the
// merged result renders byte-identically to the unsharded sweep in
// every format.
func TestSweepShardMergeByteIdentical(t *testing.T) {
	const shards = 3
	render := func(col *sweep.Collapsed) string {
		var out bytes.Buffer
		for _, format := range []string{"csv", "json", "table"} {
			if err := col.Write(&out, format); err != nil {
				t.Fatal(err)
			}
		}
		return out.String()
	}
	grid, run := simGrid(t, "twojob", 0, 2)
	full, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: 4, Seed: 7}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*sweep.Collapsed, shards)
	for i := 0; i < shards; i++ {
		grid, run := simGrid(t, "twojob", 0, 2)
		opts := sweep.Options{Parallel: 4, Seed: 7, Shard: sweep.Shard{Index: i, Count: shards}}
		col, err := sweep.RunCollapsed(grid, run, opts, "rep")
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := col.WriteShard(&file); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = sweep.ReadShard(&file); err != nil {
			t.Fatal(err)
		}
	}
	// Merge in a non-trivial order to exercise order independence.
	merged, err := sweep.Merge(parts[2], parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if render(merged) != render(full) {
		t.Fatal("merged shard output differs from the single-process sweep")
	}
}

// TestSimSweepBackendMatchesCanned proves the facade's SimSweep changed
// no bytes: SimSweep("twojob") renders identically to the two-job grid
// and cell wiring run directly, at any parallelism.
func TestSimSweepBackendMatchesCanned(t *testing.T) {
	b, err := hp.SimSweep("twojob", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "sim" {
		t.Errorf("backend name = %q, want sim", b.Name())
	}
	viaBackend, err := sweep.RunBackend(b, sweep.Options{Parallel: 8, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.RunCollapsed(experiments.TwoJobGrid(1), func(pt sweep.Point, rec *sweep.Recorder) error {
		return experiments.TwoJobCellInto(pt, 0, 0, rec)
	}, sweep.Options{Parallel: 2, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := viaBackend.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("SimSweep backend output differs from the canned twojob sweep")
	}
	if _, err := hp.SimSweep("nope", 0, 1); err == nil {
		t.Fatal("unknown scenario should fail")
	}
}

// TestEvictSweepCoversPolicies checks the eviction-policy axis: the
// grid restricts to the preempting schedulers, carries one value per
// policy, and a reduced slice runs to completion with the policy label
// reaching the cluster.
func TestEvictSweepCoversPolicies(t *testing.T) {
	grid, run := simGrid(t, "evict", 4, 1)
	var sched, evict *sweep.Axis
	for i, a := range grid.Axes {
		switch a.Name {
		case "sched":
			sched = &grid.Axes[i]
		case "evict":
			evict = &grid.Axes[i]
		case "nodes":
			grid.Axes[i].Values = a.Values[:1]
		case "mix":
			grid.Axes[i].Values = a.Values[1:2]
		}
	}
	if sched == nil || evict == nil {
		t.Fatal("expected sched and evict axes")
	}
	if len(sched.Values) != 2 {
		t.Fatalf("sched axis has %d values, want fair+hfsp only", len(sched.Values))
	}
	var policies []string
	for _, v := range evict.Values {
		policies = append(policies, v.Label)
	}
	if want := []string{"most-progress", "least-progress", "smallest-memory", "largest-memory"}; !slices.Equal(policies, want) {
		t.Fatalf("evict axis = %v, want %v", policies, want)
	}
	// Run two policies to keep the test quick.
	evict.Values = evict.Values[:2]
	col, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: 4, Seed: 5}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 4 {
		t.Fatalf("groups = %d, want sched x evict = 4", len(col.Groups))
	}
	for _, g := range col.Groups {
		if g.Metrics["sojourn_mean_s"].Mean <= 0 {
			t.Errorf("%s: non-positive mean sojourn", g.Key)
		}
	}
	// An unknown policy must surface as a cell error, proving the axis
	// value actually reaches the cluster's eviction wiring.
	badGrid, badRun := simGrid(t, "evict", 2, 1)
	for i, a := range badGrid.Axes {
		switch a.Name {
		case "sched", "nodes", "mix":
			badGrid.Axes[i].Values = a.Values[:1]
		case "evict":
			badGrid.Axes[i] = sweep.Strings("evict", "no-such-policy")
		}
	}
	if _, err := sweep.RunCollapsed(badGrid, badRun, sweep.Options{Parallel: 1, Seed: 1}, "rep"); err == nil {
		t.Fatal("unknown eviction policy should fail the cell")
	}
}

// TestClusterSweepRuns smoke-tests the cluster-scale grid on a reduced
// slice: every scheduler completes a small workload and reports sane
// aggregates.
func TestClusterSweepRuns(t *testing.T) {
	grid, run := simGrid(t, "cluster", 4, 1)
	// Reduce to one node count and one mix to keep the test quick.
	for i, a := range grid.Axes {
		switch a.Name {
		case "nodes":
			grid.Axes[i].Values = a.Values[:1]
		case "mix":
			grid.Axes[i].Values = a.Values[1:2]
		}
	}
	col, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: 3, Seed: 5}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 schedulers", len(col.Groups))
	}
	for _, g := range col.Groups {
		if g.Metrics["sojourn_mean_s"].Mean <= 0 {
			t.Errorf("scheduler %s reported non-positive mean sojourn", g.Labels["sched"])
		}
		if g.Metrics["sojourn_p95_s"].Mean < g.Metrics["sojourn_mean_s"].Mean {
			t.Errorf("scheduler %s: p95 below mean", g.Labels["sched"])
		}
	}
}

// TestQuiescentHeartbeatParity is the heartbeat fast path's proof
// obligation in unit-test form: skipping provably no-op scheduler
// consultations must be invisible in every output byte. The two-job
// grid renders CSV+JSON with the fast path enabled and disabled — at
// -parallel 1, -parallel 8, and through a 3-way shard/merge — and each
// pairing must be identical.
func TestQuiescentHeartbeatParity(t *testing.T) {
	defer mapreduce.SetQuiescentHeartbeats(true)
	render := func(col *sweep.Collapsed) string {
		var out bytes.Buffer
		if err := col.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	direct := func(parallel int) string {
		grid, run := simGrid(t, "twojob", 0, 1)
		col, err := sweep.RunCollapsed(grid, run, sweep.Options{Parallel: parallel, Seed: 13}, "rep")
		if err != nil {
			t.Fatal(err)
		}
		return render(col)
	}
	sharded := func() string {
		const shards = 3
		parts := make([]*sweep.Collapsed, shards)
		for i := 0; i < shards; i++ {
			grid, run := simGrid(t, "twojob", 0, 1)
			opts := sweep.Options{Parallel: 4, Seed: 13, Shard: sweep.Shard{Index: i, Count: shards}}
			col, err := sweep.RunCollapsed(grid, run, opts, "rep")
			if err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if err := col.WriteShard(&file); err != nil {
				t.Fatal(err)
			}
			if parts[i], err = sweep.ReadShard(&file); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := sweep.Merge(parts[2], parts[0], parts[1])
		if err != nil {
			t.Fatal(err)
		}
		return render(merged)
	}
	type variant struct {
		name string
		run  func() string
	}
	variants := []variant{
		{"parallel=1", func() string { return direct(1) }},
		{"parallel=8", func() string { return direct(8) }},
		{"shard/merge", sharded},
	}
	for _, v := range variants {
		mapreduce.SetQuiescentHeartbeats(true)
		fast := v.run()
		mapreduce.SetQuiescentHeartbeats(false)
		slow := v.run()
		if fast != slow {
			t.Fatalf("%s: output differs with the quiescent fast path on vs off", v.name)
		}
		if len(fast) == 0 {
			t.Fatalf("%s: empty output", v.name)
		}
	}
}
