package hadooppreempt_test

import (
	"bytes"
	"testing"
	"time"

	hp "hadooppreempt"

	"hadooppreempt/internal/genload"
	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/sweep"
)

// runScenario boots the scenario sweep's cluster shape for one
// generated trace and runs it to completion.
func runScenario(t *testing.T, sc genload.Scenario, kind hp.SchedulerKind, seed uint64) *hp.Cluster {
	t.Helper()
	c, err := hp.New(hp.Options{
		Nodes:             2,
		MapSlotsPerNode:   2,
		Scheduler:         kind,
		Seed:              seed,
		PreemptionTimeout: sc.StarvationTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := sc.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallWorkload(specs); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilJobsDone(24 * time.Hour) {
		t.Fatal("generated scenario did not converge")
	}
	return c
}

// TestFairPreemptsOnDefaultScenario is the satellite regression test:
// the tuned default burst scenario makes the fair scheduler's
// preemption path fire — the coverage the SWIM-style cluster sweeps
// never provide, because their single-pool workloads give fair no
// over-share pool to victimize.
func TestFairPreemptsOnDefaultScenario(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		c := runScenario(t, genload.Default(), hp.SchedulerFair, seed)
		if got := c.Preemptions(); got == 0 {
			t.Errorf("seed %d: fair issued no preemptions on the default burst scenario", seed)
		}
	}
}

// TestScenarioFuzzConverges drives randomized scenarios (the fuzzer
// side of the generator) through full fair and hfsp clusters: whatever
// shape Randomize draws, the simulation must converge and the
// preemption/resume counters must stay consistent.
func TestScenarioFuzzConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing full cluster runs is slow")
	}
	rng := sim.NewRNG(99)
	for trial := 0; trial < 6; trial++ {
		sc := genload.Randomize(rng)
		sc.Jobs = 1 + sc.Jobs%6 // bound virtual work per trial
		seed := rng.Uint64()
		for _, kind := range []hp.SchedulerKind{hp.SchedulerFair, hp.SchedulerHFSP} {
			c := runScenario(t, sc, kind, seed)
			if c.Resumes() > c.Preemptions() {
				t.Errorf("trial %d kind %d: %d resumes exceed %d preemptions",
					trial, kind, c.Resumes(), c.Preemptions())
			}
		}
	}
}

// TestScenarioSweepDeterminism is the acceptance criterion for the new
// grid: -sweep scenarios output is byte-identical across worker-pool
// sizes and across a 3-way shard split merged in scrambled order.
func TestScenarioSweepDeterminism(t *testing.T) {
	render := func(col *sweep.Collapsed) string {
		var out bytes.Buffer
		for _, format := range []string{"csv", "json", "table"} {
			if err := col.Write(&out, format); err != nil {
				t.Fatal(err)
			}
		}
		return out.String()
	}
	run := func(parallel int, shard *sweep.Shard) *sweep.Collapsed {
		grid, cell := simGrid(t, "scenarios", 0, 2)
		opts := sweep.Options{Parallel: parallel, Seed: 7}
		if shard != nil {
			opts.Shard = *shard
		}
		col, err := sweep.RunCollapsed(grid, cell, opts, "rep")
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	full := render(run(1, nil))
	if got := render(run(8, nil)); got != full {
		t.Fatal("scenarios sweep output differs between -parallel 1 and -parallel 8")
	}
	const shards = 3
	parts := make([]*sweep.Collapsed, shards)
	for i := 0; i < shards; i++ {
		col := run(4, &sweep.Shard{Index: i, Count: shards})
		var file bytes.Buffer
		if err := col.WriteShard(&file); err != nil {
			t.Fatal(err)
		}
		var err error
		if parts[i], err = sweep.ReadShard(&file); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := sweep.Merge(parts[2], parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if render(merged) != full {
		t.Fatal("merged scenarios shards differ from the single-process sweep")
	}
}

// TestScenarioSweepShowsPreemption checks the grid tells the story it
// exists for: the burst cells report nonzero fair preemptions, and the
// seed-paired axes hold arrival times steady across the memory axis
// (the per-axis stream contract, observed end to end through the
// makespan of the uniform vs skewed steady cells).
func TestScenarioSweepShowsPreemption(t *testing.T) {
	grid, cell := simGrid(t, "scenarios", 0, 2)
	col, err := sweep.RunCollapsed(grid, cell, sweep.Options{Parallel: 8, Seed: 1}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range col.Groups {
		if g.Labels["sched"] == "fair" && g.Labels["arrival"] == "burst" {
			found = true
			if g.Metrics["preemptions"].Mean == 0 {
				t.Errorf("fair/burst/%s cell reports zero preemptions", g.Labels["mem"])
			}
		}
	}
	if !found {
		t.Fatal("no fair burst cells in the scenarios sweep")
	}
}
