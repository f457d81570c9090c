package experiments

import (
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/genload"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

// clusterSweep returns the grid and runner for the cluster-scale
// scenario: scheduler x node count x workload mix x repetition (27 cells
// per repetition). Every cell boots an isolated cluster, installs a
// deterministic SWIM-style workload of jobs jobs, runs it to completion
// and reports sojourn statistics, preemption counts and swap traffic.
//
// Passing eviction policies adds an "evict" axis and restricts the
// scheduler axis to the preempting schedulers (fair, hfsp), so
// victim-selection policies get the same grid coverage as the two-job
// scenario; FIFO never preempts, which would make the axis inert.
func clusterSweep(jobs, reps int, evictionPolicies ...string) (sweep.Grid, sweep.CellFunc) {
	if jobs <= 0 {
		jobs = 12
	}
	axes := []sweep.Axis{sweep.Strings("sched", "fifo", "fair", "hfsp")}
	paired := []string{"sched"}
	if len(evictionPolicies) > 0 {
		axes = []sweep.Axis{
			sweep.Strings("sched", "fair", "hfsp"),
			sweep.Strings("evict", evictionPolicies...),
		}
		// Pairing the policy axis gives every policy the identical
		// workload draw, so outcome differences are pure policy effect —
		// the paper's paired-comparison methodology.
		paired = append(paired, "evict")
	}
	axes = append(axes,
		sweep.Ints("nodes", 1, 2, 4),
		sweep.Strings("mix", "interactive", "mixed", "batch"),
		sweep.Reps(reps),
	)
	g := sweep.NewGrid(axes...).Pair(paired...)
	run := clusterCell(jobs, func(pt sweep.Point) (core.Primitive, string) {
		if len(evictionPolicies) > 0 {
			return core.Suspend, pt.Label("evict")
		}
		return core.Suspend, ""
	})
	return g, run
}

// clusterPrimitiveSweep returns the cluster-scale grid with a
// seed-paired preemption-primitive axis: scheduler (fair, hfsp) x
// primitive (susp, kill) x node count x workload mix x repetition. Like
// the eviction-policy axis, the primitive axis is restricted to the
// preempting schedulers (FIFO never preempts, which would make the axis
// inert) and seed-paired, so susp and kill face identical workload
// draws and outcome differences are pure primitive effect — the
// paper's paired comparison, scaled from the two-job scenario to
// scheduler-driven preemption on a full cluster.
func clusterPrimitiveSweep(jobs, reps int) (sweep.Grid, sweep.CellFunc) {
	if jobs <= 0 {
		jobs = 12
	}
	g := sweep.NewGrid(
		sweep.Strings("sched", "fair", "hfsp"),
		sweep.Stringers("prim", core.Suspend, core.Kill),
		sweep.Ints("nodes", 1, 2, 4),
		sweep.Strings("mix", "interactive", "mixed", "batch"),
		sweep.Reps(reps),
	).Pair("sched", "prim")
	run := clusterCell(jobs, func(pt sweep.Point) (core.Primitive, string) {
		return pt.Value("prim").(core.Primitive), ""
	})
	return g, run
}

// clusterCell returns the shared cluster-scale cell runner: boot an
// isolated cluster from the cell's coordinates, install a deterministic
// SWIM-style workload, run it to completion and record sojourn
// statistics and swap traffic (see workload.Run). axes reads the
// grid-specific axes (preemption primitive, eviction policy) from the
// cell.
func clusterCell(jobs int, axes func(sweep.Point) (core.Primitive, string)) sweep.CellFunc {
	return func(pt sweep.Point, rec *sweep.Recorder) error {
		prim, policy := axes(pt)
		c, _, err := cellCluster(pt, pt.Int("nodes"), prim, policy, 0)
		if err != nil {
			return err
		}
		defer c.Close()
		specs, err := workload.Generate(workloadMix(pt.Label("mix"), jobs), sim.NewRNG(pt.Seed))
		if err != nil {
			return err
		}
		return workload.Run(c, specs, 0, 24*time.Hour, rec)
	}
}

// cellCluster boots the isolated cluster of one cluster-scale cell:
// nodes nodes of two map slots each, seeded from the cell, running the
// scheduler its "sched" axis names.
func cellCluster(pt sweep.Point, nodes int, prim core.Primitive, policy string, timeout time.Duration) (*mapreduce.Cluster, *scheduler.Installation, error) {
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = nodes
	ccfg.Node.MapSlots = 2
	ccfg.Seed = pt.Seed
	c, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return nil, nil, err
	}
	sched, err := scheduler.Install(c, pt.Label("sched"), prim, policy, timeout)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, sched, nil
}

// scenarioSweep returns the generated-scenario grid and runner:
// scheduler (fair, hfsp) x arrival shape (burst, steady) x memory skew
// (uniform, skewed) x repetition, every cell a 2-node x 2-slot cluster
// running a genload trace with the scenario's starvation timeout wired
// into the scheduler. All three scenario axes are seed-paired, so every
// cell of a repetition faces the same base seed — and because the
// generator draws each randomness axis from its own substream, the
// skewed cell sees the identical arrival times and input sizes as its
// uniform twin, making outcome differences pure axis effect. The burst
// cells are the preemption showcase: the fair scheduler's preemption
// counter, inert in the SWIM-style cluster sweeps (single pool), is
// nonzero here by construction (a regression test pins this).
func scenarioSweep(reps int) (sweep.Grid, sweep.CellFunc) {
	g := sweep.NewGrid(
		sweep.Strings("sched", "fair", "hfsp"),
		sweep.Strings("arrival", "burst", "steady"),
		sweep.Strings("mem", "uniform", "skewed"),
		sweep.Reps(reps),
	).Pair("sched", "arrival", "mem")
	run := func(pt sweep.Point, rec *sweep.Recorder) error {
		sc := genload.Default()
		if pt.Label("arrival") == "steady" {
			// One job per "burst": a steady trickle at the jitter cadence,
			// pools still alternating job to job.
			sc.BurstSize = 1
			sc.BurstGap = 15 * time.Second
		}
		if pt.Label("mem") == "skewed" {
			sc.HeavyFrac = 0.5
		}
		c, sched, err := cellCluster(pt, 2, core.Suspend, "", sc.StarvationTimeout)
		if err != nil {
			return err
		}
		defer c.Close()
		specs, err := sc.Generate(pt.Seed)
		if err != nil {
			return err
		}
		if err := workload.Run(c, specs, 0, 24*time.Hour, rec); err != nil {
			return err
		}
		rec.Observe("preemptions", float64(sched.Preemptions()))
		rec.Observe("resumes", float64(sched.Resumes()))
		return nil
	}
	return g, run
}

// evictionPolicyNames lists the victim-selection policies the evict
// sweep covers.
func evictionPolicyNames() []string {
	return []string{"most-progress", "least-progress", "smallest-memory", "largest-memory"}
}

// workloadMix builds the named workload configuration: "mixed" is the
// default interactive/batch blend, "interactive" and "batch" isolate one
// class each.
func workloadMix(mix string, jobs int) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Count = jobs
	switch mix {
	case "interactive":
		cfg.Classes = cfg.Classes[:1]
	case "batch":
		cfg.Classes = cfg.Classes[1:]
	}
	return cfg
}
