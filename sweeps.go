package hadooppreempt

import (
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/genload"
	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

// SimSweep resolves a named simulator scenario to an execution backend:
// "twojob", "pressure", "cluster", "evict" (the cluster grid with the
// eviction-policy axis), "primitive" (the cluster grid with the
// seed-paired susp-vs-kill axis), "scenarios" (the generated
// preemption-scenario grid), or one of the figure grids "worstcase",
// "footprint", "natjam", "cycles", "victim" and "advisor". The grids
// are declared by experiments.SimBackend; every cell seed derives from
// grid coordinates, so output is byte-identical at any parallelism
// level.
func SimSweep(scenario string, jobs, reps int) (sweep.Backend, error) {
	return experiments.SimBackend(scenario, jobs, reps)
}

// DefaultGenScenario returns the seeded scenario generator's tuned
// default (see internal/genload): pool-alternating bursts sized so the
// fair scheduler demonstrably preempts on the scenario sweep's
// 2x2-slot cluster.
func DefaultGenScenario() genload.Scenario { return genload.Default() }

// SynthesizeSWIMTrace generates an n-job Facebook-like SWIM trace,
// deterministic in n alone (fixed generator seed), so independent
// processes — benchmark harnesses, CI smoke jobs, distributed workers —
// regenerate byte-identical traces without shipping a trace file.
func SynthesizeSWIMTrace(n int) ([]workload.TraceJob, error) {
	return workload.SynthesizeTrace(n, 1)
}
