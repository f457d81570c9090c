package experiments

import (
	"fmt"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/sweep"
)

// SimBackendName is the name every simulator-driven backend reports, so
// sim results are labelled consistently across scenario grids.
const SimBackendName = "sim"

// PressureGrid is the scenario grid behind the CLI's "pressure" sweep
// and the Figures 3/4 regime: primitive x th allocation x preemption
// point x repetition, with the primitive axis seed-paired.
func PressureGrid(reps int) sweep.Grid {
	return sweep.NewGrid(
		sweep.Stringers("prim", core.Primitives()...),
		sweep.Ints("th_mem_mb", 0, 1024, 2048),
		sweep.Floats("r", 25, 50, 75),
		sweep.Reps(reps),
	).Pair("prim")
}

// PressureCellInto runs one memory-pressure cell on the streaming path:
// the two-job scenario with worst-case tl memory and the cell's th
// allocation.
func PressureCellInto(pt sweep.Point, rec *sweep.Recorder) error {
	return TwoJobCellInto(pt, WorstCaseMemory, int64(pt.Int("th_mem_mb"))<<20, rec)
}

// SimBackend returns the simulator execution backend for a named
// scenario grid — the one place the sim grids are declared. Cell wiring
// and seed derivation are fixed per grid, so its output is
// byte-identical at any parallelism level, shard split or worker count.
//
// Scenarios (before repetitions):
//
//	twojob     primitive x preemption point        (Figures 2a/2b)
//	pressure   primitive x th memory x preemption  (Figures 3/4 regime)
//	cluster    scheduler x nodes x workload mix    (cluster scale-out)
//	evict      fair/hfsp x eviction policy x nodes x mix
//	primitive  fair/hfsp x susp/kill x nodes x mix (seed-paired)
//	scenarios  fair/hfsp x arrival shape x memory skew (generated
//	           preemption scenarios; all scenario axes seed-paired)
//
// jobs sizes the cluster, evict and primitive grids' workloads
// (non-positive means 12); the other grids ignore it.
func SimBackend(scenario string, jobs, reps int) (sweep.Backend, error) {
	var g sweep.Grid
	var run sweep.CellFunc
	switch scenario {
	case "twojob":
		g, run = TwoJobGrid(reps), func(pt sweep.Point, rec *sweep.Recorder) error {
			return TwoJobCellInto(pt, 0, 0, rec)
		}
	case "pressure":
		g, run = PressureGrid(reps), PressureCellInto
	case "cluster":
		g, run = clusterSweep(jobs, reps)
	case "evict":
		g, run = clusterSweep(jobs, reps, evictionPolicyNames()...)
	case "primitive":
		g, run = clusterPrimitiveSweep(jobs, reps)
	case "scenarios":
		g, run = scenarioSweep(reps)
	default:
		return nil, fmt.Errorf("experiments: unknown sim scenario %q (want twojob, pressure, cluster, evict, primitive or scenarios)", scenario)
	}
	return sweep.FuncBackend{Engine: SimBackendName, G: g, Run: run}, nil
}
