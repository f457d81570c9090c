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
// scenario grid. It is the existing sweep path behind Figures 2-4
// repackaged behind the sweep.Backend interface: cell wiring and seed
// derivation are unchanged, so its output stays byte-identical to the
// pre-backend harness at any parallelism level.
//
// Scenarios: "twojob" (primitive x preemption point) and "pressure"
// (primitive x th memory x preemption point). The cluster-scale grids
// (cluster, evict, primitive, scenarios) are declared by the facade's
// SimSweep.
func SimBackend(scenario string, reps int) (sweep.Backend, error) {
	switch scenario {
	case "twojob":
		return sweep.FuncBackend{
			Engine: SimBackendName,
			G:      TwoJobGrid(reps),
			Run: func(pt sweep.Point, rec *sweep.Recorder) error {
				return TwoJobCellInto(pt, 0, 0, rec)
			},
		}, nil
	case "pressure":
		return sweep.FuncBackend{
			Engine: SimBackendName,
			G:      PressureGrid(reps),
			Run:    PressureCellInto,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown sim scenario %q (want twojob or pressure)", scenario)
	}
}
