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
// scenario grid — the one place the sim grids are declared, the
// figures' included (see Figures). Cell wiring and seed derivation are
// fixed per grid, so its output is byte-identical at any parallelism
// level, shard split or worker count.
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
//	worstcase  twojob with 2 GB tasks              (Figures 3a/3b)
//	footprint  th memory x primitive               (Figure 4)
//	natjam     wait/susp/checkpoint                (§IV-C ablation)
//	cycles     suspend/resume cycles 0..6          (§III-A; no reps)
//	victim     eviction policy                     (§V-A; no reps)
//	advisor    preemption point x primitive        (§V-A; no reps)
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
	case "worstcase":
		// twojob's cells and seeds, told apart from twojob's by the
		// paired one-value axis: without it the two grids would share a
		// fingerprint, and so a cell-cache keyspace and a coordinator
		// identity.
		mem := sweep.Ints("mem_mb", int(WorstCaseMemory>>20))
		g = sweep.NewGrid(append(TwoJobGrid(reps).Axes, mem)...).Pair("prim", "mem_mb")
		run = func(pt sweep.Point, rec *sweep.Recorder) error {
			m := int64(pt.Int("mem_mb")) << 20
			return TwoJobCellInto(pt, m, m, rec)
		}
	case "footprint":
		// tl holds 2.5 GB; th's allocation sweeps 0..2.5 GB in 625 MB
		// steps, and the paired primitives make the overheads paired
		// differences, as in the paper.
		g = sweep.NewGrid(
			sweep.Ints("th_mem_mb", 0, 625, 1250, 1875, 2500),
			sweep.Stringers("prim", core.Primitives()...),
			sweep.Reps(reps),
		).Pair("prim")
		run = func(pt sweep.Point, rec *sweep.Recorder) error {
			return twoJobCell(pt, 0.5, Figure4TLMemory, int64(pt.Int("th_mem_mb"))<<20, rec)
		}
	case "natjam":
		g = sweep.NewGrid(
			sweep.Stringers("prim", core.Wait, core.Suspend, core.Checkpoint),
			sweep.Reps(reps),
		).Pair("prim")
		run = func(pt sweep.Point, rec *sweep.Recorder) error {
			return twoJobCell(pt, 0.5, 0, 0, rec)
		}
	case "cycles":
		// Paired: every count faces identical cluster randomness, so
		// differences are pure cycle cost.
		g, run = sweep.NewGrid(sweep.Ints("cycles", 0, 1, 2, 3, 4, 5, 6)).Pair("cycles"), cycleCell
	case "victim":
		// Paired: every policy faces the identical contention scenario.
		g = sweep.NewGrid(sweep.Strings("policy",
			"smallest-memory", "largest-memory", "most-progress", "least-progress")).Pair("policy")
		run = victimCell
	case "advisor":
		// r is tl's progress as a fraction, where twojob's is a percent.
		g = sweep.NewGrid(
			sweep.Floats("r", 0.02, 0.25, 0.5, 0.75, 0.97),
			sweep.Stringers("prim", core.Primitives()...),
		).Pair("prim")
		run = func(pt sweep.Point, rec *sweep.Recorder) error {
			return twoJobCell(pt, pt.Float("r"), 0, 0, rec)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown sim scenario %q (want twojob, pressure, cluster, evict, primitive, scenarios, worstcase, footprint, natjam, cycles, victim or advisor)", scenario)
	}
	return sweep.FuncBackend{Engine: SimBackendName, G: g, Run: run}, nil
}
