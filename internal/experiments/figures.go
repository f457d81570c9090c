package experiments

import (
	"fmt"
	"strings"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/metrics"
	"hadooppreempt/internal/sweep"
)

// WorstCaseMemory is the 2 GB allocation of the Figure 3 experiments.
const WorstCaseMemory int64 = 2 << 30

// Figure4TLMemory is tl's fixed 2.5 GB allocation in Figure 4.
const Figure4TLMemory int64 = 2560 << 20

// Config controls how the figure generators execute their scenario
// grids through the sweep harness.
type Config struct {
	// Reps is the repetitions per data point (the paper averages 20).
	Reps int
	// Seed is the base seed; every cell derives its own stream from it.
	Seed uint64
	// Parallel bounds the harness worker pool; values below 1 run
	// serially. Results are identical at any level.
	Parallel int
}

// options converts the config to harness options, defaulting Reps to 1.
func (c Config) options() sweep.Options {
	return sweep.Options{Parallel: c.Parallel, Seed: c.Seed}
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 1
	}
	return c.Reps
}

// ProgressSweep returns the x-axis of Figures 2 and 3: tl progress at
// launch of th, 10%..90%.
func ProgressSweep() []float64 {
	out := make([]float64, 0, 9)
	for r := 10; r <= 90; r += 10 {
		out = append(out, float64(r))
	}
	return out
}

// ComparisonResult holds one figure pair: a sojourn-time series and a
// makespan series per primitive, averaged over repetitions.
type ComparisonResult struct {
	// Sojourn maps primitive name to th's sojourn time (seconds) vs tl
	// progress (%).
	Sojourn map[string]*metrics.Series
	// Makespan maps primitive name to workload makespan (seconds).
	Makespan map[string]*metrics.Series
}

// TwoJobGrid is the scenario grid behind Figures 2 and 3 and the CLI's
// "twojob" sweep: primitive x preemption point x repetition, with the
// primitive axis seed-paired so the three primitives face identical
// randomness at each point.
func TwoJobGrid(reps int) sweep.Grid {
	return sweep.NewGrid(
		sweep.Stringers("prim", core.Primitives()...),
		sweep.Floats("r", ProgressSweep()...),
		sweep.Reps(reps),
	).Pair("prim")
}

// TwoJobCellInto runs one two-job scenario cell — the point must carry
// the "prim" and "r" axes of TwoJobGrid — and records the standard
// outcome values ("paged_mb" is tl's swap-out volume, Figure 4's
// y-axis; the swap totals cover both jobs).
func TwoJobCellInto(pt sweep.Point, tlMem, thMem int64, rec *sweep.Recorder) error {
	p := DefaultTwoJobParams()
	p.Primitive = pt.Value("prim").(core.Primitive)
	p.PreemptAt = pt.Float("r") / 100
	p.TLExtraMemory = tlMem
	p.THExtraMemory = thMem
	p.Seed = pt.Seed
	out, err := RunTwoJob(p)
	if err != nil {
		return err
	}
	rec.Observe("sojourn_th_s", out.SojournTH.Seconds())
	rec.Observe("makespan_s", out.Makespan.Seconds())
	rec.Observe("paged_mb", float64(out.SwapOutTL)/float64(1<<20))
	rec.Observe("swap_out_mb", float64(out.SwapOutTL+out.SwapOutTH)/float64(1<<20))
	rec.Observe("swap_in_mb", float64(out.SwapInTL+out.SwapInTH)/float64(1<<20))
	rec.Observe("tl_suspensions", float64(out.TLSuspensions))
	rec.Observe("tl_attempts", float64(out.TLAttempts))
	rec.Observe("wasted_cpu_s", out.WastedWork.Seconds())
	return nil
}

// runComparison sweeps r for every primitive with the given memory
// configuration — the shared engine behind Figures 2 and 3. It streams
// cell outcomes straight into per-(prim, r) aggregates.
func runComparison(tlMem, thMem int64, cfg Config) (*ComparisonResult, error) {
	col, err := sweep.RunCollapsed(TwoJobGrid(cfg.reps()), func(pt sweep.Point, rec *sweep.Recorder) error {
		return TwoJobCellInto(pt, tlMem, thMem, rec)
	}, cfg.options(), sweep.RepAxis)
	if err != nil {
		return nil, err
	}
	out := &ComparisonResult{
		Sojourn:  make(map[string]*metrics.Series),
		Makespan: make(map[string]*metrics.Series),
	}
	for _, g := range col.Groups {
		prim := g.Labels["prim"]
		sj, ok := out.Sojourn[prim]
		if !ok {
			sj = &metrics.Series{Label: prim, XLabel: "tl progress at launch of th (%)", YLabel: "sojourn time th (s)"}
			out.Sojourn[prim] = sj
			out.Makespan[prim] = &metrics.Series{Label: prim, XLabel: "tl progress at launch of th (%)", YLabel: "makespan (s)"}
		}
		r := g.First.Float("r")
		sj.Add(r, g.Metrics["sojourn_th_s"].Mean)
		out.Makespan[prim].Add(r, g.Metrics["makespan_s"].Mean)
	}
	return out, nil
}

// Figure2 reproduces the baseline (light-weight tasks) comparison:
// Figure 2a (sojourn time of th) and Figure 2b (makespan).
func Figure2(cfg Config) (*ComparisonResult, error) {
	return runComparison(0, 0, cfg)
}

// Figure3 reproduces the worst-case comparison with memory-hungry tasks
// (both allocate 2 GB): Figure 3a and Figure 3b.
func Figure3(cfg Config) (*ComparisonResult, error) {
	return runComparison(WorstCaseMemory, WorstCaseMemory, cfg)
}

// Figure4Point is one x-position of Figure 4.
type Figure4Point struct {
	// THMemoryBytes is the memory allocated by th (x-axis).
	THMemoryBytes int64
	// PagedMB is the swap traffic of tl's process in MB (left y-axis).
	PagedMB float64
	// SojournOverheadSec is susp's th sojourn minus kill's (right
	// y-axis).
	SojournOverheadSec float64
	// MakespanOverheadSec is susp's makespan minus wait's.
	MakespanOverheadSec float64
	// SojournOverheadFrac and MakespanOverheadFrac are the relative
	// degradations the paper quotes (up to ~20% and ~12%).
	SojournOverheadFrac  float64
	MakespanOverheadFrac float64
}

// Figure4Result is the full overhead-vs-memory-footprint analysis.
type Figure4Result struct {
	Points []Figure4Point
}

// Figure4Sweep returns the paper's x-axis: memory allocated by th, 0 to
// 2.5 GB in 625 MB steps.
func Figure4Sweep() []int64 {
	step := int64(625) << 20
	out := make([]int64, 0, 5)
	for m := int64(0); m <= Figure4TLMemory; m += step {
		out = append(out, m)
	}
	return out
}

// Figure4 reproduces the overhead analysis: tl allocates 2.5 GB, th's
// allocation sweeps 0..2.5 GB; for each point we measure tl's swap
// traffic under susp and the sojourn/makespan degradation relative to
// kill and wait respectively. The primitive axis is seed-paired so the
// overheads are paired differences, as in the paper.
func Figure4(cfg Config) (*Figure4Result, error) {
	thMems := Figure4Sweep()
	mems := make([]int, len(thMems))
	for i, m := range thMems {
		mems[i] = int(m >> 20)
	}
	g := sweep.NewGrid(
		sweep.Ints("th_mem_mb", mems...),
		sweep.Stringers("prim", core.Primitives()...),
		sweep.Reps(cfg.reps()),
	).Pair("prim")
	col, err := sweep.RunCollapsed(g, func(pt sweep.Point, rec *sweep.Recorder) error {
		p := DefaultTwoJobParams()
		p.Primitive = pt.Value("prim").(core.Primitive)
		p.PreemptAt = 0.5
		p.TLExtraMemory = Figure4TLMemory
		p.THExtraMemory = int64(pt.Int("th_mem_mb")) << 20
		p.Seed = pt.Seed
		out, err := RunTwoJob(p)
		if err != nil {
			return err
		}
		rec.Observe("sojourn_th_s", out.SojournTH.Seconds())
		rec.Observe("makespan_s", out.Makespan.Seconds())
		rec.Observe("paged_mb", float64(out.SwapOutTL)/float64(1<<20))
		return nil
	}, cfg.options(), sweep.RepAxis)
	if err != nil {
		return nil, err
	}
	byCell := make(map[string]map[string]metrics.Summary)
	for _, g := range col.Groups {
		key := g.Labels["th_mem_mb"] + "/" + g.Labels["prim"]
		byCell[key] = g.Metrics
	}
	out := &Figure4Result{}
	for i, thMem := range thMems {
		cell := func(prim core.Primitive) map[string]metrics.Summary {
			return byCell[fmt.Sprintf("%d/%s", mems[i], prim)]
		}
		susp, kill, wait := cell(core.Suspend), cell(core.Kill), cell(core.Wait)
		pt := Figure4Point{
			THMemoryBytes:       thMem,
			PagedMB:             susp["paged_mb"].Mean,
			SojournOverheadSec:  susp["sojourn_th_s"].Mean - kill["sojourn_th_s"].Mean,
			MakespanOverheadSec: susp["makespan_s"].Mean - wait["makespan_s"].Mean,
		}
		if k := kill["sojourn_th_s"].Mean; k > 0 {
			pt.SojournOverheadFrac = pt.SojournOverheadSec / k
		}
		if w := wait["makespan_s"].Mean; w > 0 {
			pt.MakespanOverheadFrac = pt.MakespanOverheadSec / w
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Figure1Result holds the three schedule charts of Figure 1.
type Figure1Result struct {
	// Gantt maps primitive name to its rendered schedule.
	Gantt map[string]string
}

// Figure1 renders the task execution schedules for the three primitives
// at r=50%.
func Figure1(cfg Config) (*Figure1Result, error) {
	prims := core.Primitives()
	g := sweep.NewGrid(sweep.Stringers("prim", prims...)).Pair("prim")
	charts := make([]string, g.Size())
	_, err := sweep.RunCollapsed(g, func(pt sweep.Point, _ *sweep.Recorder) error {
		p := DefaultTwoJobParams()
		p.Primitive = pt.Value("prim").(core.Primitive)
		p.PreemptAt = 0.5
		p.Seed = pt.Seed
		out, err := RunTwoJob(p)
		if err != nil {
			return err
		}
		charts[pt.Index] = out.Trace.Gantt(72)
		return nil
	}, cfg.options())
	if err != nil {
		return nil, err
	}
	out := &Figure1Result{Gantt: make(map[string]string)}
	for i, prim := range prims {
		out.Gantt[prim.String()] = charts[i]
	}
	return out, nil
}

// NatjamResult is the checkpoint-vs-suspend ablation of §IV-C: the paper
// notes Natjam reported ~7% makespan overhead where the OS-assisted
// primitive's is negligible.
type NatjamResult struct {
	MakespanWait       time.Duration
	MakespanSuspend    time.Duration
	MakespanCheckpoint time.Duration
	// SuspendOverheadFrac and CheckpointOverheadFrac are relative to
	// wait (the no-extra-work floor).
	SuspendOverheadFrac    float64
	CheckpointOverheadFrac float64
}

// NatjamAblation runs the light-weight setup with suspend and checkpoint.
func NatjamAblation(cfg Config) (*NatjamResult, error) {
	prims := []core.Primitive{core.Wait, core.Suspend, core.Checkpoint}
	g := sweep.NewGrid(sweep.Stringers("prim", prims...), sweep.Reps(cfg.reps())).Pair("prim")
	col, err := sweep.RunCollapsed(g, func(pt sweep.Point, rec *sweep.Recorder) error {
		p := DefaultTwoJobParams()
		p.Primitive = pt.Value("prim").(core.Primitive)
		p.PreemptAt = 0.5
		p.Seed = pt.Seed
		out, err := RunTwoJob(p)
		if err != nil {
			return err
		}
		rec.Observe("makespan_s", out.Makespan.Seconds())
		return nil
	}, cfg.options(), sweep.RepAxis)
	if err != nil {
		return nil, err
	}
	mean := make(map[string]time.Duration)
	for _, g := range col.Groups {
		mean[g.Labels["prim"]] = time.Duration(g.Metrics["makespan_s"].Mean * float64(time.Second))
	}
	out := &NatjamResult{
		MakespanWait:       mean[core.Wait.String()],
		MakespanSuspend:    mean[core.Suspend.String()],
		MakespanCheckpoint: mean[core.Checkpoint.String()],
	}
	if out.MakespanWait > 0 {
		out.SuspendOverheadFrac = float64(out.MakespanSuspend-out.MakespanWait) / float64(out.MakespanWait)
		out.CheckpointOverheadFrac = float64(out.MakespanCheckpoint-out.MakespanWait) / float64(out.MakespanWait)
	}
	return out, nil
}

// FormatComparison renders a ComparisonResult as the rows the paper
// plots.
func FormatComparison(title string, res *ComparisonResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	b.WriteString("-- sojourn time of th (s) --\n")
	b.WriteString(formatSeriesTable(res.Sojourn))
	b.WriteString("-- makespan (s) --\n")
	b.WriteString(formatSeriesTable(res.Makespan))
	return b.String()
}

func formatSeriesTable(series map[string]*metrics.Series) string {
	prims := []string{"wait", "kill", "susp"}
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "r(%)")
	for _, p := range prims {
		fmt.Fprintf(&b, "%10s", p)
	}
	b.WriteString("\n")
	for _, r := range ProgressSweep() {
		fmt.Fprintf(&b, "%8.0f", r)
		for _, p := range prims {
			if s, ok := series[p]; ok {
				if y, found := s.YAt(r); found {
					fmt.Fprintf(&b, "%10.1f", y)
					continue
				}
			}
			fmt.Fprintf(&b, "%10s", "-")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFigure4 renders the overhead analysis.
func FormatFigure4(res *Figure4Result) string {
	var b strings.Builder
	b.WriteString("== Figure 4: overheads when varying memory usage ==\n")
	fmt.Fprintf(&b, "%14s %12s %16s %18s %12s %12s\n",
		"th mem", "paged (MB)", "sojourn ovh (s)", "makespan ovh (s)", "sojourn %", "makespan %")
	for _, pt := range res.Points {
		fmt.Fprintf(&b, "%14s %12.1f %16.2f %18.2f %11.1f%% %11.1f%%\n",
			formatBytes(pt.THMemoryBytes), pt.PagedMB, pt.SojournOverheadSec,
			pt.MakespanOverheadSec, pt.SojournOverheadFrac*100, pt.MakespanOverheadFrac*100)
	}
	return b.String()
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%d GB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%d MB", b>>20)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
