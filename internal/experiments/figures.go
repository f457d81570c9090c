package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/metrics"
	"hadooppreempt/internal/sweep"
)

// WorstCaseMemory is the 2 GB allocation of the Figure 3 experiments.
const WorstCaseMemory int64 = 2 << 30

// Figure4TLMemory is tl's fixed 2.5 GB allocation in Figure 4.
const Figure4TLMemory int64 = 2560 << 20

// A Figure is one figure of the paper's evaluation: the SimBackend grid
// it renders from, its renderer over that grid's collapsed result, and
// the rows the paper plots. Renderers read only group labels and
// metrics, which shard files keep, so a figure renders the same from a
// single run as from merged shard files.
type Figure struct {
	// Grid names the figure's SimBackend scenario. Figure 1, whose
	// Gantt charts are not aggregates, has none (see Figure1).
	Grid string
	// Render builds the figure's data from the grid's collapsed result.
	Render func(*sweep.Collapsed) (any, error)
	// Text writes the data as the rows the paper plots.
	Text func(io.Writer, any)
}

// FigureNames lists the figures in the order "all" renders them.
var FigureNames = []string{"1", "2", "3", "4", "natjam", "cycles", "eviction", "advisor"}

// Figures maps each figure's name to its declaration.
var Figures = map[string]Figure{
	"1":        {Text: func(w io.Writer, v any) { writeFigure1(w, v.(*Figure1Result)) }},
	"2":        figure("twojob", Comparison, comparisonText("Figure 2: baseline experiments (light-weight tasks)")),
	"3":        figure("worstcase", Comparison, comparisonText("Figure 3: worst-case experiments (memory-hungry tasks)")),
	"4":        figure("footprint", Figure4, writeFigure4),
	"natjam":   figure("natjam", NatjamAblation, writeNatjam),
	"cycles":   figure("cycles", Cycles, writeCycles),
	"eviction": figure("victim", Eviction, writeEviction),
	"advisor":  figure("advisor", Advisor, writeAdvisor),
}

// figure declares a figure whose renderer and text writer share the
// type of its data.
func figure[T any](grid string, render func(*sweep.Collapsed) (T, error), text func(io.Writer, T)) Figure {
	return Figure{
		Grid:   grid,
		Render: func(c *sweep.Collapsed) (any, error) { return render(c) },
		Text:   func(w io.Writer, v any) { text(w, v.(T)) },
	}
}

// RunFigure runs the named figure's grid at reps repetitions through
// the sweep harness under opts and renders it. Figure 1 runs its three
// schedules directly, seeded from opts.Seed.
func RunFigure(name string, reps int, opts sweep.Options) (any, error) {
	f, ok := Figures[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("experiments: unknown figure %q", name)
	case f.Grid == "":
		return Figure1(opts.Seed)
	}
	b, err := SimBackend(f.Grid, 0, reps)
	if err != nil {
		return nil, err
	}
	col, err := sweep.RunBackend(b, opts, sweep.RepAxis)
	if err != nil {
		return nil, err
	}
	return f.Render(col)
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
	return twoJobCell(pt, pt.Float("r")/100, tlMem, thMem, rec)
}

// twoJobCell runs the two-job scenario under the cell's "prim" axis,
// with th arriving at tl progress r (a fraction), and records
// TwoJobCellInto's outcome values.
func twoJobCell(pt sweep.Point, r float64, tlMem, thMem int64, rec *sweep.Recorder) error {
	p := DefaultTwoJobParams()
	p.Primitive = pt.Value("prim").(core.Primitive)
	p.PreemptAt = r
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

// axisValue parses the label of a numeric axis.
func axisValue(axis, label string) (float64, error) {
	v, err := strconv.ParseFloat(label, 64)
	if err != nil {
		return 0, fmt.Errorf("experiments: axis %q label %q: %w", axis, label, err)
	}
	return v, nil
}

// primMetrics maps each primitive to its group's metric summaries.
type primMetrics = map[string]map[string]metrics.Summary

// byPrim indexes the groups by their label on axis and then by
// primitive, and lists the axis labels in grid order.
func byPrim(col *sweep.Collapsed, axis string) ([]string, map[string]primMetrics) {
	var labels []string
	cells := make(map[string]primMetrics)
	for _, g := range col.Groups {
		l := g.Labels[axis]
		if cells[l] == nil {
			labels = append(labels, l)
			cells[l] = make(primMetrics)
		}
		cells[l][g.Labels["prim"]] = g.Metrics
	}
	return labels, cells
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

// Comparison renders Figures 2 and 3 from the collapsed twojob or
// worstcase grid: th's sojourn time and the makespan of each primitive
// against tl's progress.
func Comparison(col *sweep.Collapsed) (*ComparisonResult, error) {
	out := &ComparisonResult{
		Sojourn:  make(map[string]*metrics.Series),
		Makespan: make(map[string]*metrics.Series),
	}
	for _, g := range col.Groups {
		r, err := axisValue("r", g.Labels["r"])
		if err != nil {
			return nil, err
		}
		prim := g.Labels["prim"]
		sj, ok := out.Sojourn[prim]
		if !ok {
			sj = &metrics.Series{Label: prim, XLabel: "tl progress at launch of th (%)", YLabel: "sojourn time th (s)"}
			out.Sojourn[prim] = sj
			out.Makespan[prim] = &metrics.Series{Label: prim, XLabel: "tl progress at launch of th (%)", YLabel: "makespan (s)"}
		}
		sj.Add(r, g.Metrics["sojourn_th_s"].Mean)
		out.Makespan[prim].Add(r, g.Metrics["makespan_s"].Mean)
	}
	return out, nil
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

// Figure4 renders the overhead analysis from the collapsed footprint
// grid: for each th allocation, tl's swap traffic under susp and the
// sojourn and makespan degradation relative to kill and wait.
func Figure4(col *sweep.Collapsed) (*Figure4Result, error) {
	mems, cells := byPrim(col, "th_mem_mb")
	out := &Figure4Result{}
	for _, m := range mems {
		mb, err := axisValue("th_mem_mb", m)
		if err != nil {
			return nil, err
		}
		susp, kill, wait := cells[m][core.Suspend.String()], cells[m][core.Kill.String()], cells[m][core.Wait.String()]
		pt := Figure4Point{
			THMemoryBytes:       int64(mb) << 20,
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
// at r=50%: one two-job run per primitive, seeded as the cells of a
// seed-paired primitive grid.
func Figure1(seed uint64) (*Figure1Result, error) {
	pts, err := sweep.NewGrid(sweep.Stringers("prim", core.Primitives()...)).Pair("prim").Points(seed)
	if err != nil {
		return nil, err
	}
	out := &Figure1Result{Gantt: make(map[string]string, len(pts))}
	for _, pt := range pts {
		p := DefaultTwoJobParams()
		p.Primitive = pt.Value("prim").(core.Primitive)
		p.Seed = pt.Seed
		run, err := RunTwoJob(p)
		if err != nil {
			return nil, err
		}
		out.Gantt[pt.Label("prim")] = run.Trace.Gantt(72)
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

// NatjamAblation renders the light-weight setup under wait, suspend and
// checkpoint from the collapsed natjam grid.
func NatjamAblation(col *sweep.Collapsed) (*NatjamResult, error) {
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

// Cycles renders the §III-A cycle-cost study from the collapsed cycles
// grid, one result per cycle count. Each group holds one cell, whose
// whole nanoseconds and bytes come back exactly from float64.
func Cycles(col *sweep.Collapsed) ([]*CycleResult, error) {
	out := make([]*CycleResult, len(col.Groups))
	for i, g := range col.Groups {
		m := g.Metrics
		out[i] = &CycleResult{
			Cycles:       int(m["suspensions"].Mean),
			TLSojourn:    time.Duration(m["tl_sojourn_ns"].Mean),
			TLSwapOut:    int64(m["tl_swap_out_bytes"].Mean),
			TLSwapIn:     int64(m["tl_swap_in_bytes"].Mean),
			PeakSwapRate: m["peak_swap_rate_bps"].Mean,
		}
	}
	return out, nil
}

// Eviction renders the §V-A victim-selection study from the collapsed
// victim grid, one result per policy.
func Eviction(col *sweep.Collapsed) ([]*EvictionResult, error) {
	out := make([]*EvictionResult, len(col.Groups))
	for i, g := range col.Groups {
		m := g.Metrics
		victim := "light"
		if m["victim_heavy"].Mean == 1 {
			victim = "heavy"
		}
		out[i] = &EvictionResult{
			Policy:     g.Labels["policy"],
			Victim:     victim,
			Makespan:   time.Duration(m["makespan_ns"].Mean),
			SojournTH:  time.Duration(m["sojourn_th_ns"].Mean),
			VictimSwap: int64(m["victim_swap_bytes"].Mean),
		}
	}
	return out, nil
}

// AdvisorResult compares advisor-chosen primitives against fixed ones
// across the progress sweep.
type AdvisorResult struct {
	// R is tl's progress at th's arrival.
	R float64
	// Chosen is the primitive the advisor picked.
	Chosen core.Primitive
	// Makespans per strategy ("advisor", "wait", "kill", "susp").
	Makespans map[string]time.Duration
}

// Advisor renders §V-A's cost model from the collapsed advisor grid:
// kill freshly started victims, wait for nearly-done ones, suspend the
// rest. For each r it attaches the advisor's choice to the fixed
// primitives' makespans.
func Advisor(col *sweep.Collapsed) ([]*AdvisorResult, error) {
	adv, err := advisor.New(advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rs, cells := byPrim(col, "r")
	out := make([]*AdvisorResult, 0, len(rs))
	victim := make([]advisor.Candidate, 1)
	for _, label := range rs {
		r, err := axisValue("r", label)
		if err != nil {
			return nil, err
		}
		ar := &AdvisorResult{R: r, Makespans: make(map[string]time.Duration)}
		for prim, m := range cells[label] {
			// The round trip through float seconds is part of the
			// committed figure goldens; exact Durations would move them.
			ar.Makespans[prim] = time.Duration(m["makespan_s"].Mean * float64(time.Second))
		}
		victim[0] = advisor.Candidate{ID: "tl", Progress: r}
		ar.Chosen = adv.Decide(advisor.Request{Candidates: victim}).Primitive
		ar.Makespans["advisor"] = ar.Makespans[ar.Chosen.String()]
		out = append(out, ar)
	}
	return out, nil
}

func writeFigure1(w io.Writer, r *Figure1Result) {
	fmt.Fprintln(w, "== Figure 1: task execution schedules ==")
	fmt.Fprintln(w, "legend: '#' running, '=' suspended, 'c' cleanup, '.' waiting for reschedule")
	for _, prim := range slices.Sorted(maps.Keys(r.Gantt)) {
		fmt.Fprintf(w, "\n-- %s --\n%s", prim, r.Gantt[prim])
	}
}

// comparisonText writes a ComparisonResult under title as the rows the
// paper plots.
func comparisonText(title string) func(io.Writer, *ComparisonResult) {
	return func(w io.Writer, res *ComparisonResult) {
		fmt.Fprintf(w, "== %s ==\n", title)
		fmt.Fprintf(w, "-- sojourn time of th (s) --\n%s", formatSeriesTable(res.Sojourn))
		fmt.Fprintf(w, "-- makespan (s) --\n%s", formatSeriesTable(res.Makespan))
	}
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

func writeFigure4(w io.Writer, res *Figure4Result) {
	fmt.Fprintln(w, "== Figure 4: overheads when varying memory usage ==")
	fmt.Fprintf(w, "%14s %12s %16s %18s %12s %12s\n",
		"th mem", "paged (MB)", "sojourn ovh (s)", "makespan ovh (s)", "sojourn %", "makespan %")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "%14s %12.1f %16.2f %18.2f %11.1f%% %11.1f%%\n",
			formatBytes(pt.THMemoryBytes), pt.PagedMB, pt.SojournOverheadSec,
			pt.MakespanOverheadSec, pt.SojournOverheadFrac*100, pt.MakespanOverheadFrac*100)
	}
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

func writeNatjam(w io.Writer, r *NatjamResult) {
	fmt.Fprintln(w, "== Checkpoint (Natjam-style) vs OS-assisted suspension ==")
	fmt.Fprintf(w, "makespan wait:       %8.1fs (no-preemption floor)\n", r.MakespanWait.Seconds())
	fmt.Fprintf(w, "makespan susp:       %8.1fs (overhead %+.1f%%)\n",
		r.MakespanSuspend.Seconds(), r.SuspendOverheadFrac*100)
	fmt.Fprintf(w, "makespan checkpoint: %8.1fs (overhead %+.1f%%)\n",
		r.MakespanCheckpoint.Seconds(), r.CheckpointOverheadFrac*100)
	fmt.Fprintln(w, "(the paper reports ~7% makespan overhead for Natjam in a similar setting,")
	fmt.Fprintln(w, " and negligible overhead for the OS-assisted primitive)")
}

func writeCycles(w io.Writer, r []*CycleResult) {
	fmt.Fprintln(w, "== Suspend/resume cycle cost (§III-A) ==")
	fmt.Fprintf(w, "%8s %14s %14s %12s\n", "cycles", "tl sojourn", "tl swap-out", "tl swap-in")
	for _, c := range r {
		fmt.Fprintf(w, "%8d %13.1fs %13dM %11dM\n",
			c.Cycles, c.TLSojourn.Seconds(), c.TLSwapOut>>20, c.TLSwapIn>>20)
	}
	fmt.Fprintln(w, "(sojourn grows ~linearly per cycle; cold pages go to swap at most once,")
	fmt.Fprintln(w, " so write traffic amortizes — §III-A's thrashing analysis)")
}

func writeEviction(w io.Writer, r []*EvictionResult) {
	fmt.Fprintln(w, "== Eviction policies (§V-A): whom to suspend ==")
	fmt.Fprintf(w, "%-18s %-8s %12s %14s %14s\n", "policy", "victim", "makespan", "th sojourn", "victim swap")
	for _, e := range r {
		fmt.Fprintf(w, "%-18s %-8s %11.1fs %13.1fs %13dM\n",
			e.Policy, e.Victim, e.Makespan.Seconds(),
			e.SojournTH.Seconds(), e.VictimSwap>>20)
	}
	fmt.Fprintln(w, "(suspending the smallest memory footprint minimizes paging overhead)")
}

func writeAdvisor(w io.Writer, r []*AdvisorResult) {
	fmt.Fprintln(w, "== Primitive advisor (§V-A): kill young, wait for nearly-done, suspend the rest ==")
	fmt.Fprintf(w, "%8s %-10s %12s %12s %12s %12s\n", "r(%)", "chosen", "advisor", "wait", "kill", "susp")
	for _, a := range r {
		fmt.Fprintf(w, "%8.0f %-10s %11.1fs %11.1fs %11.1fs %11.1fs\n",
			a.R*100, a.Chosen.String(),
			a.Makespans["advisor"].Seconds(), a.Makespans["wait"].Seconds(),
			a.Makespans["kill"].Seconds(), a.Makespans["susp"].Seconds())
	}
}
