package main

import (
	"cmp"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"time"
)

// runData is everything one run measured.
type runData struct {
	w                *workload
	untraced, traced []passResult
	// unitsAttempted and unitsFailed count cells (leases of served
	// sweeps) over every pass, the warm-up included.
	unitsAttempted, unitsFailed int
	// tr holds the traced passes' spans, cpu their CPU time in
	// nanoseconds per module.
	tr  *tracer
	cpu map[string]int64
}

type memCounts struct{ bytes, objects, gcs uint64 }

func readMem() memCounts {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return memCounts{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (m memCounts) minus(o memCounts) memCounts {
	return memCounts{m.bytes - o.bytes, m.objects - o.objects, m.gcs - o.gcs}
}

func (m memCounts) plus(o memCounts) memCounts {
	return memCounts{m.bytes + o.bytes, m.objects + o.objects, m.gcs + o.gcs}
}

// perPass returns one value per pass.
func perPass(ps []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func cellsPerSec(p passResult) float64 { return float64(p.cells) / p.wall.Seconds() }
func jobsPerSec(p passResult) float64  { return float64(p.jobs) / p.wall.Seconds() }
func setupSec(p passResult) float64    { return p.setup.Seconds() }
func rssMB(p passResult) float64       { return float64(p.peakRSS) / (1 << 20) }

// endToEndMetrics are the untraced run's medians over its passes.
func endToEndMetrics(d *runData) map[string]metric {
	ps := d.untraced
	return map[string]metric{
		"cells_per_s": {median(perPass(ps, cellsPerSec)), "1/s"},
		"jobs_per_s":  {median(perPass(ps, jobsPerSec)), "1/s"},
		"setup_s":     {median(perPass(ps, setupSec)), "s"},
		"peak_rss_mb": {median(perPass(ps, rssMB)), "MB"},
	}
}

// cpuModules are the modules whose CPU share is a per-layer metric:
// every package under internal/ a workload runs, the facade, and this
// harness. Samples with no repository frame are runtime.gc_share.
var cpuModules = []string{
	"sim", "ossim", "memory", "disk", "hdfs", "mapreduce", "scheduler",
	"advisor", "core", "experiments", "workload", "genload", "sweep",
	"coord", "facade", "metrics", "trace", "atomicio", "perfbench",
}

// layerMetrics computes the per-layer metrics of a traced run. Metrics
// of a layer the workload does not run (coord outside cluster-grids,
// trace synthesis outside replay-schedulers) read 0.
func layerMetrics(d *runData) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	tr := d.tr
	if tr == nil {
		tr = &tracer{}
	}

	cells := tr.byName(spanCell)
	cellMs := millis(durations(cells))
	set("sweep.cell_ms_p50", quantile(cellMs, 0.5), "ms")
	set("sweep.cell_ms_p99", quantile(cellMs, 0.99), "ms")
	set("sweep.cell_samples", float64(len(cellMs)), "count")
	// busy is the share of pool × sweep wall its cells kept busy.
	busy := func(sweepName string) float64 {
		sweeps := tr.byName(sweepName)
		return ratio(sum(durations(under(cells, sweeps))).Seconds(), pool*sum(durations(sweeps)).Seconds())
	}
	set("sweep.pool_busy_frac", busy(spanSweep), "frac")
	set("sweep.encode_ms", median(millis(durations(tr.byName(spanEncode)))), "ms")

	var total int64
	for _, ns := range d.cpu {
		total += ns
	}
	for _, mod := range cpuModules {
		set(mod+".cpu_share", ratio(float64(d.cpu[mod]), float64(total)), "frac")
	}
	set("runtime.gc_share", ratio(float64(d.cpu[noModule]), float64(total)), "frac")

	var cellsDone float64
	var mem memCounts
	for _, p := range d.untraced {
		cellsDone += float64(p.cells)
		mem = mem.plus(p.mem)
	}
	set("runtime.alloc_mb_per_cell", ratio(float64(mem.bytes)/(1<<20), cellsDone), "MB")
	set("runtime.allocs_per_cell", ratio(float64(mem.objects), cellsDone), "count")
	set("runtime.gc_cycles", ratio(float64(mem.gcs), float64(len(d.untraced))), "1/pass")

	leases := tr.byName(spanHTTP + "/v1/lease")
	results := tr.byName(spanHTTP + "/v1/result")
	ckpts := tr.byName(spanCheckpoint)
	leaseMs, resultMs := millis(durations(leases)), millis(durations(results))
	set("coord.lease_rtt_ms_p50", quantile(leaseMs, 0.5), "ms")
	set("coord.lease_rtt_ms_p99", quantile(leaseMs, 0.99), "ms")
	set("coord.lease_rtt_samples", float64(len(leaseMs)), "count")
	set("coord.result_rtt_ms_p50", quantile(resultMs, 0.5), "ms")
	set("coord.result_rtt_ms_p99", quantile(resultMs, 0.99), "ms")
	set("coord.result_rtt_samples", float64(len(resultMs)), "count")
	var leasesDone, steals, dups float64
	for _, p := range d.traced {
		leasesDone += float64(p.leases)
		steals += float64(p.steals)
		dups += float64(p.duplicates)
	}
	set("coord.worker_busy_frac", busy(spanServed), "frac")
	set("coord.upload_kb_per_lease", ratio(float64(sumBytes(results))/1024, leasesDone), "KB")
	set("coord.ckpt_kb_per_upload", ratio(float64(sumBytes(ckpts))/1024, float64(len(results))), "KB")
	set("coord.ckpt_write_ms_p50", median(millis(durations(ckpts))), "ms")
	set("coord.steals", ratio(steals, float64(len(d.traced))), "1/pass")
	set("coord.duplicates", ratio(dups, float64(len(d.traced))), "1/pass")
	set("coord.accepted_frac", ratio(leasesDone, float64(len(results))), "frac")

	set("workload.synth_ms", median(millis(durations(tr.byName(spanSynth)))), "ms")

	// Traced and untraced passes ran in pairs, back to back.
	var pairs []float64
	for i := range min(len(d.traced), len(d.untraced)) {
		pairs = append(pairs, ratio(d.traced[i].wall.Seconds(), d.untraced[i].wall.Seconds()))
	}
	overhead := 0.0
	if len(pairs) > 0 {
		overhead = median(pairs) - 1
	}
	set("trace.overhead_frac", overhead, "frac")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func sumBytes(ss []span) int64 {
	var n int64
	for _, s := range ss {
		n += s.bytes
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTables writes a traced run's span table, per-module CPU table and
// per-layer metrics to the log.
func printTables(log io.Writer, d *runData, m map[string]metric) {
	fmt.Fprintf(log, "== %s: %d pairs of untraced and traced passes ==\n", d.w.name, len(d.traced))
	fmt.Fprintf(log, "\nspans (traced passes)\n%-24s %8s %11s %11s %9s %9s\n",
		"span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms")
	self := d.tr.selfTimes()
	byName := make(map[string][]span)
	for _, s := range d.tr.spans {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, name := range sortedKeys(byName) {
		ss := byName[name]
		var selfSum time.Duration
		for _, s := range ss {
			selfSum += self[s.id]
		}
		ms := millis(durations(ss))
		fmt.Fprintf(log, "%-24s %8d %11.2f %11.2f %9.4f %9.4f\n", name, len(ss),
			sum(durations(ss)).Seconds()*1e3, selfSum.Seconds()*1e3, quantile(ms, 0.5), quantile(ms, 0.99))
	}

	var total int64
	for _, ns := range d.cpu {
		total += ns
	}
	fmt.Fprintf(log, "\nCPU by module (%.0f ms profiled, innermost repository frame)\n%-12s %8s %10s\n",
		float64(total)/1e6, "module", "share", "cpu_ms")
	mods := sortedKeys(d.cpu)
	slices.SortStableFunc(mods, func(a, b string) int { return cmp.Compare(d.cpu[b], d.cpu[a]) })
	for _, mod := range mods {
		fmt.Fprintf(log, "%-12s %7.1f%% %10.1f\n", mod, 100*ratio(float64(d.cpu[mod]), float64(total)), float64(d.cpu[mod])/1e6)
	}

	fmt.Fprintf(log, "\nper-layer metrics\n")
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(log, "  %-28s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
