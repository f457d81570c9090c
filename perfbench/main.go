// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, verifies every output byte for byte, and
// prints its metrics as one JSON line on standard output:
//
//	perfbench --workload paper-grids --seed 1 --seconds 12 --trace 0
//
// With --trace 1 the run alternates untraced and traced passes, and
// prints the per-layer metrics instead of the end-to-end ones, with
// tables on standard error. --steady N runs two interleaved
// sets of N runs per workload as child processes and compares them;
// --update-digests rewrites the committed seed-1 output digests.
// README.md explains the workloads and metrics. Run it from the
// repository root through perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the sweeps' base seed and the replay trace's seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceMode := fs.Int("trace", 0, "1 alternates traced and untraced passes and reports per-layer metrics")
	steady := fs.Int("steady", 0, "run two interleaved sets of this many runs of each workload (or of --workload) and compare them")
	update := fs.Bool("update-digests", false, "rewrite "+digestsFile+" from serial seed-1 runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *update:
		if err := updateDigests(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *steady > 0:
		return steadiness(*name, *steady, *seed, *seconds, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minPasses keeps medians meaningful when one pass is long.
const minPasses = 3

// measure runs one benchmark run: expectations and a warm-up pass
// outside the timed region, then timed passes until the window closes.
// A traced run alternates untraced and traced passes, each pair in the
// opposite order from the last, so that the machine's drift over the
// run falls on both alike; only the traced passes are profiled.
func measure(w *workload, seed uint64, window time.Duration, traced bool, log io.Writer) (*result, error) {
	chk, err := expectations(w, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	d := &runData{w: w}
	var profiles []string
	// pass runs one pass, profiling it when tr is set, and checks its
	// outputs after its timed region.
	pass := func(tr *tracer) (passResult, error) {
		if err := resetPeakRSS(); err != nil {
			return passResult{}, err
		}
		if tr != nil {
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", len(profiles))))
			if err != nil {
				return passResult{}, err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return passResult{}, err
			}
			profiles = append(profiles, f.Name())
		}
		m0 := readMem()
		r := runPass(w, seed, tr, dir, false)
		r.mem = readMem().minus(m0)
		if tr != nil {
			pprof.StopCPUProfile()
		}
		peak, err := peakRSS()
		if err != nil {
			return r, err
		}
		r.peakRSS = peak
		chk.checkPass(r)
		r.outputs = nil // checked; keep the run's heap flat
		d.unitsAttempted += r.units
		d.unitsFailed += r.unitErrs
		if r.err != nil {
			fmt.Fprintf(log, "perfbench: %s pass failed: %v\n", w.name, r.err)
		}
		return r, nil
	}
	// Warm-up: let caches fill and lazy set-up finish before timing.
	if _, err := pass(nil); err != nil {
		return nil, err
	}
	if traced {
		d.tr = &tracer{}
	}
	deadline := time.Now().Add(window)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		order := []*tracer{nil}
		if traced {
			order = []*tracer{nil, d.tr}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
		}
		for _, tr := range order {
			r, err := pass(tr)
			if err != nil {
				return nil, err
			}
			if tr == nil {
				d.untraced = append(d.untraced, r)
			} else {
				d.traced = append(d.traced, r)
			}
		}
	}
	if traced {
		if d.cpu, err = moduleCPU(profiles); err != nil {
			return nil, err
		}
	}

	res := &result{
		Attempted: d.unitsAttempted + chk.attempted,
		Failed:    d.unitsFailed + chk.failed,
	}
	res.Correct = res.Failed == 0
	for _, m := range chk.mismatches {
		fmt.Fprintln(log, "perfbench: verification failed:", m)
	}
	if traced {
		res.Metrics = layerMetrics(d)
		printTables(log, d, res.Metrics)
	} else {
		res.Metrics = endToEndMetrics(d)
		printSummary(log, d, res)
	}
	return res, nil
}

// scratchRoot is where runs keep temporary files (the coordinator's
// checkpoints), inside the checkout; run.sh builds into it too.
const scratchRoot = ".bench_build"

// expectations returns the checker for a run: at seed 1 the goldens and
// committed digests, at any other seed a serial reference run made
// here, outside the timed region.
func expectations(w *workload, seed uint64) (*checker, error) {
	chk := &checker{want: make(map[string]expect)}
	if seed != 1 {
		ref := runPass(w, seed, nil, "", true)
		if ref.err != nil {
			return nil, fmt.Errorf("serial reference run: %w", ref.err)
		}
		for _, o := range ref.outputs {
			chk.expect(o.name, expect{data: o.csv, source: "serial reference run"})
		}
		return chk, nil
	}
	grids, err := w.grids(seed, nil, 0)
	if err != nil {
		return nil, err
	}
	var digests map[string]string
	for _, g := range grids {
		if g.golden != "" {
			data, err := os.ReadFile(g.golden)
			if err != nil {
				return nil, err
			}
			chk.expect(g.name, expect{data: data, source: g.golden})
			continue
		}
		if digests == nil {
			if digests, err = loadDigests(); err != nil {
				return nil, err
			}
		}
		sum, ok := digests[g.key]
		if !ok {
			return nil, fmt.Errorf("%s has no digest for %q; run perfbench --update-digests", digestsFile, g.key)
		}
		chk.expect(g.name, expect{sha256: sum, source: digestsFile})
	}
	return chk, nil
}

// updateDigests recomputes the seed-1 digest of every output no golden
// covers, from serial runs.
func updateDigests() error {
	sums := make(map[string]string)
	for _, w := range workloads {
		grids, err := w.grids(1, nil, 0)
		if err != nil {
			return err
		}
		ref := runPass(w, 1, nil, "", true)
		if ref.err != nil {
			return fmt.Errorf("%s: %w", w.name, ref.err)
		}
		for i, g := range grids {
			if g.golden == "" {
				sums[g.key] = digest(ref.outputs[i].csv)
			}
		}
	}
	return writeDigests(sums)
}

// printSummary writes an untraced run's medians and coordinator events
// to the log.
func printSummary(log io.Writer, d *runData, res *result) {
	fmt.Fprintf(log, "%s: %d passes; %d cells or leases and %d outputs checked, %d failed (failed_frac %g)\n",
		d.w.name, len(d.untraced), d.unitsAttempted, res.Attempted-d.unitsAttempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)))
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(log, "  %-14s %12.6g %s\n", name, m.Value, m.Unit)
	}
	rates, rss := perPass(d.untraced, cellsPerSec), perPass(d.untraced, rssMB)
	fmt.Fprintf(log, "  within the run, p10/p50/p90 over passes: cells_per_s %.6g/%.6g/%.6g, peak_rss_mb %.4g/%.4g/%.4g\n",
		quantile(rates, 0.1), quantile(rates, 0.5), quantile(rates, 0.9),
		quantile(rss, 0.1), quantile(rss, 0.5), quantile(rss, 0.9))
	if d.untraced[0].leases > 0 {
		var steals, dups []string
		for _, r := range d.untraced {
			steals = append(steals, fmt.Sprint(r.steals))
			dups = append(dups, fmt.Sprint(r.duplicates))
		}
		fmt.Fprintf(log, "  steals per pass:     %s\n", strings.Join(steals, " "))
		fmt.Fprintf(log, "  duplicates per pass: %s\n", strings.Join(dups, " "))
	}
}
