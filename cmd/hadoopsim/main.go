// Command hadoopsim runs a simulated Hadoop cluster from a dummy-
// scheduler configuration file (§III-B's "static configuration files")
// and prints the resulting schedule and per-job metrics, fans a
// declarative scenario grid out across a parallel sweep harness bound
// to one of three execution backends, or regenerates the figures of the
// paper's evaluation from their sim grids.
//
// Usage:
//
//	hadoopsim -config experiment.conf [-nodes N] [-slots S] [-seed X]
//	hadoopsim -sweep GRID [-parallel W]
//	          [-reps N] [-seed X] [-format table|csv|json|series]
//	          [-cache DIR] [-cpuprofile file] [-memprofile file]
//	hadoopsim -figures all|1|2|2a|2b|3|3a|3b|4|natjam|cycles|eviction|advisor
//	          [-reps N] [-seed X] [-parallel W] [-format table|json]
//	          [-cache DIR] [-cpuprofile file] [-memprofile file]
//	hadoopsim -backend replay {-trace trace.tsv | -trace-gen N} [-trace-shards K]
//	          [-replay-sched fifo|fair|hfsp] [-replay-timescale F]
//	          [-replay-window W] [-reps N] [-format F]
//	hadoopsim -backend real [-reps N] [-real-steps N] [-real-units U]
//	          [-real-mem BYTES] [-format F]
//	hadoopsim [backend flags] -shard i/n > shard-i.json
//	hadoopsim -merge [-format table|csv|json|series] shard-*.json
//	hadoopsim [backend flags] -serve addr [-lease N] [-lease-ttl D] [-format F]
//	          [-checkpoint state.ckpt [-resume]] [-lease-retries N] [-chaos SPEC]
//	hadoopsim [backend flags] -worker addr [-parallel W] [-chaos SPEC]
//	hadoopsim -status addr
//
// Backends (-backend, default sim):
//
//	sim     the discrete-event simulator; -sweep picks the grid
//	replay  SWIM trace replay: -trace (or a synthesized -trace-gen N
//	        trace) splits into -trace-shards cells per repetition, each
//	        replayed through an isolated cluster (-replay-timescale F
//	        divides trace submission times, so day-long traces run in
//	        bounded cells; -replay-window W streams inputs instead of
//	        materializing every job up front)
//	real    the two-job scenario on real OS processes, preempted with
//	        actual SIGTSTP/SIGCONT/SIGKILL (unix only; wall-clock, so
//	        output is measured, not deterministic; cells run serially
//	        unless -parallel is set explicitly, to keep CPU-bound
//	        workers of different cells from contending)
//
// Sim sweep grids (before repetitions):
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
// -figures renders figures from these grids: 2 from twojob, 3 from
// worstcase, 4 from footprint, eviction from victim, and natjam, cycles
// and advisor from their namesakes; Figure 1's Gantt charts are three
// direct runs. -format table prints the rows the paper plots, json the
// figures' data ("all" as an object keyed by figure name); 2a/2b and
// 3a/3b print their figure. Absolute seconds depend on the simulated
// hardware; the shapes are the reproduction target (EXPERIMENTS.md).
//
// Cell seeds derive from grid coordinates, not execution order, so for
// the sim and replay backends -parallel 8 produces byte-identical
// output to -parallel 1. The same property makes sharding pure
// partitioning: -shard i/n runs the i-th of n seed-stable grid slices
// and emits a mergeable shard file on stdout, and -merge combines the
// shard files of one sweep — in any order — into output byte-identical
// to a single-process run.
//
// Distributed mode replaces static shards with dynamic scheduling: a
// coordinator (-serve addr) partitions the grid into leases of -lease
// cells and hands them to workers (-worker addr) over HTTP+JSON. Every
// process is started with the same backend flags; the coordinator
// verifies each worker sweeps the identical grid (structure and
// content fingerprints) before leasing, re-issues leases whose worker
// went silent past -lease-ttl, and lets fast workers steal outstanding
// leases from stragglers (first result wins, duplicates discarded).
// The merged output the coordinator prints is byte-identical to the
// single-process sweep at any worker count, join order, steal or
// re-issue history.
//
// The coordinator is durable and observable: -checkpoint persists its
// state (identity fingerprints, lease ledger, running aggregate) after
// every accepted upload, and a coordinator killed mid-sweep restarts
// with -resume from its last durable lease — live workers retry
// through the outage and the final output is still byte-identical.
// GET /v1/status (rendered by `hadoopsim -status addr`) reports cells
// done, lease progress, per-worker throughput and an ETA. A
// comma-separated -sweep list (sim backend) queues several grids on
// one server, run in order as a long-lived grid service.
//
// -cache DIR memoizes cell results on disk, keyed by the content of the
// computation (grid fingerprint, backend identity, base seed, cell):
// a warm rerun replays cached cells instead of executing them and emits
// byte-identical output. The same directory serves single-process runs,
// the coordinator (which retires whole leases from cache before issuing
// them) and workers (which skip leased cells they find cached). Corrupt
// or stale entries are silent misses, never errors; the real backend
// measures wall-clock time and always bypasses. Counters are printed to
// stderr and served in /v1/status.
//
// -chaos injects a seeded, deterministic fault schedule for drills: on
// a coordinator it corrupts the HTTP boundary (drop, duplicate,
// truncate, delay) and the checkpoint writer; on a worker it corrupts
// the HTTP client and makes chosen grid cells fail transiently. The
// spec is comma-separated key=value pairs (seed, drop, drop-resp, dup,
// trunc, delay, delay-max, ckpt, cell-err, cell-panic, cell-fails;
// cell-fails=poison never lets a faulty cell succeed). Within the
// coordinator's per-lease failure budget (-lease-retries, default 3)
// output stays byte-identical to a faultless run; beyond it the sweep
// aborts naming the poison cells. Give each process its own seed so
// their fault schedules are independent and individually replayable.
//
// Example configuration (the paper's two-job experiment at r=50%):
//
//	primitive susp
//	input /input/tl 512M
//	input /input/th 512M
//	job tl /input/tl priority=0 rate=6.5e6
//	job th /input/th priority=10 rate=6.5e6
//	submit tl
//	on progress tl 0.5 submit th
//	on progress tl 0.5 preempt tl
//	on complete th restore tl
package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hadooppreempt/internal/chaos"
	"hadooppreempt/internal/config"
	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/realexec"
	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

func main() {
	// The real backend re-executes this binary as its workers.
	if realexec.IsWorkerInvocation() {
		realexec.WorkerMain()
	}
	path := flag.String("config", "", "experiment configuration file")
	nodes := flag.Int("nodes", 1, "worker node count")
	slots := flag.Int("slots", 1, "map slots per node")
	seed := flag.Uint64("seed", 1, "random seed")
	deadline := flag.Duration("deadline", 2*time.Hour, "virtual-time budget")
	width := flag.Int("width", 72, "gantt chart width")
	backend := flag.String("backend", "sim", "execution backend: sim, replay or real")
	sweepName := flag.String("sweep", "", "sim scenario grid to sweep: twojob, pressure, cluster, evict, primitive, scenarios, worstcase, footprint, natjam, cycles, victim or advisor (with -serve, a comma-separated list queues several)")
	figures := flag.String("figures", "", "regenerate a figure of the paper from its sim grid: all, 1, 2, 2a, 2b, 3, 3a, 3b, 4, natjam, cycles, eviction or advisor (-format table or json)")
	tracePath := flag.String("trace", "", "SWIM trace file for the replay backend")
	traceGen := flag.Int("trace-gen", 0, "replay backend: synthesize a deterministic N-job Facebook-like SWIM trace instead of reading -trace (a pure function of N, so every process regenerates the same trace)")
	traceShards := flag.Int("trace-shards", 4, "trace shards per repetition (replay cells)")
	replaySched := flag.String("replay-sched", "fifo", "replay cluster scheduler: fifo, fair or hfsp")
	replayTimescale := flag.Float64("replay-timescale", 1, "replay backend: divide trace submission times by this factor")
	replayWindow := flag.Int("replay-window", 0, "replay backend: materialize at most this many jobs' inputs ahead of the submission frontier (0 = all up front; output is identical either way)")
	realSteps := flag.Int("real-steps", 20, "real backend: progress steps per worker")
	realUnits := flag.Int64("real-units", 2_000_000, "real backend: busy-loop iterations per step")
	realMem := flag.Int64("real-mem", 0, "real backend: bytes of state each worker dirties")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker pool size")
	reps := flag.Int("reps", 1, "sweep repetitions per cell")
	format := flag.String("format", "table", "sweep output format: table, csv, json or series")
	shard := flag.String("shard", "", "run only slice i/n of the sweep and emit a mergeable shard file on stdout")
	merge := flag.Bool("merge", false, "merge the shard files given as arguments and render with -format")
	serveAddr := flag.String("serve", "", "coordinate a distributed sweep: listen on this address, lease cells to -worker processes, print the merged result")
	workerAddr := flag.String("worker", "", "join the distributed-sweep coordinator at this address and execute leased cells")
	leaseCells := flag.Int("lease", 8, "distributed mode: grid cells per lease")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "distributed mode: how long a lease may stay outstanding before a silent worker's cells are reissued")
	checkpoint := flag.String("checkpoint", "", "coordinator mode: persist durable state to this file after every accepted upload, so a killed coordinator can -resume")
	resume := flag.Bool("resume", false, "coordinator mode: restore state from -checkpoint instead of starting the sweep over; output stays byte-identical to an uninterrupted run")
	statusAddr := flag.String("status", "", "query the coordinator at this address (GET /v1/status) and print sweep progress")
	cellSleep := flag.Duration("cell-sleep", 0, "debug: sleep (1 + cell mod 3) x this per cell — artificially slow, uneven cells for exercising the distributed scheduler; results are unchanged")
	leaseRetries := flag.Int("lease-retries", 3, "coordinator mode: per-lease failure budget — reported cell errors tolerated per lease before the sweep aborts as poisoned")
	chaosSpec := flag.String("chaos", "", "distributed mode: seeded deterministic fault injection, comma-separated key=value pairs (seed, drop, drop-resp, dup, trunc, delay, delay-max, ckpt, cell-err, cell-panic, cell-fails)")
	cacheDir := flag.String("cache", "", "sweep mode: memoize cell results in this directory; warm reruns replay cached cells and stay byte-identical (real backend bypasses: wall-clock cells)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	var cpuFile *os.File
	if *cpuprofile != "" {
		cf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hadoopsim: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintln(os.Stderr, "hadoopsim: cpuprofile:", err)
			os.Exit(1)
		}
		cpuFile = cf
	}

	f := sweepFlags{
		cellSleep:       *cellSleep,
		chaos:           *chaosSpec,
		cache:           *cacheDir,
		backend:         *backend,
		scenario:        *sweepName,
		trace:           *tracePath,
		traceGen:        *traceGen,
		traceShards:     *traceShards,
		replaySched:     *replaySched,
		replayTimescale: *replayTimescale,
		replayWindow:    *replayWindow,
		realSteps:       *realSteps,
		realUnits:       *realUnits,
		realMem:         *realMem,
		parallel:        *parallel,
		parallelSet:     flagSet("parallel"),
		reps:            *reps,
		seed:            *seed,
		format:          *format,
		shard:           *shard,
	}
	var err error
	switch {
	case *figures != "":
		if conflicting := figuresConflictsSet(); len(conflicting) > 0 {
			err = fmt.Errorf("-figures cannot be combined with %s", strings.Join(conflicting, ", "))
		} else {
			err = runFigures(f, *figures)
		}
	case *merge:
		if conflicting := append(configOnlyFlagsSet(), sweepOnlyFlagsSet()...); len(conflicting) > 0 {
			err = fmt.Errorf("-merge cannot be combined with %s", strings.Join(conflicting, ", "))
		} else {
			err = runMerge(flag.Args(), *format)
		}
	case *statusAddr != "":
		if conflicting := append(configOnlyFlagsSet(), sweepOnlyFlagsSet()...); len(conflicting) > 0 {
			err = fmt.Errorf("-status only queries a running coordinator; it cannot be combined with %s",
				strings.Join(conflicting, ", "))
		} else {
			err = runStatus(*statusAddr)
		}
	case *serveAddr != "" && *workerAddr != "":
		err = fmt.Errorf("-serve and -worker are different processes; pick one")
	case *serveAddr != "":
		if conflicting := configOnlyFlagsSet(); len(conflicting) > 0 {
			err = fmt.Errorf("-serve cannot be combined with %s (config-mode flags)", strings.Join(conflicting, ", "))
		} else if *shard != "" {
			err = fmt.Errorf("-serve schedules cells dynamically; it cannot be combined with -shard")
		} else if *resume && *checkpoint == "" {
			err = fmt.Errorf("-resume needs -checkpoint <file> to restore from")
		} else {
			err = runServe(f, *serveAddr, *leaseCells, *leaseTTL, *checkpoint, *resume, *leaseRetries)
		}
	case *workerAddr != "":
		switch {
		case len(configOnlyFlagsSet()) > 0:
			err = fmt.Errorf("-worker cannot be combined with %s (config-mode flags)",
				strings.Join(configOnlyFlagsSet(), ", "))
		case *shard != "" || flagSet("format"):
			err = fmt.Errorf("-worker streams results to the coordinator; -shard and -format do not apply")
		case flagSet("seed"):
			err = fmt.Errorf("-worker takes the sweep seed from the coordinator; drop -seed")
		case anyFlagSet("lease", "lease-ttl", "checkpoint", "resume", "lease-retries"):
			err = fmt.Errorf("-lease, -lease-ttl, -lease-retries, -checkpoint and -resume are coordinator (-serve) flags")
		default:
			err = runWorker(f, *workerAddr)
		}
	case *sweepName != "" || anyFlagSet("backend", "trace", "trace-gen", "trace-shards",
		"replay-sched", "replay-timescale", "replay-window",
		"real-steps", "real-units", "real-mem", "cell-sleep"):
		if conflicting := configOnlyFlagsSet(); len(conflicting) > 0 {
			err = fmt.Errorf("sweep mode cannot be combined with %s (config-mode flags)",
				strings.Join(conflicting, ", "))
		} else if conflicting := distOnlyFlagsSet(); len(conflicting) > 0 {
			err = fmt.Errorf("%s need -serve or -worker", strings.Join(conflicting, ", "))
		} else if *shard != "" && flagSet("format") {
			// A shard run always emits the shard-file form; merge
			// applies -format.
			err = fmt.Errorf("-shard emits a shard file, not -format output (render it via -merge)")
		} else {
			err = runSweep(f)
		}
	default:
		err = run(*path, *nodes, *slots, *seed, *deadline, *width)
	}
	// Flush profiles before any exit path so they are always valid.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}
	if *memprofile != "" {
		mf, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "hadoopsim: memprofile:", merr)
			os.Exit(1)
		}
		runtime.GC()
		if merr := pprof.WriteHeapProfile(mf); merr != nil {
			fmt.Fprintln(os.Stderr, "hadoopsim: memprofile:", merr)
			os.Exit(1)
		}
		mf.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hadoopsim:", err)
		os.Exit(1)
	}
}

// configOnlyFlagsSet lists explicitly set flags that only apply to
// -config mode, so sweep mode rejects them instead of silently ignoring
// what the user asked for.
func configOnlyFlagsSet() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "config", "nodes", "slots", "deadline", "width":
			out = append(out, "-"+f.Name)
		}
	})
	return out
}

// flagSet reports whether the named flag was explicitly set.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// anyFlagSet reports whether any of the named flags was explicitly set.
func anyFlagSet(names ...string) bool {
	for _, n := range names {
		if flagSet(n) {
			return true
		}
	}
	return false
}

// sweepOnlyFlagsSet lists explicitly set flags that only apply to
// sweep mode, so -merge rejects them.
func sweepOnlyFlagsSet() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sweep", "parallel", "reps", "seed", "shard", "backend",
			"trace", "trace-gen", "trace-shards",
			"replay-sched", "replay-timescale", "replay-window",
			"real-steps", "real-units", "real-mem",
			"serve", "worker", "lease", "lease-ttl", "lease-retries",
			"checkpoint", "resume", "cell-sleep", "chaos", "cache":
			out = append(out, "-"+f.Name)
		}
	})
	return out
}

// figuresConflictsSet lists explicitly set flags that -figures does not
// take.
func figuresConflictsSet() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "figures", "reps", "seed", "parallel", "format", "cache", "cpuprofile", "memprofile":
		default:
			out = append(out, "-"+f.Name)
		}
	})
	return out
}

// distOnlyFlagsSet lists explicitly set flags that only apply to the
// distributed modes, so plain sweeps reject them.
func distOnlyFlagsSet() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "lease", "lease-ttl", "lease-retries", "checkpoint", "resume", "chaos":
			out = append(out, "-"+f.Name)
		}
	})
	return out
}

// sweepFlags carries the flag values of one sweep-mode invocation.
type sweepFlags struct {
	cellSleep       time.Duration
	chaos           string
	cache           string
	backend         string
	scenario        string
	trace           string
	traceGen        int
	traceShards     int
	replaySched     string
	replayTimescale float64
	replayWindow    int
	realSteps       int
	realUnits       int64
	realMem         int64
	parallel        int
	parallelSet     bool
	reps            int
	seed            uint64
	format          string
	shard           string
}

// buildBackend resolves the flag set to an execution backend,
// decorated with the -cell-sleep debug cost when asked for.
func buildBackend(f sweepFlags) (sweep.Backend, error) {
	b, err := buildBareBackend(f)
	if err != nil || f.cellSleep <= 0 {
		return b, err
	}
	return slowBackend{Backend: b, unit: f.cellSleep}, nil
}

func buildBareBackend(f sweepFlags) (sweep.Backend, error) {
	switch f.backend {
	case "sim":
		if f.trace != "" || f.traceGen != 0 {
			return nil, fmt.Errorf("-trace and -trace-gen need -backend replay")
		}
		scenario := f.scenario
		if scenario == "" {
			scenario = "twojob"
		}
		return experiments.SimBackend(scenario, 12, f.reps)
	case "replay":
		if f.scenario != "" {
			return nil, fmt.Errorf("-sweep names a sim scenario; the replay backend takes -trace")
		}
		var jobs []workload.TraceJob
		var err error
		switch {
		case f.trace != "" && f.traceGen != 0:
			return nil, fmt.Errorf("-trace and -trace-gen are alternatives; pick one")
		case f.trace != "":
			jobs, err = workload.ReadTraceFile(f.trace)
		case f.traceGen != 0:
			// A fixed generator seed makes the trace a pure function of
			// its length, so every process regenerates the same one.
			jobs, err = workload.SynthesizeTrace(f.traceGen, 1)
		default:
			return nil, fmt.Errorf("-backend replay needs -trace <file> or -trace-gen <n>")
		}
		if err != nil {
			return nil, err
		}
		return workload.NewReplayBackend(workload.ReplayConfig{
			Jobs:      jobs,
			Shards:    f.traceShards,
			Reps:      f.reps,
			Scheduler: f.replaySched,
			TimeScale: f.replayTimescale,
			Window:    f.replayWindow,
		})
	case "real":
		if f.scenario != "" || f.trace != "" {
			return nil, fmt.Errorf("the real backend takes neither -sweep nor -trace")
		}
		return realexec.NewBackend(realexec.SweepConfig{
			Reps:         f.reps,
			Steps:        f.realSteps,
			UnitsPerStep: f.realUnits,
			MemBytes:     f.realMem,
		})
	default:
		return nil, fmt.Errorf("unknown backend %q (want sim, replay or real)", f.backend)
	}
}

// slowBackend decorates a backend with artificial, deterministically
// uneven per-cell cost (-cell-sleep): cell i sleeps (1 + i mod 3) x
// unit before running. Measurements are untouched, so output stays
// byte-identical to the wrapped backend; only wall-clock behavior
// changes. It exists to exercise the distributed scheduler — steals,
// lease expiry, kill/reissue races — against grids whose cells are
// slow and uneven no matter how fast the simulator is.
type slowBackend struct {
	sweep.Backend
	unit time.Duration
}

func (b slowBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	time.Sleep(time.Duration(1+pt.Index%3) * b.unit)
	return b.Backend.Cell(pt, rec)
}

// Fingerprint forwards the wrapped backend's content fingerprint (see
// sweep.BackendFingerprint). The sleep is not part of it: it changes
// wall-clock behavior only, never results, so coordinator and workers
// may use different -cell-sleep values.
func (b slowBackend) Fingerprint() string { return sweep.BackendFingerprint(b.Backend) }

// CacheVolatile forwards the wrapped backend's volatility (see
// sweep.Volatile): the sleep never changes results, so it must not
// change whether they are cacheable either.
func (b slowBackend) CacheVolatile() bool { return sweep.IsVolatile(b.Backend) }

func runSweep(f sweepFlags) error {
	b, err := buildBackend(f)
	if err != nil {
		return err
	}
	if f.backend == "real" && !f.parallelSet {
		// Real cells measure wall-clock time of CPU-bound workers:
		// running them concurrently would measure contention between
		// cells, not the primitives. Serialize unless explicitly asked.
		f.parallel = 1
	}
	opts := sweep.Options{Parallel: f.parallel, Seed: f.seed}
	if f.shard != "" {
		if opts.Shard, err = sweep.ParseShard(f.shard); err != nil {
			return err
		}
	}
	cache, err := openCache(f)
	if err != nil {
		return err
	}
	opts.Cache = cache
	col, err := sweep.RunBackend(b, opts, "rep")
	if err != nil {
		return err
	}
	reportCache(cache, "sweep")
	if f.shard != "" {
		return col.WriteShard(os.Stdout)
	}
	return col.Write(os.Stdout, f.format)
}

// runFigures regenerates the named figure ("all" for every one, in
// order) from its sim grid and prints it as the rows the paper plots
// (-format table) or as JSON.
func runFigures(f sweepFlags, which string) error {
	if f.format != "table" && f.format != "json" {
		return fmt.Errorf("-figures prints -format table or json, not %q", f.format)
	}
	names := []string{which}
	switch which {
	case "all":
		names = experiments.FigureNames
	case "2a", "2b", "3a", "3b":
		names = []string{which[:1]}
	}
	cache, err := openCache(f)
	if err != nil {
		return err
	}
	opts := sweep.Options{Parallel: f.parallel, Seed: f.seed, Cache: cache}
	out := bufio.NewWriter(os.Stdout)
	results := make(map[string]any, len(names))
	for _, name := range names {
		res, err := experiments.RunFigure(name, f.reps, opts)
		if err != nil {
			return err
		}
		results[name] = res
		if f.format == "table" {
			experiments.Figures[name].Text(out, res)
			if len(names) > 1 {
				fmt.Fprintln(out)
			}
		}
	}
	reportCache(cache, "figures")
	if f.format == "json" {
		var v any = results
		if len(names) == 1 {
			v = results[names[0]]
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return out.Flush()
}

// openCache opens the -cache cell-result cache, or returns nil when
// the flag is unset (a nil cache caches nothing).
func openCache(f sweepFlags) (*sweep.Cache, error) {
	if f.cache == "" {
		return nil, nil
	}
	return sweep.NewCache(f.cache)
}

// reportCache prints this process's cache counters to stderr — the
// warm-vs-cold summary of a -cache run.
func reportCache(c *sweep.Cache, role string) {
	if c == nil {
		return
	}
	cc := c.Counters()
	fmt.Fprintf(os.Stderr, "%s: cache: %d hits, %d misses, %d bypassed, %d writes\n",
		role, cc.Hits, cc.Misses, cc.Bypassed, cc.Writes)
}

// runServe coordinates distributed sweeps: partition each grid into
// leases, hand them to workers, fold their uploads into a running
// aggregate and render the result — byte-identical to runSweep at any
// worker count, steal, re-issue, or coordinator-crash-and-resume
// history. With -checkpoint the coordinator state is durable; a
// comma-separated -sweep list queues several sim grids on the one
// coordinator and runs them in order (a long-lived grid service), each
// result preceded by a "# sweep i: name" header. A single sweep is a
// one-entry queue printed without the header.
func runServe(f sweepFlags, addr string, leaseCells int, ttl time.Duration, checkpoint string, resume bool, leaseRetries int) error {
	scenarios := strings.Split(f.scenario, ",")
	queue := len(scenarios) > 1
	if queue && f.backend != "sim" {
		return fmt.Errorf("a -sweep queue (comma-separated scenarios) needs -backend sim")
	}
	backends := make([]sweep.Backend, len(scenarios))
	for i := range scenarios {
		scenarios[i] = strings.TrimSpace(scenarios[i])
		if queue && scenarios[i] == "" {
			return fmt.Errorf("-sweep list entry %d is empty", i)
		}
		fs := f
		fs.scenario = scenarios[i]
		b, err := buildBackend(fs)
		if err != nil {
			if queue {
				return fmt.Errorf("sweep %d (%s): %w", i, scenarios[i], err)
			}
			return err
		}
		backends[i] = b
	}
	plan, err := chaosPlan(f, "coord")
	if err != nil {
		return err
	}
	cache, err := openCache(f)
	if err != nil {
		return err
	}
	cfg := coord.Config{
		Addr:             addr,
		LeaseCells:       leaseCells,
		LeaseTTL:         ttl,
		MaxLeaseFailures: leaseRetries,
		Checkpoint:       checkpoint,
		Cache:            cache,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "coord: "+format+"\n", args...)
		},
	}
	if plan != nil {
		cfg.Middleware = func(next http.Handler) http.Handler { return plan.Middleware("coord", next) }
		cfg.WriteCheckpoint = plan.CheckpointWriter(coord.WriteFileDurable)
	}
	if sweep.IsVolatile(backends[0]) {
		// Real-process cells are never cached (and a queue is sim-only),
		// so the coordinator has nothing to consult before leasing.
		cfg.Cache = nil
	}
	c := coord.New(cfg)
	for _, b := range backends {
		g, err := b.Grid()
		if err != nil {
			return err
		}
		if _, err := c.Enqueue(coord.Sweep{
			Grid: g, Seed: f.seed, Collapse: []string{"rep"},
			BackendName: b.Name(), BackendFP: coord.BackendFingerprint(b),
		}); err != nil {
			return err
		}
	}
	if resume {
		if err := c.Restore(checkpoint); err != nil {
			return err
		}
	}
	if err := c.Serve(); err != nil {
		return err
	}
	// A failed sweep does not stop later ones; the first failure (or,
	// failing that, the first write error) is what runServe returns.
	var failed, werr error
	for i, scenario := range scenarios {
		col, err := c.WaitSweep(context.Background(), i)
		if err != nil {
			if queue {
				err = fmt.Errorf("sweep %d: %w", i, err)
			}
			failed = cmp.Or(failed, err)
			continue
		}
		if queue {
			fmt.Printf("# sweep %d: %s\n", i, scenario)
		}
		werr = cmp.Or(werr, col.Write(os.Stdout, f.format))
	}
	c.Drain()
	if failed != nil {
		return failed
	}
	reportCache(cache, "coord")
	return werr
}

// runStatus queries a running coordinator's GET /v1/status endpoint
// and prints per-sweep and per-worker progress.
func runStatus(addr string) error {
	st, err := coord.FetchStatus(addr)
	if err != nil {
		return err
	}
	for _, s := range st.Sweeps {
		line := fmt.Sprintf("sweep %d: %-7s %d/%d cells", s.Sweep, s.State, s.CellsDone, s.Cells)
		if s.Cells > 0 {
			line += fmt.Sprintf(" (%d%%)", 100*s.CellsDone/s.Cells)
		}
		line += fmt.Sprintf(", leases %d done / %d out / %d queued of %d",
			s.LeasesDone, s.LeasesOutstanding, s.LeasesQueued, s.Leases)
		if s.EtaMS >= 0 {
			line += fmt.Sprintf(", eta %s", (time.Duration(s.EtaMS) * time.Millisecond).Round(time.Second))
		}
		if s.Error != "" {
			line += ", error: " + s.Error
		}
		fmt.Println(line)
	}
	for _, w := range st.Workers {
		fmt.Printf("worker %s: sweep %d, %d cells, %.1f cells/s, seen %s ago\n",
			w.Worker, w.Sweep, w.CellsDone, w.CellsPerSec,
			(time.Duration(w.LastSeenMS) * time.Millisecond).Round(100*time.Millisecond))
	}
	if st.Cache != nil {
		fmt.Printf("cache: %d hits, %d misses, %d bypassed, %d writes\n",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Bypassed, st.Cache.Writes)
	}
	return nil
}

// runWorker joins a coordinator and executes leased cells with the
// locally constructed backend until the sweep completes. A -chaos plan
// wraps the backend with its cell faults and the HTTP client with its
// transport faults.
func runWorker(f sweepFlags, addr string) error {
	b, err := buildBackend(f)
	if err != nil {
		return err
	}
	if f.backend == "real" && !f.parallelSet {
		// Same rule as runSweep: real cells measure wall-clock time, so
		// they run serially unless concurrency is asked for explicitly.
		f.parallel = 1
	}
	plan, err := chaosPlan(f, "worker")
	if err != nil {
		return err
	}
	cache, err := openCache(f)
	if err != nil {
		return err
	}
	cfg := coord.WorkerConfig{
		Addr:     addr,
		Backend:  b,
		Parallel: f.parallel,
		Cache:    cache,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
		},
	}
	if plan != nil {
		cfg.Backend = plan.WrapBackend(b)
		cfg.Client = &http.Client{
			Timeout:   30 * time.Second,
			Transport: plan.Transport("worker", nil),
		}
	}
	werr := coord.RunWorker(context.Background(), cfg)
	reportCache(cache, "worker")
	return werr
}

// chaosPlan builds the process's fault plan from -chaos, logging every
// injected fault to stderr under the process role — the replayable
// fault trace of a drill. Nil when -chaos is unset.
func chaosPlan(f sweepFlags, role string) (*chaos.Plan, error) {
	if f.chaos == "" {
		return nil, nil
	}
	cfg, err := chaos.ParseSpec(f.chaos)
	if err != nil {
		return nil, err
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, role+": "+format+"\n", args...)
	}
	plan := chaos.New(cfg)
	fmt.Fprintf(os.Stderr, "%s: chaos plan active (seed %d): %s\n", role, plan.Seed(), f.chaos)
	return plan, nil
}

// runMerge combines the shard files of one sweep into the full result
// and renders it; any shard order yields byte-identical output.
func runMerge(files []string, format string) error {
	if len(files) == 0 {
		return fmt.Errorf("-merge needs shard files as arguments")
	}
	shards := make([]*sweep.Collapsed, len(files))
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		shards[i], err = sweep.ReadShard(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	col, err := sweep.Merge(shards...)
	if err != nil {
		return err
	}
	return col.Write(os.Stdout, format)
}

func run(path string, nodes, slots int, seed uint64, deadline time.Duration, width int) error {
	if path == "" {
		return fmt.Errorf("missing -config or -sweep (see -h)")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	exp, err := config.Parse(f)
	if err != nil {
		return err
	}
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = nodes
	ccfg.Node.MapSlots = slots
	ccfg.Seed = seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return err
	}
	runner, err := config.NewRunner(exp, cluster)
	if err != nil {
		return err
	}
	if err := runner.Run(deadline); err != nil {
		return err
	}

	fmt.Printf("primitive: %v\n\n", exp.Primitive)
	fmt.Println("schedule ('#' running, '=' suspended, 'c' cleanup, '.' waiting):")
	fmt.Print(runner.Trace().Gantt(width))
	fmt.Println()

	names := make([]string, 0, len(runner.Jobs()))
	for name := range runner.Jobs() {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %-10s %10s %12s %8s %10s %12s\n",
		"job", "state", "sojourn", "wasted-cpu", "susp", "attempts", "swap-out")
	for _, name := range names {
		job := runner.Jobs()[name]
		tot := job.Totals()
		fmt.Printf("%-12s %-10s %9.1fs %11.1fs %8d %10d %11dM\n",
			name, job.State(),
			(job.CompletedAt() - job.SubmittedAt()).Seconds(),
			tot.WastedWork.Seconds(), tot.Suspensions, tot.Attempts, tot.SwapOut>>20)
	}
	return nil
}
