package hadooppreempt

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"hadooppreempt/internal/chaos"
	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/genload"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/realexec"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sweep"
	"hadooppreempt/internal/workload"
)

// The sweep harness fans a declarative grid of scenarios out across a
// bounded worker pool; every cell gets its own deterministically derived
// seed, so results are identical at any parallelism level. These aliases
// re-export it on the facade.

// SweepGrid declares a scenario grid (the cross product of its axes).
type SweepGrid = sweep.Grid

// SweepAxis is one grid dimension.
type SweepAxis = sweep.Axis

// SweepPoint is one grid cell handed to a run function.
type SweepPoint = sweep.Point

// SweepOptions tunes execution (worker pool size, base seed).
type SweepOptions = sweep.Options

// SweepCellFunc executes one cell on the streaming-collapse path,
// reporting measurements through a reusable recorder.
type SweepCellFunc = sweep.CellFunc

// SweepRecorder receives one cell's measurements.
type SweepRecorder = sweep.Recorder

// SweepCollapsed is a sweep aggregated as cells complete; shard results
// of the same sweep merge into the single-process result exactly.
type SweepCollapsed = sweep.Collapsed

// SweepShard selects one of n seed-stable grid slices (see RunSweepCollapsed).
type SweepShard = sweep.Shard

// CellCache is a persistent content-addressed store of sweep cell
// results rooted at one directory. Cells whose verified entry exists
// replay it instead of executing; keys cover the grid fingerprint, the
// backend identity, the base seed and the cell index, so warm reruns
// are byte-identical to cold ones at any parallelism, shard split or
// worker count. Corrupt, truncated or mismatched entries are silent
// misses, never errors. A nil *CellCache caches nothing.
type CellCache = sweep.Cache

// NewCellCache opens (creating if needed) the cell-result cache rooted
// at dir. One cache may serve many sweeps and many processes at once.
func NewCellCache(dir string) (*CellCache, error) {
	return sweep.NewCache(dir)
}

// SweepBackend binds a scenario grid to an execution engine: the
// simulator, the SWIM trace replayer, or real OS processes. All three
// run through the same harness, so parallelism, sharding and merge
// guarantees carry over (the real backend's wall-clock measurements are
// the one documented exception to determinism).
type SweepBackend = sweep.Backend

// RunSweepCollapsed executes the grid — or the shard of it selected by
// opts.Shard — on the streaming path, folding outcomes into aggregates
// collapsed over the named axes as cells complete.
func RunSweepCollapsed(g SweepGrid, run SweepCellFunc, opts SweepOptions, collapse ...string) (*SweepCollapsed, error) {
	return sweep.RunCollapsed(g, run, opts, collapse...)
}

// RunSweepBackend executes the backend's grid — or the shard of it
// selected by opts.Shard — on the streaming path, collapsing the named
// axes as cells complete.
func RunSweepBackend(b SweepBackend, opts SweepOptions, collapse ...string) (*SweepCollapsed, error) {
	return sweep.RunBackend(b, opts, collapse...)
}

// ParseSweepShard parses an "i/n" shard specification.
func ParseSweepShard(spec string) (SweepShard, error) {
	return sweep.ParseShard(spec)
}

// ReadSweepShard deserializes a shard file written by
// SweepCollapsed.WriteShard.
func ReadSweepShard(r io.Reader) (*SweepCollapsed, error) {
	return sweep.ReadShard(r)
}

// MergeSweepShards combines the shards of one sweep — in any order —
// into the full result, byte-identical to a single-process run.
func MergeSweepShards(shards ...*SweepCollapsed) (*SweepCollapsed, error) {
	return sweep.Merge(shards...)
}

// TwoJobSweep returns the canned grid and runner for the paper's
// two-job scenario: primitive x preemption point x repetition, 27 cells
// per repetition. The grid and cell wiring are the same ones behind
// Figures 2 and 3, so the CLI sweep and the figure generators cannot
// drift. The primitive axis is seed-paired, so primitives are compared
// under identical randomness.
func TwoJobSweep(reps int) (SweepGrid, SweepCellFunc) {
	run := func(pt SweepPoint, rec *SweepRecorder) error {
		return experiments.TwoJobCellInto(pt, 0, 0, rec)
	}
	return experiments.TwoJobGrid(reps), run
}

// ClusterSweep returns the canned grid and runner for the cluster-scale
// scenario: scheduler x node count x workload mix x repetition (27 cells
// per repetition). Every cell boots an isolated cluster, installs a
// deterministic SWIM-style workload of jobs jobs, runs it to completion
// and reports sojourn statistics, preemption counts and swap traffic.
//
// Passing eviction policies adds an "evict" axis and restricts the
// scheduler axis to the preempting schedulers (fair, hfsp), so
// victim-selection policies get the same grid coverage as the two-job
// scenario; FIFO never preempts, which would make the axis inert.
func ClusterSweep(jobs, reps int, evictionPolicies ...string) (SweepGrid, SweepCellFunc) {
	if jobs <= 0 {
		jobs = 12
	}
	axes := []SweepAxis{sweep.Strings("sched", "fifo", "fair", "hfsp")}
	paired := []string{"sched"}
	if len(evictionPolicies) > 0 {
		axes = []SweepAxis{
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
	run := clusterCell(jobs, func(pt SweepPoint) (Primitive, string) {
		if len(evictionPolicies) > 0 {
			return Suspend, pt.Label("evict")
		}
		return Suspend, ""
	})
	return g, run
}

// ClusterPrimitiveSweep returns the cluster-scale grid with a
// seed-paired preemption-primitive axis: scheduler (fair, hfsp) x
// primitive (susp, kill) x node count x workload mix x repetition. Like
// the eviction-policy axis, the primitive axis is restricted to the
// preempting schedulers (FIFO never preempts, which would make the axis
// inert) and seed-paired, so susp and kill face identical workload
// draws and outcome differences are pure primitive effect — the
// paper's paired comparison, scaled from the two-job scenario to
// scheduler-driven preemption on a full cluster.
func ClusterPrimitiveSweep(jobs, reps int) (SweepGrid, SweepCellFunc) {
	if jobs <= 0 {
		jobs = 12
	}
	g := sweep.NewGrid(
		sweep.Strings("sched", "fair", "hfsp"),
		sweep.Stringers("prim", Suspend, Kill),
		sweep.Ints("nodes", 1, 2, 4),
		sweep.Strings("mix", "interactive", "mixed", "batch"),
		sweep.Reps(reps),
	).Pair("sched", "prim")
	run := clusterCell(jobs, func(pt SweepPoint) (Primitive, string) {
		return pt.Value("prim").(Primitive), ""
	})
	return g, run
}

// clusterCell returns the shared cluster-scale cell runner: boot an
// isolated cluster from the cell's coordinates, install a deterministic
// SWIM-style workload, run it to completion and record sojourn
// statistics and swap traffic (see workload.Run). axes reads the
// grid-specific axes (preemption primitive, eviction policy) from the
// cell.
func clusterCell(jobs int, axes func(SweepPoint) (Primitive, string)) SweepCellFunc {
	return func(pt SweepPoint, rec *SweepRecorder) error {
		prim, policy := axes(pt)
		c, _, err := cellCluster(pt, pt.Int("nodes"), prim, policy, 0)
		if err != nil {
			return err
		}
		defer c.Close()
		specs, err := GenerateWorkload(workloadMix(pt.Label("mix"), jobs), pt.Seed)
		if err != nil {
			return err
		}
		return workload.Run(c, specs, 0, 24*time.Hour, rec)
	}
}

// cellCluster boots the isolated cluster of one cluster-scale cell:
// nodes nodes of two map slots each, seeded from the cell, running the
// scheduler its "sched" axis names.
func cellCluster(pt SweepPoint, nodes int, prim Primitive, policy string, timeout time.Duration) (*mapreduce.Cluster, *scheduler.Installation, error) {
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

// GenScenario re-exports the seeded scenario generator's configuration
// (see internal/genload): burst arrivals, pool spread, size and
// memory-skew distributions, and the starvation timeout the scenario is
// tuned for.
type GenScenario = genload.Scenario

// DefaultGenScenario returns the tuned default scenario: pool-
// alternating bursts sized so the fair scheduler demonstrably preempts
// on the scenario sweep's 2x2-slot cluster.
func DefaultGenScenario() GenScenario { return genload.Default() }

// ScenarioSweep returns the generated-scenario grid and runner:
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
func ScenarioSweep(reps int) (SweepGrid, SweepCellFunc) {
	g := sweep.NewGrid(
		sweep.Strings("sched", "fair", "hfsp"),
		sweep.Strings("arrival", "burst", "steady"),
		sweep.Strings("mem", "uniform", "skewed"),
		sweep.Reps(reps),
	).Pair("sched", "arrival", "mem")
	run := func(pt SweepPoint, rec *SweepRecorder) error {
		sc := DefaultGenScenario()
		if pt.Label("arrival") == "steady" {
			// One job per "burst": a steady trickle at the jitter cadence,
			// pools still alternating job to job.
			sc.BurstSize = 1
			sc.BurstGap = 15 * time.Second
		}
		if pt.Label("mem") == "skewed" {
			sc.HeavyFrac = 0.5
		}
		c, sched, err := cellCluster(pt, 2, Suspend, "", sc.StarvationTimeout)
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

// --- Execution backends -----------------------------------------------

// SimSweep resolves a named simulator scenario to an execution backend:
// "twojob", "pressure", "cluster", "evict" (the cluster grid with the
// eviction-policy axis), "primitive" (the cluster grid with the
// seed-paired susp-vs-kill axis) or "scenarios" (the generated
// preemption-scenario grid; see ScenarioSweep). The sim backend is the
// pre-existing sweep path behind the committed goldens; its output is
// byte-identical to the direct grid runners at any parallelism level.
func SimSweep(scenario string, jobs, reps int) (SweepBackend, error) {
	switch scenario {
	case "twojob", "pressure":
		return experiments.SimBackend(scenario, reps)
	case "cluster":
		g, run := ClusterSweep(jobs, reps)
		return sweep.FuncBackend{Engine: experiments.SimBackendName, G: g, Run: run}, nil
	case "evict":
		g, run := ClusterSweep(jobs, reps, evictionPolicyNames()...)
		return sweep.FuncBackend{Engine: experiments.SimBackendName, G: g, Run: run}, nil
	case "primitive":
		g, run := ClusterPrimitiveSweep(jobs, reps)
		return sweep.FuncBackend{Engine: experiments.SimBackendName, G: g, Run: run}, nil
	case "scenarios":
		g, run := ScenarioSweep(reps)
		return sweep.FuncBackend{Engine: experiments.SimBackendName, G: g, Run: run}, nil
	default:
		return nil, fmt.Errorf("hadooppreempt: unknown sim scenario %q (want twojob, pressure, cluster, evict, primitive or scenarios)", scenario)
	}
}

// SWIMTraceJob is one job of a parsed SWIM trace file.
type SWIMTraceJob = workload.TraceJob

// ReadSWIMTraceFile parses the SWIM trace at the given path.
func ReadSWIMTraceFile(path string) ([]SWIMTraceJob, error) {
	return workload.ReadTraceFile(path)
}

// SynthesizeSWIMTrace generates an n-job Facebook-like SWIM trace,
// deterministic in n alone (fixed generator seed), so independent
// processes — benchmark harnesses, CI smoke jobs, distributed workers —
// regenerate byte-identical traces without shipping a trace file.
func SynthesizeSWIMTrace(n int) ([]SWIMTraceJob, error) {
	return workload.SynthesizeTrace(n, 1)
}

// ReplayConfig configures the trace-replay backend.
type ReplayConfig = workload.ReplayConfig

// ReplaySweep builds the backend that replays a SWIM trace through
// simulated clusters, one trace shard per grid cell. Replay cells
// derive their seeds from grid coordinates like every other backend, so
// replay output is deterministic across -parallel and process shards.
func ReplaySweep(cfg ReplayConfig) (SweepBackend, error) {
	return workload.NewReplayBackend(cfg)
}

// RealExecConfig configures the real-process backend.
type RealExecConfig = realexec.SweepConfig

// RealExecSweep builds the backend that runs the two-job preemption
// scenario on real OS processes (SIGTSTP/SIGCONT/SIGKILL), recording
// the same metric names as the simulator's two-job cells so sim and
// real aggregates compare in one table. The embedding binary must route
// worker self-invocations: call realexec-style worker dispatch (see
// IsRealExecWorker / RealExecWorkerMain) before flag parsing.
func RealExecSweep(cfg RealExecConfig) (SweepBackend, error) {
	return realexec.NewBackend(cfg)
}

// slowBackend decorates a backend with artificial per-cell wall-clock
// cost; see SlowSweep.
type slowBackend struct {
	SweepBackend
	unit time.Duration
}

func (b slowBackend) Cell(pt SweepPoint, rec *SweepRecorder) error {
	time.Sleep(time.Duration(1+pt.Index%3) * b.unit)
	return b.SweepBackend.Cell(pt, rec)
}

// Fingerprint forwards the wrapped backend's content fingerprint (see
// coord.Fingerprinter). The sleep itself is not part of it: it changes
// wall-clock behavior only, never results, so coordinator and workers
// may use different -cell-sleep values.
func (b slowBackend) Fingerprint() string {
	return coord.BackendFingerprint(b.SweepBackend)
}

// CacheVolatile forwards the wrapped backend's volatility (see
// sweep.Volatile): the sleep changes wall-clock behavior only, never
// results, so it must not change whether results are cacheable either.
func (b slowBackend) CacheVolatile() bool { return sweep.IsVolatile(b.SweepBackend) }

// SlowSweep wraps a backend with artificial, deterministically uneven
// per-cell cost: cell i sleeps (1 + i mod 3) x unit before running.
// Measurements are untouched, so output stays byte-identical to the
// unwrapped backend; only wall-clock behavior changes. It exists to
// exercise the distributed scheduler — steals, lease expiry,
// kill/reissue races — against grids whose cells are slow and uneven
// no matter how fast the simulator is (the CI distributed-parity gate
// uses it). A non-positive unit returns the backend unchanged.
func SlowSweep(b SweepBackend, unit time.Duration) SweepBackend {
	if unit <= 0 {
		return b
	}
	return slowBackend{SweepBackend: b, unit: unit}
}

// --- Distributed execution --------------------------------------------

// DistributedOptions configures the coordinator side of a distributed
// sweep.
type DistributedOptions struct {
	// Addr is the TCP listen address, e.g. ":9090".
	Addr string
	// Seed is the sweep-level base seed; the coordinator hands it to
	// every worker at join time.
	Seed uint64
	// LeaseCells is the number of grid cells per lease (default 8).
	// Smaller leases balance uneven cell costs better.
	LeaseCells int
	// LeaseTTL bounds how long a lease may stay outstanding before a
	// silent worker's cells are re-issued (default 30s).
	LeaseTTL time.Duration
	// Checkpoint, when set, is the file the coordinator persists its
	// state to — identity fingerprints, the lease ledger and the
	// running aggregate — after every accepted upload, making the sweep
	// durable against coordinator loss.
	Checkpoint string
	// Resume restarts a killed coordinator from Checkpoint: leases that
	// were durable stay done, only the rest are re-issued, and the
	// final output is byte-identical to an uninterrupted run.
	Resume bool
	// OnListen, when set, receives the bound listen address once the
	// coordinator is serving — the way to learn the port of an ":0"
	// Addr.
	OnListen func(addr string)
	// Logf, when set, receives coordinator progress lines (joins,
	// leases, steals, re-issues).
	Logf func(format string, args ...any)
	// MaxLeaseFailures is the per-lease failure budget before the sweep
	// aborts as poisoned (default 3); see coord.Config.
	MaxLeaseFailures int
	// Cache, when set, is the persistent cell-result cache the
	// coordinator consults before issuing leases: leases whose every
	// cell has a verified entry are absorbed directly and never reach a
	// worker. Volatile backends (the real-process backend) skip it.
	Cache *CellCache
	// Chaos, when set, injects the plan's faults on the coordinator
	// side: its transport faults at the server boundary and its
	// checkpoint faults into the checkpoint writer.
	Chaos *ChaosPlan
}

// --- Chaos (deterministic fault injection) ----------------------------

// ChaosConfig declares a seeded fault schedule for the distributed
// path; see the internal/chaos package documentation for the fault
// matrix and determinism contract.
type ChaosConfig = chaos.Config

// ChaosPlan is an active fault schedule (per-site RNG streams derived
// from one seed). One plan serves one process.
type ChaosPlan = chaos.Plan

// NewChaosPlan builds a fault plan from the schedule.
func NewChaosPlan(cfg ChaosConfig) *ChaosPlan { return chaos.New(cfg) }

// ParseChaosSpec parses a -chaos flag value (comma-separated key=value
// pairs: seed, drop, drop-resp, dup, trunc, delay, delay-max, ckpt,
// cell-err, cell-panic, cell-fails) into a ChaosConfig.
func ParseChaosSpec(spec string) (ChaosConfig, error) { return chaos.ParseSpec(spec) }

// coordConfig builds the coordinator configuration both distributed
// entry points share, wiring a chaos plan's coordinator-side hooks —
// HTTP middleware at the "coord" site and the checkpoint-writer wrapper
// — when one is set.
func coordConfig(opts DistributedOptions) coord.Config {
	cfg := coord.Config{
		Addr:             opts.Addr,
		LeaseCells:       opts.LeaseCells,
		LeaseTTL:         opts.LeaseTTL,
		MaxLeaseFailures: opts.MaxLeaseFailures,
		Checkpoint:       opts.Checkpoint,
		Cache:            opts.Cache,
		OnListen:         opts.OnListen,
		Logf:             opts.Logf,
	}
	if p := opts.Chaos; p != nil {
		cfg.Middleware = func(next http.Handler) http.Handler { return p.Middleware("coord", next) }
		cfg.WriteCheckpoint = p.CheckpointWriter(coord.WriteFileDurable)
	}
	return cfg
}

// DistributedSweep serves the backend's grid as lease-based work units
// to RunDistributedWorker processes and blocks until every cell has
// a result, returning the merged sweep. Leases lost to dead workers
// are re-issued after LeaseTTL, and outstanding leases are stolen
// (speculatively duplicated) by workers that drain the queue early, so
// uneven cell costs never leave capacity idle. Because cell seeds
// derive from grid coordinates and merging combines raw sample
// multisets, the result is byte-identical to RunSweepBackend at any
// worker count, join order, steal or re-issue history — for every
// output format. (The real-process backend's wall-clock measurements
// remain the documented exception to determinism.)
func DistributedSweep(ctx context.Context, b SweepBackend, opts DistributedOptions, collapse ...string) (*SweepCollapsed, error) {
	g, err := b.Grid()
	if err != nil {
		return nil, err
	}
	cfg := coordConfig(opts)
	cfg.BackendName = b.Name()
	cfg.BackendFP = coord.BackendFingerprint(b)
	cfg.Resume = opts.Resume
	if sweep.IsVolatile(b) {
		cfg.Cache = nil
	}
	c := coord.New(cfg)
	if err := c.Start(g, opts.Seed, collapse...); err != nil {
		return nil, err
	}
	defer c.Drain()
	return c.Wait(ctx)
}

// SweepStatus queries a running coordinator's GET /v1/status endpoint:
// per-sweep cell and lease progress, per-worker throughput, ETA.
func SweepStatus(addr string) (*coord.Status, error) {
	return coord.FetchStatus(addr)
}

// DistributedSweepQueue serves several sweeps from one coordinator —
// a long-lived grid service. Sweeps activate in enqueue order; workers
// join the sweep whose grid and backend fingerprints they prove, and
// workers for a not-yet-active sweep poll until it starts. OnResult,
// when set, receives each sweep's merged output as it completes (the
// returned slice holds the same values, nil for failed sweeps). The
// returned error is the first sweep failure, if any; later sweeps
// still run.
func DistributedSweepQueue(ctx context.Context, backends []SweepBackend, opts DistributedOptions,
	onResult func(i int, col *SweepCollapsed), collapse ...string) ([]*SweepCollapsed, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("sweep queue needs at least one backend")
	}
	// Volatile backends are safe under a shared cache: their workers
	// bypass it, so no entry ever exists for the coordinator to replay —
	// every consult is a miss that falls through to leasing.
	c := coord.New(coordConfig(opts))
	for _, b := range backends {
		g, err := b.Grid()
		if err != nil {
			return nil, err
		}
		if _, err := c.Enqueue(coord.Sweep{
			Grid: g, Seed: opts.Seed, Collapse: collapse,
			BackendName: b.Name(), BackendFP: coord.BackendFingerprint(b),
		}); err != nil {
			return nil, err
		}
	}
	if opts.Resume {
		if err := c.Restore(opts.Checkpoint); err != nil {
			return nil, err
		}
	}
	if err := c.Serve(); err != nil {
		return nil, err
	}
	defer c.Drain()
	results := make([]*SweepCollapsed, len(backends))
	var firstErr error
	for i := range backends {
		col, err := c.WaitSweep(ctx, i)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("sweep %d: %w", i, err)
			}
			if ctx.Err() != nil {
				break
			}
			continue
		}
		results[i] = col
		if onResult != nil {
			onResult(i, col)
		}
	}
	return results, firstErr
}

// DistributedWorkerOptions configures one worker process.
type DistributedWorkerOptions struct {
	// Parallel bounds the worker's in-process pool per lease.
	Parallel int
	// Cache, when set, memoizes this worker's leased cell results
	// persistently (see CellCache). Volatile backends bypass it.
	Cache *CellCache
	// Chaos, when set, injects the plan's faults on this worker's side:
	// transport faults on its HTTP client and cell faults around its
	// backend. Give each worker its own plan (distinct seeds) so their
	// transport schedules are independent.
	Chaos *ChaosPlan
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

// RunDistributedWorker joins the coordinator at addr and executes
// leased cell batches through a locally constructed backend until the
// sweep completes. The backend must describe the same grid as the
// coordinator's (verified via structure and content fingerprints at
// join time); the coordinator's seed and collapse axes govern. A
// worker-side chaos plan in opts drives deterministic fault drills.
func RunDistributedWorker(ctx context.Context, addr string, b SweepBackend, opts DistributedWorkerOptions) error {
	cfg := coord.WorkerConfig{
		Addr:     addr,
		Backend:  b,
		Parallel: opts.Parallel,
		Cache:    opts.Cache,
		Logf:     opts.Logf,
	}
	if opts.Chaos != nil {
		cfg.Backend = opts.Chaos.WrapBackend(b)
		cfg.Client = &http.Client{
			Timeout:   30 * time.Second,
			Transport: opts.Chaos.Transport("worker", nil),
		}
	}
	return coord.RunWorker(ctx, cfg)
}

// IsRealExecWorker reports whether this process was re-executed as a
// real-backend worker and must call RealExecWorkerMain.
func IsRealExecWorker() bool { return realexec.IsWorkerInvocation() }

// RealExecWorkerMain runs the worker side of the real-process backend;
// it does not return.
func RealExecWorkerMain() { realexec.WorkerMain() }

// workloadMix builds the named workload configuration: "mixed" is the
// default interactive/batch blend, "interactive" and "batch" isolate one
// class each.
func workloadMix(mix string, jobs int) WorkloadConfig {
	cfg := DefaultWorkloadConfig()
	cfg.Count = jobs
	switch mix {
	case "interactive":
		cfg.Classes = cfg.Classes[:1]
	case "batch":
		cfg.Classes = cfg.Classes[1:]
	}
	return cfg
}
