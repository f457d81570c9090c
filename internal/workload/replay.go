package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sweep"
)

// ReplayBackendName is the name the trace replayer reports to the sweep
// harness.
const ReplayBackendName = "replay"

// TraceShardAxis is the grid axis that picks one trace shard per cell.
const TraceShardAxis = "trace_shard"

// ReplayConfig configures a trace-replay backend.
type ReplayConfig struct {
	// Jobs is the parsed trace (see ParseTrace / ReadTraceFile).
	Jobs []TraceJob
	// Shards splits the trace into this many cells per repetition —
	// round-robin by trace position, so long traces spread across the
	// worker pool (and across processes via -shard). Default 1.
	Shards int
	// Reps repeats every trace shard with fresh cluster randomness.
	// Default 1.
	Reps int
	// Nodes and SlotsPerNode size each cell's simulated cluster
	// (defaults 2 and 2).
	Nodes        int
	SlotsPerNode int
	// Scheduler is the cluster scheduler: "fifo" (default), "fair" or
	// "hfsp". Fair and HFSP preempt with the suspend primitive and the
	// most-progress eviction policy, the paper's defaults.
	Scheduler string
	// MapParseRate is the synthetic mapper throughput applied to
	// replayed jobs (bytes/s; default 8e6, matching the SWIM-style
	// generator's classes). Non-finite values are rejected.
	MapParseRate float64
	// MaxInputBytes caps a replayed job's input size (0 = no cap):
	// public traces contain multi-TB outliers that would swamp a
	// simulated cell.
	MaxInputBytes int64
	// TimeScale divides replayed submission times, compressing trace
	// inter-arrival gaps so day-long SWIM traces run in bounded sweep
	// cells (e.g. 24 turns a day of arrivals into an hour of virtual
	// time). It is a pure function of the trace, so replay output stays
	// deterministic across -parallel, -shard and distributed workers.
	// 0 means 1 (no compression); negative and non-finite values are
	// rejected.
	TimeScale float64
	// Deadline bounds each cell's virtual time (default 24h).
	Deadline time.Duration
	// Window bounds in-flight input materialization per cell: at most
	// this many jobs' HDFS inputs exist ahead of the submission
	// frontier (see InstallWindowed), so multi-thousand-job shards
	// stream instead of allocating every input up front. 0 means
	// unbounded. Output is byte-identical for any window, so it is
	// deliberately absent from Fingerprint: coordinator and workers
	// may disagree on it freely.
	Window int
}

// ReplayBackend replays a SWIM trace through simulated clusters: each
// grid cell materializes one trace shard as JobSpecs, boots an isolated
// cluster seeded from the cell's coordinate-derived seed, and runs the
// shard to completion. Because cells depend only on the parsed trace
// and their Point, replay output is identical at any parallelism and
// across process sharding, exactly like the simulator backend.
type ReplayBackend struct {
	cfg ReplayConfig
}

// NewReplayBackend validates the configuration and builds the backend.
func NewReplayBackend(cfg ReplayConfig) (*ReplayBackend, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("workload: replay needs a non-empty trace")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > len(cfg.Jobs) {
		return nil, fmt.Errorf("workload: %d trace shards for %d jobs", cfg.Shards, len(cfg.Jobs))
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	if cfg.Nodes < 1 {
		cfg.Nodes = 2
	}
	if cfg.SlotsPerNode < 1 {
		cfg.SlotsPerNode = 2
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "fifo"
	}
	switch cfg.Scheduler {
	case "fifo", "fair", "hfsp":
	default:
		return nil, fmt.Errorf("workload: unknown replay scheduler %q (want fifo, fair or hfsp)", cfg.Scheduler)
	}
	if math.IsNaN(cfg.MapParseRate) || math.IsInf(cfg.MapParseRate, 0) {
		return nil, fmt.Errorf("workload: replay map parse rate %g is not finite", cfg.MapParseRate)
	}
	if cfg.MapParseRate <= 0 {
		cfg.MapParseRate = 8e6
	}
	if !(cfg.TimeScale >= 0) || math.IsInf(cfg.TimeScale, 1) {
		return nil, fmt.Errorf("workload: replay time scale %g is negative or not finite", cfg.TimeScale)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 24 * time.Hour
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("workload: negative replay window %d", cfg.Window)
	}
	return &ReplayBackend{cfg: cfg}, nil
}

// Name implements sweep.Backend.
func (b *ReplayBackend) Name() string { return ReplayBackendName }

// Fingerprint returns a content signature of everything a replay cell's
// outcome depends on beyond the grid structure: the parsed trace and
// the replay configuration. The distributed coordinator compares it at
// join time, so a worker holding a different copy of the trace (or
// different replay flags) is rejected instead of silently breaking the
// merged sweep's byte-identity.
func (b *ReplayBackend) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "replay shards=%d reps=%d nodes=%d slots=%d sched=%s rate=%g cap=%d timescale=%g deadline=%d\n",
		b.cfg.Shards, b.cfg.Reps, b.cfg.Nodes, b.cfg.SlotsPerNode, b.cfg.Scheduler,
		b.cfg.MapParseRate, b.cfg.MaxInputBytes, b.cfg.TimeScale, int64(b.cfg.Deadline))
	for _, j := range b.cfg.Jobs {
		fmt.Fprintf(h, "%q %d %d %d %d %d\n", j.ID, int64(j.SubmitAt), int64(j.Interarrival),
			j.InputBytes, j.ShuffleBytes, j.OutputBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Grid implements sweep.Backend: trace shard x repetition.
func (b *ReplayBackend) Grid() (sweep.Grid, error) {
	shards := make([]int, b.cfg.Shards)
	for i := range shards {
		shards[i] = i
	}
	return sweep.NewGrid(
		sweep.Ints(TraceShardAxis, shards...),
		sweep.Reps(b.cfg.Reps),
	), nil
}

// Specs materializes the trace shard owned by the given cell as
// ready-to-install job specifications.
func (b *ReplayBackend) Specs(shard int) []JobSpec {
	if shard < 0 || shard >= b.cfg.Shards {
		return nil
	}
	var specs []JobSpec
	for i := shard; i < len(b.cfg.Jobs); i += b.cfg.Shards {
		tj := b.cfg.Jobs[i]
		size := tj.InputBytes
		if b.cfg.MaxInputBytes > 0 && size > b.cfg.MaxInputBytes {
			size = b.cfg.MaxInputBytes
		}
		if size < 1<<20 {
			size = 1 << 20
		}
		at := tj.SubmitAt
		if b.cfg.TimeScale != 1 {
			at = time.Duration(float64(at) / b.cfg.TimeScale)
		}
		specs = append(specs, JobSpec{
			SubmitAt:   at,
			Class:      "trace",
			InputBytes: size,
			Conf: mapreduce.JobConf{
				Name:         tj.ID,
				InputPath:    "/replay/" + tj.ID,
				MapParseRate: b.cfg.MapParseRate,
			},
		})
	}
	return specs
}

// Cell implements sweep.Backend: it replays one trace shard through an
// isolated cluster and records the shard's size, sojourn statistics and
// swap traffic (see Run).
func (b *ReplayBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	specs := b.Specs(pt.Int(TraceShardAxis))
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = b.cfg.Nodes
	ccfg.Node.MapSlots = b.cfg.SlotsPerNode
	ccfg.Seed = pt.Seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	if _, err := scheduler.Install(cluster, b.cfg.Scheduler, core.Suspend, "", 0); err != nil {
		return err
	}
	var inputGB float64
	for _, spec := range specs {
		inputGB += float64(spec.InputBytes) / float64(1<<30)
	}
	rec.Observe("jobs", float64(len(specs)))
	rec.Observe("input_gb", inputGB)
	return Run(cluster, specs, b.cfg.Window, b.cfg.Deadline, rec)
}
