// Package experiments reproduces the paper's evaluation (§IV): the
// two-job scenario of Figure 1, the light-weight comparison of Figure 2,
// the memory-hungry worst case of Figure 3, the memory-footprint overhead
// analysis of Figure 4, and the Natjam-style checkpoint ablation of the
// §IV-C discussion.
package experiments

import (
	"fmt"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/trace"
)

// TwoJobParams configures one run of the paper's experimental setup: a
// low-priority single-task map-only job tl is preempted at r% progress in
// favour of a high-priority job th; tl is restored once th completes.
type TwoJobParams struct {
	// Primitive is the preemption primitive under test.
	Primitive core.Primitive
	// PreemptAt is r: th arrives when tl reaches this progress fraction.
	PreemptAt float64
	// InputBytes is each job's single-block input size (512 MB in the
	// paper).
	InputBytes int64
	// MapParseRate is the synthetic mapper's parse throughput.
	MapParseRate float64
	// TLExtraMemory and THExtraMemory are the worst-case state
	// allocations (0 for light-weight tasks, 2 GB in Figure 3).
	TLExtraMemory int64
	THExtraMemory int64
	// Seed makes runs reproducible; vary it across repetitions.
	Seed uint64
	// Cluster optionally overrides the cluster configuration; nil uses
	// the paper's single-node 4 GB setup.
	Cluster *mapreduce.ClusterConfig
}

// DefaultTwoJobParams returns the paper's baseline setup.
func DefaultTwoJobParams() TwoJobParams {
	return TwoJobParams{
		Primitive:    core.Suspend,
		PreemptAt:    0.5,
		InputBytes:   512 << 20,
		MapParseRate: 6.5e6, // 512 MB in ~82 s of parse CPU
		Seed:         1,
	}
}

// TwoJobResult is the outcome of one run.
type TwoJobResult struct {
	// SojournTH is th's submission-to-completion time (Figures 2a, 3a).
	SojournTH time.Duration
	// Makespan spans tl's submission to the completion of both jobs
	// (Figures 2b, 3b).
	Makespan time.Duration
	// THSubmittedAt is when the progress trigger fired.
	THSubmittedAt time.Duration
	// SwapOutTL / SwapInTL are the bytes swapped by the process executing
	// tl (Figure 4's "paged bytes").
	SwapOutTL int64
	SwapInTL  int64
	// SwapOutTH / SwapInTH are th's own paging traffic.
	SwapOutTH int64
	SwapInTH  int64
	// TLSuspensions counts suspend cycles observed by tl.
	TLSuspensions int
	// TLAttempts counts tl's attempts (2 under kill).
	TLAttempts int
	// WastedWork is CPU time discarded by kills.
	WastedWork time.Duration
	// Memory and Disk are the end-of-run counters of the cluster's first
	// node, the only one in the paper's setup: what it paged, and what
	// its disk read and wrote for inputs and swap alike.
	Memory memory.Stats
	Disk   disk.Stats
	// Trace holds the execution schedule (Figure 1).
	Trace *trace.Recorder
}

// RunTwoJob executes the scenario once.
func RunTwoJob(p TwoJobParams) (*TwoJobResult, error) {
	if p.PreemptAt <= 0 || p.PreemptAt >= 1 {
		return nil, fmt.Errorf("experiments: PreemptAt %v outside (0,1)", p.PreemptAt)
	}
	if p.InputBytes <= 0 || p.MapParseRate <= 0 {
		return nil, fmt.Errorf("experiments: input size and parse rate must be positive")
	}
	var ccfg mapreduce.ClusterConfig
	if p.Cluster != nil {
		ccfg = *p.Cluster
	} else {
		ccfg = mapreduce.DefaultClusterConfig()
	}
	ccfg.Seed = p.Seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	in, err := scheduler.Install(cluster, "priority", p.Primitive, "", 0)
	if err != nil {
		return nil, err
	}
	defer in.Dummy.Release()
	eng := cluster.Engine()
	jt := cluster.JobTracker()
	rec := trace.Listen(jt)

	if err := cluster.CreateInput("/input/tl", p.InputBytes); err != nil {
		return nil, err
	}
	if err := cluster.CreateInput("/input/th", p.InputBytes); err != nil {
		return nil, err
	}

	tlConf := mapreduce.JobConf{
		Name:             "tl",
		InputPath:        "/input/tl",
		Priority:         0,
		MapParseRate:     p.MapParseRate,
		ExtraMemoryBytes: p.TLExtraMemory,
	}
	thConf := mapreduce.JobConf{
		Name:             "th",
		InputPath:        "/input/th",
		Priority:         10,
		MapParseRate:     p.MapParseRate,
		ExtraMemoryBytes: p.THExtraMemory,
	}

	tlJob, err := jt.Submit(tlConf)
	if err != nil {
		return nil, err
	}
	tlTask := tlJob.MapTasks()[0].ID()

	var thJob *mapreduce.Job
	var thSubmitted time.Duration
	in.Dummy.AddTrigger(scheduler.Trigger{
		Event:     scheduler.OnProgress,
		Job:       "tl",
		Threshold: p.PreemptAt,
		Do: func() {
			thSubmitted = eng.Now()
			j, err := jt.Submit(thConf)
			if err != nil {
				panic(fmt.Sprintf("experiments: submit th: %v", err))
			}
			thJob = j
			// Wait is "no primitive": th just queues behind tl.
			if _, err := in.Preemptor.Preempt(tlTask); err != nil {
				panic(fmt.Sprintf("experiments: preempt tl: %v", err))
			}
		},
	})
	in.Dummy.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnComplete,
		Job:   "th",
		Do: func() {
			if err := in.Preemptor.Restore(tlTask); err != nil {
				panic(fmt.Sprintf("experiments: restore tl: %v", err))
			}
		},
	})

	if !cluster.RunUntilJobsDone(2 * time.Hour) {
		return nil, fmt.Errorf("experiments: run did not converge (primitive=%v r=%v)",
			p.Primitive, p.PreemptAt)
	}
	if thJob == nil {
		return nil, fmt.Errorf("experiments: progress trigger never fired")
	}
	rec.CloseAll(eng.Now())

	tl, _ := jt.Task(tlTask)
	thTask := thJob.MapTasks()[0]
	res := &TwoJobResult{
		SojournTH:     thJob.CompletedAt() - thJob.SubmittedAt(),
		THSubmittedAt: thSubmitted,
		SwapOutTL:     tl.SwapOutBytes(),
		SwapInTL:      tl.SwapInBytes(),
		SwapOutTH:     thTask.SwapOutBytes(),
		SwapInTH:      thTask.SwapInBytes(),
		TLSuspensions: tl.Suspensions(),
		TLAttempts:    tl.Attempts(),
		WastedWork:    tl.WastedWork(),
		Memory:        cluster.Node(0).Memory.Stats(),
		Disk:          cluster.Node(0).Device.Stats(),
		Trace:         rec,
	}
	end := tlJob.CompletedAt()
	if thJob.CompletedAt() > end {
		end = thJob.CompletedAt()
	}
	res.Makespan = end - tlJob.SubmittedAt()
	return res, nil
}
