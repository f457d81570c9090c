// Package hadooppreempt is a Go reproduction of "OS-Assisted Task
// Preemption for Hadoop" (Pastorelli, Dell'Amico, Michiardi — ICDCS
// 2014): a suspend/resume task-preemption primitive that stops Hadoop
// task processes with SIGTSTP and resumes them with SIGCONT, letting the
// operating system's paging machinery hold — and only under pressure,
// swap — the suspended task's state.
//
// The package front-ends a complete simulated Hadoop 1 stack (discrete
// event kernel, page-level OS memory manager, HDFS, JobTracker /
// TaskTracker engine), the preemption primitives (wait, kill, suspend,
// and a Natjam-style checkpoint baseline), schedulers (trigger-driven
// dummy, FIFO, FAIR with preemption, HFSP-style size-based), the
// paper's two-job scenario and the sim grids (SimSweep) that every
// figure of its evaluation renders from (`hadoopsim -figures`).
//
// Quick start:
//
//	cluster, err := hadooppreempt.New(hadooppreempt.Options{})
//	...
//	cluster.CreateInput("/data", 512<<20)
//	job, err := cluster.Submit(hadooppreempt.JobConfig{
//		Name: "wordcount", InputPath: "/data", MapParseRate: 6.5e6,
//	})
//	cluster.RunUntilJobsDone(time.Hour)
package hadooppreempt

import (
	"fmt"
	"math"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/trace"
	"hadooppreempt/internal/workload"
)

// Primitive selects a preemption primitive.
type Primitive = core.Primitive

// The preemption primitives of the paper's comparison.
const (
	// Wait lets the victim finish (no preemption).
	Wait = core.Wait
	// Kill restarts the victim from scratch.
	Kill = core.Kill
	// Suspend is the paper's OS-assisted SIGTSTP/SIGCONT primitive.
	Suspend = core.Suspend
	// Checkpoint is the Natjam-style serialize/deserialize baseline.
	Checkpoint = core.Checkpoint
)

// JobConfig describes a job; it is the engine's JobConf.
type JobConfig = mapreduce.JobConf

// Job is a submitted job handle.
type Job = mapreduce.Job

// SchedulerKind selects the cluster scheduler.
type SchedulerKind int

// Scheduler kinds.
const (
	// SchedulerPriority is the paper's dummy scheduler: strict priority
	// order plus programmable triggers (see OnJobProgress /
	// OnJobComplete) and explicit PreemptJob / RestoreJob calls.
	SchedulerPriority SchedulerKind = iota + 1
	// SchedulerFIFO runs jobs in submission order, no preemption.
	SchedulerFIFO
	// SchedulerFair enforces pool fair shares, preempting with the
	// configured primitive after a starvation timeout.
	SchedulerFair
	// SchedulerHFSP orders jobs by remaining size (smallest first),
	// preempting bigger jobs' tasks — the §VI outlook.
	SchedulerHFSP
)

// Options configures a cluster. The zero value yields the paper's
// single-node evaluation setup with the priority (dummy) scheduler and
// the suspend primitive.
type Options struct {
	// Nodes is the worker node count (default 1).
	Nodes int
	// MapSlotsPerNode is the per-node slot count (default 1, as in the
	// paper's contended-slot experiments).
	MapSlotsPerNode int
	// RAMBytes is per-node physical memory (default 4 GB).
	RAMBytes int64
	// Scheduler picks the scheduler (default SchedulerPriority).
	Scheduler SchedulerKind
	// Primitive picks the preemption primitive used by PreemptJob and by
	// the Fair/HFSP schedulers (default Suspend).
	Primitive Primitive
	// EvictionPolicy names the victim-selection policy for Fair/HFSP
	// ("most-progress", "least-progress", "smallest-memory",
	// "largest-memory", "oldest", "youngest"; default "most-progress").
	EvictionPolicy string
	// PreemptionTimeout overrides how long Fair lets a pool starve before
	// preempting (and HFSP's preemption delay). Zero keeps the scheduler
	// defaults.
	PreemptionTimeout time.Duration
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// HeartbeatInterval overrides the TaskTracker heartbeat period.
	HeartbeatInterval time.Duration
}

// Cluster is a simulated Hadoop cluster with a preemption-capable
// scheduler installed.
type Cluster struct {
	inner  *mapreduce.Cluster
	sched  *scheduler.Installation
	rec    *trace.Recorder
	byName map[string]*mapreduce.Job
	// planned counts submissions issued or scheduled, so
	// RunUntilJobsDone does not stop before deferred submissions land.
	planned int
}

// schedulerNames maps each kind to its scheduler.Install name.
var schedulerNames = map[SchedulerKind]string{
	SchedulerPriority: "priority",
	SchedulerFIFO:     "fifo",
	SchedulerFair:     "fair",
	SchedulerHFSP:     "hfsp",
}

// New builds a cluster per the options.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.MapSlotsPerNode <= 0 {
		opts.MapSlotsPerNode = 1
	}
	if opts.Scheduler == 0 {
		opts.Scheduler = SchedulerPriority
	}
	if opts.Primitive == 0 {
		opts.Primitive = Suspend
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	name, ok := schedulerNames[opts.Scheduler]
	if !ok {
		return nil, fmt.Errorf("hadooppreempt: unknown scheduler kind %d", opts.Scheduler)
	}
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Nodes = opts.Nodes
	ccfg.Node.MapSlots = opts.MapSlotsPerNode
	ccfg.Seed = opts.Seed
	if opts.RAMBytes > 0 {
		ccfg.Node.Memory.RAMBytes = opts.RAMBytes
	}
	if opts.HeartbeatInterval > 0 {
		ccfg.Engine.HeartbeatInterval = opts.HeartbeatInterval
	}
	inner, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	sched, err := scheduler.Install(inner, name, opts.Primitive, opts.EvictionPolicy, opts.PreemptionTimeout)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		inner:  inner,
		sched:  sched,
		rec:    trace.Listen(inner.JobTracker()),
		byName: make(map[string]*mapreduce.Job),
	}, nil
}

// CreateInput stores a synthetic input file of the given size.
func (c *Cluster) CreateInput(path string, size int64) error {
	return c.inner.CreateInput(path, size)
}

// Submit submits a job. Job names must be unique per cluster.
func (c *Cluster) Submit(conf JobConfig) (*Job, error) {
	job, err := c.submit(conf)
	if err != nil {
		return nil, err
	}
	c.planned++
	return job, nil
}

// submit performs the submission without touching the planned counter.
func (c *Cluster) submit(conf JobConfig) (*Job, error) {
	if _, dup := c.byName[conf.Name]; dup {
		return nil, fmt.Errorf("hadooppreempt: job %q already submitted", conf.Name)
	}
	job, err := c.inner.JobTracker().Submit(conf)
	if err != nil {
		return nil, err
	}
	c.byName[conf.Name] = job
	return job, nil
}

// SubmitAt schedules a submission at a future virtual time. The job
// counts toward RunUntilJobsDone immediately, so the run does not stop
// before the submission lands.
func (c *Cluster) SubmitAt(at time.Duration, conf JobConfig) {
	c.planned++
	c.inner.Engine().At(at, func() {
		if _, err := c.submit(conf); err != nil {
			panic(fmt.Sprintf("hadooppreempt: deferred submit %s: %v", conf.Name, err))
		}
	})
}

// Job returns a submitted job by name.
func (c *Cluster) Job(name string) (*Job, bool) {
	j, ok := c.byName[name]
	return j, ok
}

// Jobs returns all submitted jobs in submission order.
func (c *Cluster) Jobs() []*Job { return c.inner.JobTracker().Jobs() }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.inner.Engine().Now() }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d time.Duration) { c.inner.Engine().RunFor(d) }

// RunUntilJobsDone advances virtual time until every submitted AND
// scheduled (SubmitAt) job finished, or the deadline passed; it reports
// completion.
func (c *Cluster) RunUntilJobsDone(deadline time.Duration) bool {
	planned := c.planned
	if planned == 0 {
		// Nothing was submitted or scheduled: drain events to the
		// deadline and report failure, as an impossible plan would.
		planned = math.MaxInt
	}
	ok := c.inner.RunUntilPlannedJobsDone(planned, deadline)
	c.rec.CloseAll(c.inner.Engine().Now())
	return ok
}

// PreemptJob applies the configured primitive to the named job's running
// map tasks (all of them). With SchedulerPriority this is the paper's
// manual eviction path; Fair/HFSP preempt on their own.
func (c *Cluster) PreemptJob(name string) error {
	job, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("hadooppreempt: unknown job %q", name)
	}
	for _, t := range job.MapTasks() {
		if t.State() == mapreduce.TaskRunning {
			if _, err := c.sched.Preemptor.Preempt(t.ID()); err != nil {
				return err
			}
		}
	}
	return nil
}

// KillJob terminally kills a job.
func (c *Cluster) KillJob(name string) error {
	job, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("hadooppreempt: unknown job %q", name)
	}
	return c.inner.JobTracker().KillJob(job.ID())
}

// NodeStats summarizes one node's OS-level state.
type NodeStats struct {
	Name string
	// FreeBytes and CacheBytes describe current memory occupancy.
	FreeBytes  int64
	CacheBytes int64
	// SwapUsedBytes is occupied swap capacity.
	SwapUsedBytes int64
	// SwapRate is swap traffic over the last 10 s (bytes/second).
	SwapRate float64
	// Thrashing reports whether swap traffic exceeds 10 MB/s over that
	// window — §III-A's warning signal for churning schedulers.
	Thrashing bool
}

// Nodes returns OS-level statistics for every worker node.
func (c *Cluster) Nodes() []NodeStats {
	var out []NodeStats
	for _, n := range c.inner.Nodes() {
		mem := n.Memory
		out = append(out, NodeStats{
			Name:          n.Name,
			FreeBytes:     mem.FreeBytes(),
			CacheBytes:    mem.CacheBytes(),
			SwapUsedBytes: mem.SwapUsedBytes(),
			SwapRate:      mem.SwapRate(10 * time.Second),
			Thrashing:     mem.Thrashing(10*time.Second, 10e6),
		})
	}
	return out
}

// RestoreJob undoes a preemption (resumes suspended tasks).
func (c *Cluster) RestoreJob(name string) error {
	job, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("hadooppreempt: unknown job %q", name)
	}
	for _, t := range job.MapTasks() {
		if t.State() == mapreduce.TaskSuspended {
			if err := c.sched.Preemptor.Restore(t.ID()); err != nil {
				return err
			}
		}
	}
	return nil
}

// OnJobProgress registers fn to run once when the named job reaches the
// progress threshold. Only available with SchedulerPriority.
func (c *Cluster) OnJobProgress(job string, threshold float64, fn func()) error {
	if c.sched.Dummy == nil {
		return fmt.Errorf("hadooppreempt: triggers need SchedulerPriority")
	}
	c.sched.Dummy.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnProgress, Job: job, Threshold: threshold, Do: fn,
	})
	return nil
}

// OnJobComplete registers fn to run once when the named job succeeds.
// Only available with SchedulerPriority.
func (c *Cluster) OnJobComplete(job string, fn func()) error {
	if c.sched.Dummy == nil {
		return fmt.Errorf("hadooppreempt: triggers need SchedulerPriority")
	}
	c.sched.Dummy.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnComplete, Job: job, Do: fn,
	})
	return nil
}

// Gantt renders the execution schedule recorded so far (Figure 1 style).
func (c *Cluster) Gantt(width int) string { return c.rec.Gantt(width) }

// Preemptions reports how many preemptions the scheduler issued (Fair
// and HFSP; zero for the others).
func (c *Cluster) Preemptions() int { return c.sched.Preemptions() }

// Resumes reports how many suspended-task restores the scheduler issued
// (Fair and HFSP; zero for the others).
func (c *Cluster) Resumes() int { return c.sched.Resumes() }

// JobStats summarizes one job's outcome.
type JobStats struct {
	Name        string
	State       string
	Sojourn     time.Duration
	Suspensions int
	Attempts    int
	WastedWork  time.Duration
	SwapOut     int64
	SwapIn      int64
}

// Stats returns the named job's outcome summary.
func (c *Cluster) Stats(name string) (JobStats, error) {
	job, ok := c.byName[name]
	if !ok {
		return JobStats{}, fmt.Errorf("hadooppreempt: unknown job %q", name)
	}
	tot := job.Totals()
	st := JobStats{
		Name:        name,
		State:       job.State().String(),
		Suspensions: tot.Suspensions,
		Attempts:    tot.Attempts,
		WastedWork:  tot.WastedWork,
		SwapOut:     tot.SwapOut,
		SwapIn:      tot.SwapIn,
	}
	if job.CompletedAt() > 0 {
		st.Sojourn = job.CompletedAt() - job.SubmittedAt()
	}
	return st, nil
}

// --- Experiment re-exports -------------------------------------------

// TwoJobParams parameterizes the paper's two-job scenario.
type TwoJobParams = experiments.TwoJobParams

// TwoJobResult is the scenario outcome.
type TwoJobResult = experiments.TwoJobResult

// DefaultTwoJobParams returns the paper's baseline setup.
func DefaultTwoJobParams() TwoJobParams { return experiments.DefaultTwoJobParams() }

// RunTwoJob executes the paper's two-job preemption scenario once.
func RunTwoJob(p TwoJobParams) (*TwoJobResult, error) { return experiments.RunTwoJob(p) }

// --- Workload re-exports ----------------------------------------------

// WorkloadConfig describes a synthetic SWIM-style workload.
type WorkloadConfig = workload.Config

// WorkloadClass is one job class of the mix.
type WorkloadClass = workload.JobClass

// WorkloadJob is one generated job specification.
type WorkloadJob = workload.JobSpec

// GenerateWorkload samples a deterministic workload trace.
func GenerateWorkload(cfg WorkloadConfig, seed uint64) ([]WorkloadJob, error) {
	return workload.Generate(cfg, sim.NewRNG(seed))
}

// InstallWorkload creates the inputs and schedules the submissions of a
// generated workload on the cluster.
func (c *Cluster) InstallWorkload(specs []WorkloadJob) error {
	for i := range specs {
		spec := specs[i]
		if err := c.CreateInput(spec.Conf.InputPath, spec.InputBytes); err != nil {
			return err
		}
		c.SubmitAt(spec.SubmitAt, spec.Conf)
	}
	return nil
}
