package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// FairConfig parameterizes the FAIR scheduler.
type FairConfig struct {
	// TotalSlots is the cluster-wide map slot count (used to compute fair
	// shares).
	TotalSlots int
	// PreemptionTimeout is how long a pool must be starved before the
	// scheduler preempts tasks of over-share pools, mirroring the Hadoop
	// fair scheduler's minSharePreemptionTimeout.
	PreemptionTimeout time.Duration
	// CheckInterval is the period of the preemption check loop.
	CheckInterval time.Duration
	// ResumeLocalityTimeout bounds how long a suspended task may wait for
	// a slot on its own tracker before it is killed and restarted
	// elsewhere — the "delayed kill" fallback of §V-A's resume-locality
	// discussion. Zero disables the fallback.
	ResumeLocalityTimeout time.Duration
	// LocalityWaitSkips implements delay scheduling (Zaharia et al.,
	// which §V-A reuses for resume locality): a map task declines this
	// many non-local slot offers before accepting a remote one. Zero
	// disables the delay.
	LocalityWaitSkips int
}

// DefaultFairConfig returns moderate timeouts.
func DefaultFairConfig(totalSlots int) FairConfig {
	return FairConfig{
		TotalSlots:        totalSlots,
		PreemptionTimeout: 15 * time.Second,
		CheckInterval:     time.Second,
		// Resume locality: wait up to 30 s for the home slot, then fall
		// back to a delayed kill.
		ResumeLocalityTimeout: 30 * time.Second,
		// Data locality: decline a few non-local offers first.
		LocalityWaitSkips: 3,
	}
}

// Fair is a two-level fair-share scheduler over pools, using a preemption
// primitive to enforce shares: when a pool is starved beyond the timeout,
// tasks of over-share pools are preempted (suspended, killed or
// checkpointed depending on the configured Preemptor) and restored when
// capacity returns.
type Fair struct {
	eng       *sim.Engine
	jt        *mapreduce.JobTracker
	cfg       FairConfig
	preemptor *core.Preemptor
	adv       advisor.Advisor

	// pools lists every pool, sorted by name; members maps each job the
	// pools hold to its pool.
	pools   []*fairPool
	members map[*mapreduce.Job]*fairPool
	// suspended tracks preempted-but-restorable tasks.
	suspended map[mapreduce.TaskID]*suspendedTask
	// skips counts declined non-local offers per task (delay
	// scheduling).
	skips map[mapreduce.TaskID]int

	// Scratch for preemptFor, reused across checks so a preemption
	// decision allocates nothing; candTasks/candPools parallel cands.
	cands     []advisor.Candidate
	candTasks []*mapreduce.Task
	candPools []*fairPool
	// active backs activePools' result.
	active []*fairPool

	// checkFn is check bound once, so rescheduling the loop allocates
	// no method value per tick.
	checkFn func()

	preemptions int
	resumes     int
	killApplied int
}

type fairPool struct {
	name string
	jobs []*mapreduce.Job
	// running counts the tasks of the pool's jobs that are RUNNING or
	// MUST_SUSPEND; demand adds those SUSPENDED, MUST_RESUME or PENDING.
	// JobSubmitted adds a job's tasks and poolCounter moves them as they
	// change state.
	running, demand int
	starvedSince    time.Duration
	starved         bool
}

type suspendedTask struct {
	id          mapreduce.TaskID
	pool        *fairPool
	suspendedAt time.Duration
}

// taskWeight returns what one task in state s adds to its pool's
// running and demand counts.
func taskWeight(s mapreduce.TaskState) (running, demand int) {
	switch s {
	case mapreduce.TaskRunning, mapreduce.TaskMustSuspend:
		return 1, 1
	case mapreduce.TaskSuspended, mapreduce.TaskMustResume, mapreduce.TaskPending:
		return 0, 1
	}
	return 0, 0
}

// add counts each of job's tasks into the pool.
func (p *fairPool) add(job *mapreduce.Job) {
	for s := mapreduce.TaskPending; s <= mapreduce.TaskFailed; s++ {
		r, d := taskWeight(s)
		p.running += r * job.TasksIn(s)
		p.demand += d * job.TasksIn(s)
	}
}

// poolCounter keeps each pool's running and demand counts current: the
// JobTracker reports every task state change to it.
type poolCounter struct {
	mapreduce.NopListener
	f *Fair
}

// TaskStateChanged implements mapreduce.Listener.
func (c poolCounter) TaskStateChanged(t *mapreduce.Task, from, to mapreduce.TaskState, _ time.Duration) {
	p, ok := c.f.members[t.Job()]
	if !ok {
		return
	}
	r0, d0 := taskWeight(from)
	r1, d1 := taskWeight(to)
	p.running += r1 - r0
	p.demand += d1 - d0
}

var _ mapreduce.Scheduler = (*Fair)(nil)

// NewFair creates the scheduler and starts its periodic preemption check.
// The advisor decides victims on the preemption path; the zero Advisor
// selects the default (most-progress, forced to the preemptor's
// primitive — the paper's Natjam-style configuration).
func NewFair(eng *sim.Engine, jt *mapreduce.JobTracker, preemptor *core.Preemptor,
	adv advisor.Advisor, cfg FairConfig) (*Fair, error) {
	if cfg.TotalSlots <= 0 {
		return nil, fmt.Errorf("scheduler: fair needs positive TotalSlots")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = time.Second
	}
	adv, err := schedulerAdvisor(adv, advisor.MostProgress, preemptor)
	if err != nil {
		return nil, err
	}
	f := &Fair{
		eng:       eng,
		jt:        jt,
		cfg:       cfg,
		preemptor: preemptor,
		adv:       adv,
		members:   make(map[*mapreduce.Job]*fairPool),
		suspended: make(map[mapreduce.TaskID]*suspendedTask),
		skips:     make(map[mapreduce.TaskID]int),
	}
	jt.AddListener(poolCounter{f: f})
	f.checkFn = f.check
	eng.Schedule(cfg.CheckInterval, f.checkFn)
	return f, nil
}

// schedulerAdvisor resolves the advisor a scheduler preempts with: the
// zero value becomes defaultPolicy forced to the preemptor's primitive,
// and a caller-supplied advisor must agree with the wired preemptor —
// the scheduler can only apply that one primitive.
func schedulerAdvisor(adv advisor.Advisor, defaultPolicy advisor.Policy,
	preemptor *core.Preemptor) (advisor.Advisor, error) {
	if !adv.Valid() {
		return advisor.New(advisor.Config{
			Policy:    defaultPolicy,
			Primitive: preemptor.Primitive(),
		})
	}
	if got := adv.Config().Primitive; got != preemptor.Primitive() {
		return advisor.Advisor{}, fmt.Errorf(
			"scheduler: advisor primitive %v does not match the preemptor's %v",
			got, preemptor.Primitive())
	}
	return adv, nil
}

// Preemptions reports how many preemptions the scheduler issued.
func (f *Fair) Preemptions() int { return f.preemptions }

// Resumes reports how many restores the scheduler issued.
func (f *Fair) Resumes() int { return f.resumes }

// DelayedKills reports resume-locality fallbacks.
func (f *Fair) DelayedKills() int { return f.killApplied }

// poolOf returns the pool for a job, creating it on demand.
func (f *Fair) poolOf(job *mapreduce.Job) *fairPool {
	name := job.Conf().Pool
	if name == "" {
		name = "default"
	}
	i, ok := slices.BinarySearchFunc(f.pools, name, func(p *fairPool, name string) int {
		return cmp.Compare(p.name, name)
	})
	if !ok {
		f.pools = slices.Insert(f.pools, i, &fairPool{name: name})
	}
	return f.pools[i]
}

// JobSubmitted implements mapreduce.Scheduler.
func (f *Fair) JobSubmitted(job *mapreduce.Job) {
	p := f.poolOf(job)
	p.jobs = append(p.jobs, job)
	p.add(job)
	f.members[job] = p
}

// JobCompleted implements mapreduce.Scheduler: a succeeded job leaves
// its pool, taking nothing from its counts, since every task of it has
// succeeded. A failed job stays, since its leftover tasks still count
// toward the pool's demand and are still scheduled.
func (f *Fair) JobCompleted(job *mapreduce.Job) {
	p, ok := f.members[job]
	if !ok || job.State() != mapreduce.JobSucceeded {
		return
	}
	delete(f.members, job)
	p.jobs = slices.DeleteFunc(p.jobs, func(j *mapreduce.Job) bool { return j == job })
}

// TaskProgressed implements mapreduce.Scheduler.
func (f *Fair) TaskProgressed(*mapreduce.Task, float64) {}

// activePools returns the pools with live demand, sorted by name. The
// slice is reused: it is valid until the next call.
func (f *Fair) activePools() []*fairPool {
	out := f.active[:0]
	for _, p := range f.pools {
		if p.demand > 0 {
			out = append(out, p)
		}
	}
	f.active = out
	return out
}

// share computes the per-pool fair share.
func (f *Fair) share(active int) float64 {
	if active == 0 {
		return float64(f.cfg.TotalSlots)
	}
	return float64(f.cfg.TotalSlots) / float64(active)
}

// Assign implements mapreduce.Scheduler: resume suspended tasks of
// under-share pools first (resume locality: only on their own tracker),
// then hand remaining slots to the most-starved pools' pending tasks,
// preferring node-local maps.
func (f *Fair) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	active := f.activePools()
	share := f.share(len(active))
	free := tt.FreeMapSlots

	// 1. Resume suspended tasks stranded on this tracker when their pool
	// is below its share.
	for _, tid := range tt.SuspendedTasks {
		if free <= 0 {
			break
		}
		st, ok := f.suspended[tid]
		if !ok {
			continue
		}
		task, ok := f.jt.Task(tid)
		if !ok || task.State() != mapreduce.TaskSuspended {
			continue
		}
		running, demand := st.pool.running, st.pool.demand
		if float64(running) < share && demand > running {
			if err := f.jt.ResumeTask(tid); err == nil {
				f.resumes++
				free--
				delete(f.suspended, tid)
			}
		}
	}

	// 2. Fill remaining slots: repeatedly give the pool furthest below
	// its share one task. Picks made this round are tracked locally,
	// since task states only change when the JobTracker processes the
	// assignments.
	var out []mapreduce.Assignment
	taken := make(map[mapreduce.TaskID]bool)
	extra := make(map[*fairPool]int)
	skip := make(map[*fairPool]bool)
	for free > 0 {
		p := f.neediestPool(active, share, extra, skip)
		if p == nil {
			break
		}
		t := f.pickTask(p, tt, taken)
		if t == nil {
			// Pool has pending work but nothing runnable here.
			skip[p] = true
			continue
		}
		taken[t.ID()] = true
		extra[p]++
		out = append(out, mapreduce.Assignment{Task: t.ID()})
		free--
	}
	return out
}

// neediestPool picks the active pool furthest below its share with
// pending work, accounting for picks already made this round.
func (f *Fair) neediestPool(active []*fairPool, share float64, extra map[*fairPool]int, skip map[*fairPool]bool) *fairPool {
	var best *fairPool
	bestGap := 0.0
	for _, p := range active {
		if skip[p] {
			continue
		}
		running := p.running + extra[p]
		pending := p.demand - running - f.suspendedCount(p)
		if pending <= 0 {
			continue
		}
		gap := share - float64(running)
		if gap > bestGap {
			best = p
			bestGap = gap
		}
	}
	return best
}

// suspendedCount counts tasks of a pool currently suspended.
func (f *Fair) suspendedCount(pool *fairPool) int {
	n := 0
	for _, st := range f.suspended {
		if st.pool == pool {
			n++
		}
	}
	return n
}

// pickTask chooses a pending task of the pool for the tracker, preferring
// node-local map input and skipping tasks already picked this round.
// Non-local candidates use delay scheduling: they decline up to
// LocalityWaitSkips offers before running remotely.
func (f *Fair) pickTask(p *fairPool, tt mapreduce.TaskTrackerInfo, taken map[mapreduce.TaskID]bool) *mapreduce.Task {
	var fallback *mapreduce.Task
	for _, job := range p.jobs {
		if job.TasksIn(mapreduce.TaskPending) == 0 {
			continue
		}
		for _, t := range job.Tasks() {
			if t.State() != mapreduce.TaskPending || taken[t.ID()] {
				continue
			}
			if t.ID().Type == mapreduce.ReduceTask {
				if !mapsDone(job) {
					continue
				}
				return t
			}
			if f.isLocal(t, tt.Node) {
				delete(f.skips, t.ID())
				return t
			}
			if fallback == nil {
				fallback = t
			}
		}
	}
	if fallback != nil && f.cfg.LocalityWaitSkips > 0 {
		if f.skips[fallback.ID()] < f.cfg.LocalityWaitSkips {
			f.skips[fallback.ID()]++
			return nil // decline this offer, wait for a local slot
		}
		delete(f.skips, fallback.ID())
	}
	return fallback
}

// isLocal reports whether the task's block has a replica on the node.
func (f *Fair) isLocal(t *mapreduce.Task, node string) bool {
	for _, r := range t.Block().Replicas {
		if string(r) == node {
			return true
		}
	}
	return false
}

// check is the periodic preemption loop: detect starved pools, preempt
// over-share pools after the timeout, and apply the resume-locality
// delayed-kill fallback.
func (f *Fair) check() {
	defer f.eng.Schedule(f.cfg.CheckInterval, f.checkFn)
	now := f.eng.Now()
	active := f.activePools()
	share := f.share(len(active))

	for _, p := range active {
		running, demand := p.running, p.demand
		want := share
		if float64(demand) < want {
			want = float64(demand)
		}
		if float64(running) >= want {
			p.starved = false
			continue
		}
		if !p.starved {
			p.starved = true
			p.starvedSince = now
			continue
		}
		if now-p.starvedSince < f.cfg.PreemptionTimeout {
			continue
		}
		// Starved past the timeout: preempt one task from the most
		// over-share pool.
		f.preemptFor(p, active, share)
		p.starvedSince = now // rate-limit: at most one victim per timeout
	}

	// Resume-locality fallback: suspended too long waiting for its home
	// slot -> delayed kill so it can restart anywhere.
	if f.cfg.ResumeLocalityTimeout > 0 {
		for tid, st := range f.suspended {
			task, ok := f.jt.Task(tid)
			if !ok || task.State() != mapreduce.TaskSuspended {
				continue
			}
			if now-st.suspendedAt > f.cfg.ResumeLocalityTimeout {
				if err := f.jt.KillTaskAttempt(tid, true); err == nil {
					f.killApplied++
					delete(f.suspended, tid)
				}
			}
		}
	}
}

// preemptFor finds a victim in over-share pools and preempts it. The
// candidate slices are reused scratch: one decision allocates nothing.
func (f *Fair) preemptFor(starved *fairPool, active []*fairPool, share float64) {
	f.cands = f.cands[:0]
	f.candTasks = f.candTasks[:0]
	f.candPools = f.candPools[:0]
	for _, p := range active {
		if p == starved {
			continue
		}
		if float64(p.running) <= share {
			continue
		}
		for _, job := range p.jobs {
			if job.TasksIn(mapreduce.TaskRunning) == 0 {
				continue
			}
			for _, t := range job.Tasks() {
				if t.State() != mapreduce.TaskRunning {
					continue
				}
				f.cands = append(f.cands, advisor.Candidate{
					ID:            t.IDString(),
					Progress:      t.Progress(),
					ResidentBytes: t.ResidentBytes(),
					StartedAt:     t.FirstLaunchAt(),
				})
				f.candTasks = append(f.candTasks, t)
				f.candPools = append(f.candPools, p)
			}
		}
	}
	d := f.adv.Decide(advisor.Request{Candidates: f.cands})
	if d.Victim == advisor.NoVictim {
		return
	}
	vt := f.candTasks[d.Victim]
	if _, err := f.preemptor.Preempt(vt.ID()); err != nil {
		return
	}
	f.preemptions++
	if f.preemptor.Primitive() == core.Suspend || f.preemptor.Primitive() == core.Checkpoint {
		f.suspended[vt.ID()] = &suspendedTask{
			id:          vt.ID(),
			pool:        f.candPools[d.Victim],
			suspendedAt: f.eng.Now(),
		}
	}
}
