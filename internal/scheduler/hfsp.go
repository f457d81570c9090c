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

// HFSPConfig parameterizes the size-based scheduler.
type HFSPConfig struct {
	// CheckInterval is the period of the preemption check.
	CheckInterval time.Duration
	// PreemptionDelay is how long a smaller job must be starved before a
	// bigger job's task is preempted. Keeping it above zero avoids
	// suspend/resume churn, the thrashing concern of §III-A.
	PreemptionDelay time.Duration
}

// DefaultHFSPConfig returns moderate parameters.
func DefaultHFSPConfig() HFSPConfig {
	return HFSPConfig{
		CheckInterval:   time.Second,
		PreemptionDelay: 5 * time.Second,
	}
}

// HFSP is a size-based scheduler in the spirit of the authors' HFSP [24]:
// jobs are ordered by remaining (virtual) size — input bytes scaled by
// measured progress — and smaller jobs preempt the tasks of bigger ones
// using the configured preemption primitive. The paper's §VI reports
// preliminary results of exactly this combination.
type HFSP struct {
	eng       *sim.Engine
	jt        *mapreduce.JobTracker
	cfg       HFSPConfig
	preemptor *core.Preemptor
	adv       advisor.Advisor

	// jobs holds the jobs not yet completed, in submission order.
	jobs []hfspJob
	// starvedSince tracks when the currently smallest job started waiting.
	starvedSince map[mapreduce.JobID]time.Duration
	suspended    map[mapreduce.TaskID]mapreduce.JobID

	// keys is scratch reused across calls: the size keys of the jobs
	// Assign or check considers.
	keys []sizeKey

	// Scratch for check's victim selection, reused so a preemption
	// decision allocates nothing; candTasks parallels cands.
	cands     []advisor.Candidate
	candTasks []*mapreduce.Task

	// checkFn is check bound once, so rescheduling the loop allocates
	// no method value per tick.
	checkFn func()

	preemptions int
	resumes     int
}

// hfspJob is a submitted job with its total map input, summed once.
type hfspJob struct {
	job   *mapreduce.Job
	input int64
}

// sizeKey places a live job in HFSP's order: remaining size, then
// position in submission order.
type sizeKey struct {
	rem float64
	seq int
	job *mapreduce.Job
}

// compareSizeKeys orders smallest remaining size first, ties by
// submission. (remaining size, submission) is a total order, so sorting
// by it equals a stable sort by remaining size, and the minimum of any
// set of keys is unique.
func compareSizeKeys(a, b sizeKey) int {
	if c := cmp.Compare(a.rem, b.rem); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

var _ mapreduce.Scheduler = (*HFSP)(nil)

// NewHFSP creates the scheduler and starts its check loop. The advisor
// decides victims on the preemption path; the zero Advisor selects the
// default (smallest-memory, forced to the preemptor's primitive —
// §V-A's minimal-paging strategy).
func NewHFSP(eng *sim.Engine, jt *mapreduce.JobTracker, preemptor *core.Preemptor,
	adv advisor.Advisor, cfg HFSPConfig) (*HFSP, error) {
	if cfg.CheckInterval <= 0 {
		return nil, fmt.Errorf("scheduler: hfsp needs positive CheckInterval")
	}
	adv, err := schedulerAdvisor(adv, advisor.SmallestMemory, preemptor)
	if err != nil {
		return nil, err
	}
	h := &HFSP{
		eng:          eng,
		jt:           jt,
		cfg:          cfg,
		preemptor:    preemptor,
		adv:          adv,
		starvedSince: make(map[mapreduce.JobID]time.Duration),
		suspended:    make(map[mapreduce.TaskID]mapreduce.JobID),
	}
	h.checkFn = h.check
	eng.Schedule(cfg.CheckInterval, h.checkFn)
	return h, nil
}

// Preemptions reports issued preemptions.
func (h *HFSP) Preemptions() int { return h.preemptions }

// Resumes reports issued resumes.
func (h *HFSP) Resumes() int { return h.resumes }

// JobSubmitted implements mapreduce.Scheduler.
func (h *HFSP) JobSubmitted(job *mapreduce.Job) {
	var input int64
	for _, t := range job.MapTasks() {
		input += t.Block().Size
	}
	h.jobs = append(h.jobs, hfspJob{job: job, input: input})
}

// JobCompleted implements mapreduce.Scheduler: the job leaves the
// scheduler's state, which only ever reads live jobs.
func (h *HFSP) JobCompleted(job *mapreduce.Job) {
	h.jobs = slices.DeleteFunc(h.jobs, func(j hfspJob) bool { return j.job == job })
	delete(h.starvedSince, job.ID())
}

// TaskProgressed implements mapreduce.Scheduler.
func (h *HFSP) TaskProgressed(*mapreduce.Task, float64) {}

// remainingSize estimates a job's remaining virtual size in bytes.
func remainingSize(j hfspJob) float64 {
	rem := float64(j.input) * (1 - j.job.Progress())
	if rem < 0 {
		rem = 0
	}
	return rem
}

// isLive reports whether a job is neither succeeded nor failed.
func isLive(j *mapreduce.Job) bool {
	s := j.State()
	return s == mapreduce.JobPending || s == mapreduce.JobRunning
}

// Assign implements mapreduce.Scheduler: slots go to the smallest job
// first; its suspended tasks on this tracker resume before new launches.
// It sorts nothing. It keys the live jobs with a pending, suspended or
// resuming task, since no other job has anything to launch or resume.
// The resume goes to the suspended task whose job has the smallest key
// (remaining size, then submission), unless a job with a smaller key
// has a pending task. Launches then take jobs by repeated minimum of the
// keys, so they visit jobs in size order, and only as many as the free
// slots reach.
func (h *HFSP) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	free := tt.FreeMapSlots
	keys := h.keys[:0]
	for i, j := range h.jobs {
		if !isLive(j.job) || j.job.TasksIn(mapreduce.TaskPending)+j.job.TasksIn(mapreduce.TaskSuspended)+
			j.job.TasksIn(mapreduce.TaskMustResume) == 0 {
			continue
		}
		keys = append(keys, sizeKey{rem: remainingSize(j), seq: i, job: j.job})
	}
	h.keys = keys

	// Resume the suspended task of the smallest job first. Keys are
	// unique, so among one job's tasks the first listed wins.
	best := -1
	var bestResume mapreduce.TaskID
	for _, tid := range tt.SuspendedTasks {
		jid, ok := h.suspended[tid]
		if !ok {
			continue
		}
		for i := range keys {
			if keys[i].job.ID() == jid {
				if best < 0 || compareSizeKeys(keys[i], keys[best]) < 0 {
					best, bestResume = i, tid
				}
				break
			}
		}
	}
	// Only resume if no smaller job is waiting for this slot.
	if best >= 0 && free > 0 && !smallerJobWaiting(keys, keys[best]) {
		if err := h.jt.ResumeTask(bestResume); err == nil {
			h.resumes++
			free--
			delete(h.suspended, bestResume)
		}
	}

	// Each task is visited once, so no pick repeats within the round.
	var out []mapreduce.Assignment
	keys = slices.DeleteFunc(keys, func(k sizeKey) bool { return k.job.TasksIn(mapreduce.TaskPending) == 0 })
	for n := 0; n < len(keys) && free > 0; n++ {
		m := n
		for i := n + 1; i < len(keys); i++ {
			if compareSizeKeys(keys[i], keys[m]) < 0 {
				m = i
			}
		}
		keys[n], keys[m] = keys[m], keys[n]
		job := keys[n].job
		for _, t := range job.Tasks() {
			if free <= 0 {
				break
			}
			if t.State() != mapreduce.TaskPending {
				continue
			}
			if t.ID().Type == mapreduce.ReduceTask && !mapsDone(job) {
				continue
			}
			out = append(out, mapreduce.Assignment{Task: t.ID()})
			free--
		}
	}
	return out
}

// smallerJobWaiting reports whether a job with a key below k has a
// pending task.
func smallerJobWaiting(keys []sizeKey, k sizeKey) bool {
	for _, o := range keys {
		if o.job.TasksIn(mapreduce.TaskPending) > 0 && compareSizeKeys(o, k) < 0 {
			return true
		}
	}
	return false
}

// check preempts a task of a larger job when a smaller job has been
// starved past the delay. It sorts nothing: one pass over the jobs
// counts the live ones and finds the starved job, the live job with a
// pending task whose (remaining size, submission) key is smallest. The
// victims are the running tasks of the live jobs whose key is larger.
// They reach the advisor in submission order, not size order, and the
// pick is the same: Decide returns the unique minimum under (policy
// order, task ID), whatever order its candidates come in.
func (h *HFSP) check() {
	defer h.eng.Schedule(h.cfg.CheckInterval, h.checkFn)
	now := h.eng.Now()
	// keys holds the jobs that can be starved or preempted: those with
	// a pending or a running task.
	h.keys = h.keys[:0]
	nlive, starved := 0, -1
	for i, j := range h.jobs {
		if !isLive(j.job) {
			continue
		}
		nlive++
		pending := j.job.TasksIn(mapreduce.TaskPending) > 0
		if !pending && j.job.TasksIn(mapreduce.TaskRunning) == 0 {
			continue
		}
		h.keys = append(h.keys, sizeKey{rem: remainingSize(j), seq: i, job: j.job})
		if pending && (starved < 0 || compareSizeKeys(h.keys[len(h.keys)-1], h.keys[starved]) < 0) {
			starved = len(h.keys) - 1
		}
	}
	if nlive < 2 || starved < 0 {
		return
	}
	sk := h.keys[starved]
	since, ok := h.starvedSince[sk.job.ID()]
	if !ok {
		h.starvedSince[sk.job.ID()] = now
		return
	}
	if now-since < h.cfg.PreemptionDelay {
		return
	}
	// The candidate slices are reused scratch: one decision allocates
	// nothing.
	h.cands = h.cands[:0]
	h.candTasks = h.candTasks[:0]
	for _, k := range h.keys {
		if k.job.TasksIn(mapreduce.TaskRunning) == 0 || compareSizeKeys(k, sk) <= 0 {
			continue
		}
		for _, t := range k.job.Tasks() {
			if t.State() != mapreduce.TaskRunning {
				continue
			}
			h.cands = append(h.cands, advisor.Candidate{
				ID:            t.IDString(),
				Progress:      t.Progress(),
				ResidentBytes: t.ResidentBytes(),
				StartedAt:     t.FirstLaunchAt(),
			})
			h.candTasks = append(h.candTasks, t)
		}
	}
	d := h.adv.Decide(advisor.Request{Candidates: h.cands})
	if d.Victim == advisor.NoVictim {
		return
	}
	vt := h.candTasks[d.Victim]
	if _, err := h.preemptor.Preempt(vt.ID()); err != nil {
		return
	}
	h.preemptions++
	delete(h.starvedSince, sk.job.ID())
	if h.preemptor.Primitive() == core.Suspend || h.preemptor.Primitive() == core.Checkpoint {
		h.suspended[vt.ID()] = vt.Job().ID()
	}
}
