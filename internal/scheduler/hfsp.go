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

	// The jobs not yet completed, in two lists. fresh holds the jobs
	// Assign never handed a task of, sorted by (input, submission): a
	// fresh job has every task pending and progress exactly 0, so its
	// size key is its input. started holds the others, in the order
	// they left fresh; their keys are computed per call.
	started, fresh []hfspJob
	// submitted numbers the jobs in submission order.
	submitted int
	// starvedSince tracks when the currently smallest job started waiting.
	starvedSince map[mapreduce.JobID]time.Duration
	suspended    map[mapreduce.TaskID]mapreduce.JobID

	// keys is scratch reused across calls: the size keys of the started
	// jobs Assign or check considers.
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

// hfspJob is a submitted job with its total map input, summed once, and
// its place in submission order.
type hfspJob struct {
	job   *mapreduce.Job
	input int64
	seq   int
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

// freshKey is the size key of a job in the fresh list: its whole input,
// which is what remainingSize computes at progress 0.
func (j hfspJob) freshKey() sizeKey {
	return sizeKey{rem: float64(j.input), seq: j.seq, job: j.job}
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

// JobSubmitted implements mapreduce.Scheduler: the job joins fresh at
// its place in key order. A job without tasks has nothing to launch
// and joins started, which holds no such promise.
func (h *HFSP) JobSubmitted(job *mapreduce.Job) {
	var input int64
	for _, t := range job.MapTasks() {
		input += t.Block().Size
	}
	j := hfspJob{job: job, input: input, seq: h.submitted}
	h.submitted++
	if job.TasksIn(mapreduce.TaskPending) == 0 {
		h.started = append(h.started, j)
		return
	}
	i, _ := slices.BinarySearchFunc(h.fresh, j.freshKey(), func(f hfspJob, k sizeKey) int {
		return compareSizeKeys(f.freshKey(), k)
	})
	h.fresh = slices.Insert(h.fresh, i, j)
}

// JobCompleted implements mapreduce.Scheduler: the job leaves the
// scheduler's state, which only ever reads live jobs.
func (h *HFSP) JobCompleted(job *mapreduce.Job) {
	drop := func(j hfspJob) bool { return j.job == job }
	h.started = slices.DeleteFunc(h.started, drop)
	h.fresh = slices.DeleteFunc(h.fresh, drop)
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
// It sorts nothing. It keys the started jobs with a pending, suspended
// or resuming task, since no other started job has anything to launch
// or resume. The resume goes to the suspended task whose job has the
// smallest key (remaining size, then submission), unless a job with a
// smaller key has a pending task. Launches then take started jobs by
// repeated minimum of the keys, merged with the fresh jobs in their
// order, so they visit jobs in size order, and only as many as the free
// slots reach. Each fresh job visited was handed a task, since all its
// tasks are pending and a job without maps has its reduces ready, so it
// moves to started. Should the JobTracker skip that launch, the job's
// key is still its input, so no order changes.
func (h *HFSP) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	free := tt.FreeMapSlots
	keys := h.keys[:0]
	for _, j := range h.started {
		if !isLive(j.job) || j.job.TasksIn(mapreduce.TaskPending)+j.job.TasksIn(mapreduce.TaskSuspended)+
			j.job.TasksIn(mapreduce.TaskMustResume) == 0 {
			continue
		}
		keys = append(keys, sizeKey{rem: remainingSize(j), seq: j.seq, job: j.job})
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
	if best >= 0 && free > 0 && !h.smallerJobWaiting(keys, keys[best]) {
		if err := h.jt.ResumeTask(bestResume); err == nil {
			h.resumes++
			free--
			delete(h.suspended, bestResume)
		}
	}

	// Each task is visited once, so no pick repeats within the round.
	var out []mapreduce.Assignment
	keys = slices.DeleteFunc(keys, func(k sizeKey) bool { return k.job.TasksIn(mapreduce.TaskPending) == 0 })
	n, f := 0, 0 // keys[:n] and fresh[:f] are visited
	for free > 0 {
		if n < len(keys) {
			m := n
			for i := n + 1; i < len(keys); i++ {
				if compareSizeKeys(keys[i], keys[m]) < 0 {
					m = i
				}
			}
			keys[n], keys[m] = keys[m], keys[n]
		}
		var job *mapreduce.Job
		if f < len(h.fresh) && (n == len(keys) || compareSizeKeys(h.fresh[f].freshKey(), keys[n]) < 0) {
			job = h.fresh[f].job
			f++
		} else if n < len(keys) {
			job = keys[n].job
			n++
		} else {
			break
		}
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
	if f > 0 {
		h.started = append(h.started, h.fresh[:f]...)
		h.fresh = slices.Delete(h.fresh, 0, f)
	}
	return out
}

// smallerJobWaiting reports whether a job with a key below k has a
// pending task: the first fresh job, whose tasks all are, or a started
// job among keys.
func (h *HFSP) smallerJobWaiting(keys []sizeKey, k sizeKey) bool {
	if len(h.fresh) > 0 && compareSizeKeys(h.fresh[0].freshKey(), k) < 0 {
		return true
	}
	for _, o := range keys {
		if o.job.TasksIn(mapreduce.TaskPending) > 0 && compareSizeKeys(o, k) < 0 {
			return true
		}
	}
	return false
}

// check preempts a task of a larger job when a smaller job has been
// starved past the delay. It sorts nothing: one pass over the started
// jobs counts the live ones and finds the started job with a pending
// task whose (remaining size, submission) key is smallest, and the
// starved job is that one or the first fresh job, whichever key is
// smaller. The victims are the running tasks of the started jobs whose
// key is larger; fresh jobs run nothing. They reach the advisor in
// started order, not size order, and the pick is the same: Decide
// returns the unique minimum under (policy order, task ID), whatever
// order its candidates come in.
func (h *HFSP) check() {
	defer h.eng.Schedule(h.cfg.CheckInterval, h.checkFn)
	now := h.eng.Now()
	// keys holds the started jobs that can be starved or preempted:
	// those with a pending or a running task.
	h.keys = h.keys[:0]
	nlive, starved := len(h.fresh), -1
	for _, j := range h.started {
		if !isLive(j.job) {
			continue
		}
		nlive++
		pending := j.job.TasksIn(mapreduce.TaskPending) > 0
		if !pending && j.job.TasksIn(mapreduce.TaskRunning) == 0 {
			continue
		}
		h.keys = append(h.keys, sizeKey{rem: remainingSize(j), seq: j.seq, job: j.job})
		if pending && (starved < 0 || compareSizeKeys(h.keys[len(h.keys)-1], h.keys[starved]) < 0) {
			starved = len(h.keys) - 1
		}
	}
	var sk sizeKey
	switch {
	case nlive < 2:
		return
	case len(h.fresh) > 0 && (starved < 0 || compareSizeKeys(h.fresh[0].freshKey(), h.keys[starved]) < 0):
		sk = h.fresh[0].freshKey()
	case starved >= 0:
		sk = h.keys[starved]
	default:
		return
	}
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
