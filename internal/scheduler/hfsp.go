package scheduler

import (
	"fmt"
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

	jobs []*mapreduce.Job
	// starvedSince tracks when the currently smallest job started waiting.
	starvedSince map[mapreduce.JobID]time.Duration
	suspended    map[mapreduce.TaskID]mapreduce.JobID

	// Scratch for check's victim selection, reused so a preemption
	// decision allocates nothing; candTasks parallels cands.
	cands     []advisor.Candidate
	candTasks []*mapreduce.Task

	preemptions int
	resumes     int
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
	eng.Schedule(cfg.CheckInterval, h.check)
	return h, nil
}

// Preemptions reports issued preemptions.
func (h *HFSP) Preemptions() int { return h.preemptions }

// Resumes reports issued resumes.
func (h *HFSP) Resumes() int { return h.resumes }

// JobSubmitted implements mapreduce.Scheduler.
func (h *HFSP) JobSubmitted(job *mapreduce.Job) { h.jobs = append(h.jobs, job) }

// JobCompleted implements mapreduce.Scheduler.
func (h *HFSP) JobCompleted(*mapreduce.Job) {}

// TaskProgressed implements mapreduce.Scheduler.
func (h *HFSP) TaskProgressed(*mapreduce.Task, float64) {}

// remainingSize estimates a job's remaining virtual size in bytes.
func (h *HFSP) remainingSize(job *mapreduce.Job) float64 {
	var total int64
	for _, t := range job.MapTasks() {
		total += t.Block().Size
	}
	rem := float64(total) * (1 - job.Progress())
	if rem < 0 {
		rem = 0
	}
	return rem
}

// ordered returns live jobs ordered by remaining size (smallest first,
// ties by submission).
func (h *HFSP) ordered() []*mapreduce.Job {
	var live []*mapreduce.Job
	for _, j := range h.jobs {
		if j.State() == mapreduce.JobPending || j.State() == mapreduce.JobRunning {
			live = append(live, j)
		}
	}
	// Stable insertion sort by remaining size.
	for i := 1; i < len(live); i++ {
		for k := i; k > 0 && h.remainingSize(live[k]) < h.remainingSize(live[k-1]); k-- {
			live[k], live[k-1] = live[k-1], live[k]
		}
	}
	return live
}

// Assign implements mapreduce.Scheduler: slots go to the smallest job
// first; its suspended tasks on this tracker resume before new launches.
func (h *HFSP) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	free := tt.FreeMapSlots
	ordered := h.ordered()
	rank := make(map[mapreduce.JobID]int, len(ordered))
	for i, j := range ordered {
		rank[j.ID()] = i
	}

	// Resume suspended tasks of the highest-ranked (smallest) jobs first.
	bestRank := len(ordered)
	var bestResume mapreduce.TaskID
	for _, tid := range tt.SuspendedTasks {
		if jid, ok := h.suspended[tid]; ok {
			if r, live := rank[jid]; live && r < bestRank {
				bestRank = r
				bestResume = tid
			}
		}
	}
	if bestResume != (mapreduce.TaskID{}) && free > 0 {
		// Only resume if no smaller job is waiting for this slot.
		if !h.smallerJobWaiting(ordered, bestRank) {
			if err := h.jt.ResumeTask(bestResume); err == nil {
				h.resumes++
				free--
				delete(h.suspended, bestResume)
			}
		}
	}

	var out []mapreduce.Assignment
	taken := make(map[mapreduce.TaskID]bool)
	for _, job := range ordered {
		if free <= 0 {
			break
		}
		for _, t := range job.Tasks() {
			if free <= 0 {
				break
			}
			if t.State() != mapreduce.TaskPending || taken[t.ID()] {
				continue
			}
			if t.ID().Type == mapreduce.ReduceTask && !mapsDone(job) {
				continue
			}
			taken[t.ID()] = true
			out = append(out, mapreduce.Assignment{Task: t.ID()})
			free--
		}
	}
	return out
}

// smallerJobWaiting reports whether a job ranked above r has pending
// tasks.
func (h *HFSP) smallerJobWaiting(ordered []*mapreduce.Job, r int) bool {
	for i := 0; i < r && i < len(ordered); i++ {
		for _, t := range ordered[i].Tasks() {
			if t.State() == mapreduce.TaskPending {
				return true
			}
		}
	}
	return false
}

// check preempts tasks of larger jobs when a smaller job has been starved
// past the delay.
func (h *HFSP) check() {
	defer h.eng.Schedule(h.cfg.CheckInterval, h.check)
	now := h.eng.Now()
	ordered := h.ordered()
	if len(ordered) < 2 {
		return
	}
	// Find the smallest job with pending work.
	var starved *mapreduce.Job
	starvedRank := -1
	for i, j := range ordered {
		for _, t := range j.Tasks() {
			if t.State() == mapreduce.TaskPending {
				starved = j
				starvedRank = i
				break
			}
		}
		if starved != nil {
			break
		}
	}
	if starved == nil {
		return
	}
	since, ok := h.starvedSince[starved.ID()]
	if !ok {
		h.starvedSince[starved.ID()] = now
		return
	}
	if now-since < h.cfg.PreemptionDelay {
		return
	}
	// Victims: running tasks of jobs ranked below the starved job. The
	// candidate slices are reused scratch: one decision allocates
	// nothing.
	h.cands = h.cands[:0]
	h.candTasks = h.candTasks[:0]
	for i := starvedRank + 1; i < len(ordered); i++ {
		for _, t := range ordered[i].Tasks() {
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
	delete(h.starvedSince, starved.ID())
	if h.preemptor.Primitive() == core.Suspend || h.preemptor.Primitive() == core.Checkpoint {
		h.suspended[vt.ID()] = vt.Job().ID()
	}
}
