// Package scheduler provides job/task schedulers for the simulated Hadoop
// engine: the paper's trigger-driven dummy scheduler used for the
// comparative evaluation, a FIFO baseline, a FAIR scheduler with
// starvation-triggered preemption, and an HFSP-style size-based scheduler
// (the paper's §VI outlook).
package scheduler

import (
	"fmt"
	"slices"
	"sync"

	"hadooppreempt/internal/mapreduce"
)

// TriggerEvent selects what a dummy-scheduler trigger fires on.
type TriggerEvent int

// Trigger events.
const (
	// OnProgress fires when the named job's progress reaches Threshold.
	OnProgress TriggerEvent = iota + 1
	// OnComplete fires when the named job succeeds.
	OnComplete
	// OnSubmit fires when the named job is submitted.
	OnSubmit
)

// String names the event.
func (e TriggerEvent) String() string {
	switch e {
	case OnProgress:
		return "on-progress"
	case OnComplete:
		return "on-complete"
	case OnSubmit:
		return "on-submit"
	default:
		return fmt.Sprintf("TriggerEvent(%d)", int(e))
	}
}

// Trigger is one rule of the dummy scheduler: when the event condition is
// met for the job (matched by JobConf name), Do runs once.
type Trigger struct {
	Event     TriggerEvent
	Job       string
	Threshold float64 // OnProgress only
	Do        func()

	fired bool
}

// Dummy is the paper's evaluation scheduler (§III-B): it "dictates task
// eviction according to static configuration files", expressed here as
// triggers. Slot assignment is by job priority (then submission order),
// which lets the high-priority task th claim a slot the moment the
// preempted tl releases it.
type Dummy struct {
	jt *mapreduce.JobTracker
	// triggers holds the rules by value; fire flips the fired flag by
	// index, so registering a rule never heap-allocates a Trigger.
	triggers []Trigger
	// unfired counts triggers that have not fired yet, so the
	// per-progress-event dispatch is a single comparison once every rule
	// has run.
	unfired int

	// Scratch buffers reused across Assign rounds (the JobTracker consumes
	// the returned assignments before the next round).
	pending []*mapreduce.Task
	assigns []mapreduce.Assignment
}

var _ mapreduce.Scheduler = (*Dummy)(nil)

// dummyPool recycles Dummy shells (trigger and scratch capacity) across the
// per-cell teardown/rebuild churn of a sweep.
var dummyPool = sync.Pool{New: func() any { return &Dummy{} }}

// NewDummy creates the trigger scheduler. Install it with SetScheduler
// before submitting jobs. Call Release when the cell is torn down to
// recycle the scheduler's buffers.
func NewDummy(jt *mapreduce.JobTracker) *Dummy {
	d := dummyPool.Get().(*Dummy)
	d.jt = jt
	return d
}

// Release returns the scheduler's buffers to a shared arena for reuse by a
// future NewDummy. The scheduler must not be used afterwards.
func (d *Dummy) Release() {
	d.jt = nil
	clear(d.triggers) // drop the Do closures
	d.triggers = d.triggers[:0]
	d.unfired = 0
	clear(d.pending)
	d.pending = d.pending[:0]
	d.assigns = d.assigns[:0]
	dummyPool.Put(d)
}

// AddTrigger registers a rule.
func (d *Dummy) AddTrigger(t Trigger) {
	d.triggers = append(d.triggers, t)
	if !t.fired {
		d.unfired++
	}
}

// JobSubmitted implements mapreduce.Scheduler.
func (d *Dummy) JobSubmitted(job *mapreduce.Job) {
	d.fire(OnSubmit, job.Name(), 1)
}

// JobCompleted implements mapreduce.Scheduler.
func (d *Dummy) JobCompleted(job *mapreduce.Job) {
	d.fire(OnComplete, job.Name(), 1)
}

// TaskProgressed implements mapreduce.Scheduler.
func (d *Dummy) TaskProgressed(task *mapreduce.Task, progress float64) {
	if d.unfired == 0 {
		return
	}
	d.fire(OnProgress, task.Job().Name(), task.Job().Progress())
}

// fire runs matching triggers once.
func (d *Dummy) fire(ev TriggerEvent, job string, value float64) {
	if d.unfired == 0 {
		return
	}
	for i := range d.triggers {
		t := &d.triggers[i]
		if t.fired || t.Event != ev || t.Job != job {
			continue
		}
		if ev == OnProgress && value < t.Threshold {
			continue
		}
		t.fired = true
		d.unfired--
		if t.Do != nil {
			t.Do()
		}
	}
}

// Assign implements mapreduce.Scheduler: pending tasks ordered by job
// priority (descending), then submission order.
func (d *Dummy) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	pending := d.jt.PendingTasksInto(d.pending[:0])
	d.pending = pending
	slices.SortStableFunc(pending, func(a, b *mapreduce.Task) int {
		return b.Job().Priority() - a.Job().Priority()
	})
	out := d.assigns[:0]
	free := tt.FreeMapSlots
	for _, t := range pending {
		if free <= 0 {
			break
		}
		if t.ID().Type == mapreduce.ReduceTask && !mapsDone(t.Job()) {
			continue
		}
		out = append(out, mapreduce.Assignment{Task: t.ID()})
		free--
	}
	d.assigns = out
	return out
}

// mapsDone reports whether all map tasks of a job succeeded.
func mapsDone(j *mapreduce.Job) bool {
	for _, t := range j.MapTasks() {
		if t.State() != mapreduce.TaskSucceeded {
			return false
		}
	}
	return true
}
