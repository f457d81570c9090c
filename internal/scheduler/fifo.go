package scheduler

import (
	"hadooppreempt/internal/mapreduce"
)

// FIFO is Hadoop's default scheduler: tasks are assigned in job submission
// order with no preemption. It is the "wait" world: a high-priority job
// simply queues behind running work.
type FIFO struct {
	jt *mapreduce.JobTracker

	// Scratch buffers reused across Assign rounds (the JobTracker consumes
	// the returned assignments before the next round).
	pending []*mapreduce.Task
	assigns []mapreduce.Assignment
}

var _ mapreduce.Scheduler = (*FIFO)(nil)

// NewFIFO creates a FIFO scheduler.
func NewFIFO(jt *mapreduce.JobTracker) *FIFO {
	return &FIFO{jt: jt}
}

// JobSubmitted implements mapreduce.Scheduler.
func (f *FIFO) JobSubmitted(*mapreduce.Job) {}

// JobCompleted implements mapreduce.Scheduler.
func (f *FIFO) JobCompleted(*mapreduce.Job) {}

// TaskProgressed implements mapreduce.Scheduler.
func (f *FIFO) TaskProgressed(*mapreduce.Task, float64) {}

// Assign implements mapreduce.Scheduler.
func (f *FIFO) Assign(tt mapreduce.TaskTrackerInfo) []mapreduce.Assignment {
	f.pending = f.jt.PendingTasksInto(f.pending[:0])
	out := f.assigns[:0]
	free := tt.FreeMapSlots
	for _, t := range f.pending {
		if free <= 0 {
			break
		}
		if t.ID().Type == mapreduce.ReduceTask && !mapsDone(t.Job()) {
			continue
		}
		out = append(out, mapreduce.Assignment{Task: t.ID()})
		free--
	}
	f.assigns = out
	return out
}
