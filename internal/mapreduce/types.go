// Package mapreduce implements a Hadoop-1-style MapReduce engine on the
// simulated substrates: a JobTracker that tracks cluster state and task
// scheduling, and TaskTrackers that run Map/Reduce tasks as child
// processes of the simulated node OS.
//
// The engine mirrors the pieces §III-B of the paper modifies:
//
//   - tasks are ordinary OS processes, controlled with POSIX signals;
//   - TaskTrackers exchange heartbeats with the JobTracker at a fixed
//     interval plus out-of-band heartbeats when slots free up;
//   - preemption commands (suspend/resume/kill) ride heartbeat responses,
//     and acknowledgements ride the following heartbeat;
//   - the JobTracker task state machine carries the paper's new states:
//     MUST_SUSPEND, SUSPENDED and MUST_RESUME.
package mapreduce

import (
	"bytes"
	"fmt"
	"strconv"
	"time"
)

// JobID identifies a submitted job.
type JobID string

// TaskType distinguishes map, reduce, and cleanup work.
type TaskType int

// Task types.
const (
	// MapTask processes one input block.
	MapTask TaskType = iota + 1
	// ReduceTask shuffles, sorts and reduces map outputs.
	ReduceTask
)

// String returns the Hadoop-style short tag ("m" / "r").
func (t TaskType) String() string {
	switch t {
	case MapTask:
		return "m"
	case ReduceTask:
		return "r"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// TaskID identifies a task within a job.
type TaskID struct {
	Job   JobID
	Type  TaskType
	Index int
}

// String renders the Hadoop-style task id, e.g. "job1_m_000000".
func (id TaskID) String() string {
	var buf [48]byte
	return string(appendTaskID(buf[:0], id))
}

// AttemptID identifies one execution attempt of a task.
type AttemptID struct {
	Task    TaskID
	Attempt int
}

// String renders the Hadoop-style attempt id.
func (id AttemptID) String() string {
	var buf [64]byte
	b := append(buf[:0], "attempt_"...)
	b = appendTaskID(b, id.Task)
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(id.Attempt), 10)
	return string(b)
}

// appendTaskID renders id exactly as String does, into buf.
func appendTaskID(buf []byte, id TaskID) []byte {
	buf = append(buf, id.Job...)
	buf = append(buf, '_')
	buf = append(buf, id.Type.String()...)
	buf = append(buf, '_')
	return appendPadded(buf, id.Index, 6)
}

// appendPadded renders n zero-padded to at least width digits, like
// strconv.AppendInt with a %0*d format but without fmt.
func appendPadded(buf []byte, n, width int) []byte {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(n), 10)
	for pad := width - len(digits); pad > 0; pad-- {
		buf = append(buf, '0')
	}
	return append(buf, digits...)
}

// compareTaskIDs orders task ids exactly like comparing their String
// renderings, without allocating (hot: every heartbeat sorts with it).
func compareTaskIDs(a, b TaskID) int {
	var ba, bb [48]byte
	return bytes.Compare(appendTaskID(ba[:0], a), appendTaskID(bb[:0], b))
}

// compareAttemptIDs orders attempt ids exactly like comparing their
// String renderings ("attempt_<task>_<n>"), without allocating. The
// shared "attempt_" prefix never changes the ordering and is skipped.
func compareAttemptIDs(a, b AttemptID) int {
	var ba, bb [64]byte
	sa := appendTaskID(ba[:0], a.Task)
	sa = append(sa, '_')
	sa = strconv.AppendInt(sa, int64(a.Attempt), 10)
	sb := appendTaskID(bb[:0], b.Task)
	sb = append(sb, '_')
	sb = strconv.AppendInt(sb, int64(b.Attempt), 10)
	return bytes.Compare(sa, sb)
}

// TaskState is the JobTracker-side state of a task. The preemption states
// (TaskMustSuspend, TaskSuspended, TaskMustResume) are the paper's
// additions to the Hadoop state machine.
type TaskState int

// Task states.
const (
	// TaskPending means the task waits for a slot.
	TaskPending TaskState = iota + 1
	// TaskRunning means an attempt is executing on a TaskTracker.
	TaskRunning
	// TaskMustSuspend means a suspend command was issued and will be
	// piggybacked on the TaskTracker's next heartbeat.
	TaskMustSuspend
	// TaskSuspended means the TaskTracker acknowledged the suspension.
	TaskSuspended
	// TaskMustResume means a resume command was issued and will be
	// piggybacked on the TaskTracker's next heartbeat.
	TaskMustResume
	// TaskSucceeded is terminal success.
	TaskSucceeded
	// TaskKilled means the current attempt was killed; the task either
	// requeued (back to TaskPending) or is terminally killed.
	TaskKilled
	// TaskFailed is terminal failure (e.g. OOM-killed too many times).
	TaskFailed
)

// String returns the paper's naming for the state.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "PENDING"
	case TaskRunning:
		return "RUNNING"
	case TaskMustSuspend:
		return "MUST_SUSPEND"
	case TaskSuspended:
		return "SUSPENDED"
	case TaskMustResume:
		return "MUST_RESUME"
	case TaskSucceeded:
		return "SUCCEEDED"
	case TaskKilled:
		return "KILLED"
	case TaskFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s TaskState) Terminal() bool {
	return s == TaskSucceeded || s == TaskFailed
}

// Live reports whether the task currently has a live process on a
// TaskTracker (running or suspended, possibly in a transition state).
func (s TaskState) Live() bool {
	switch s {
	case TaskRunning, TaskMustSuspend, TaskSuspended, TaskMustResume:
		return true
	default:
		return false
	}
}

// JobState is the lifecycle state of a job.
type JobState int

// Job states.
const (
	// JobPending means no task has launched yet.
	JobPending JobState = iota + 1
	// JobRunning means at least one task launched.
	JobRunning
	// JobSucceeded means all tasks succeeded.
	JobSucceeded
	// JobFailed means a task failed terminally.
	JobFailed
)

// String returns a readable name.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "PENDING"
	case JobRunning:
		return "RUNNING"
	case JobSucceeded:
		return "SUCCEEDED"
	case JobFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// AttemptReport is the per-attempt portion of a heartbeat.
type AttemptReport struct {
	Attempt   AttemptID
	Suspended bool
	Progress  float64
	// task is the JobTracker-side record, resolved by the tracker at
	// launch so per-heartbeat processing skips the TaskID map lookup. It
	// is a cache only: when nil (reports built outside a TaskTracker) the
	// JobTracker falls back to the map.
	task *Task
}

// HeartbeatStatus is what a TaskTracker sends the JobTracker.
type HeartbeatStatus struct {
	TaskTracker  string
	FreeMapSlots int
	// Attempts reports every live attempt (running or suspended).
	Attempts []AttemptReport
	// Completed and Failed list attempts that ended since the last
	// heartbeat. Wasted carries the CPU time thrown away by kills.
	Completed []AttemptID
	Failed    []AttemptID
	// tracker is the sender, set by a TaskTracker so the JobTracker skips
	// the name lookup, as AttemptReport.task skips the task's. A status
	// built by name alone resolves through the registered trackers.
	tracker *TaskTracker
}

// ActionKind selects the command carried by an Action.
type ActionKind uint8

// Action kinds.
const (
	// ActionLaunch starts a new attempt of a task.
	ActionLaunch ActionKind = iota + 1
	// ActionSuspend stops a running attempt with SIGTSTP.
	ActionSuspend
	// ActionResume resumes a suspended attempt with SIGCONT; it consumes
	// a slot on the TaskTracker.
	ActionResume
	// ActionKill kills an attempt with SIGKILL.
	ActionKill
)

// verb names the command for String.
func (k ActionKind) verb() string {
	switch k {
	case ActionLaunch:
		return "launch "
	case ActionSuspend:
		return "suspend "
	case ActionResume:
		return "resume "
	case ActionKill:
		return "kill "
	default:
		return fmt.Sprintf("ActionKind(%d) ", int(k))
	}
}

// Action is a command piggybacked on a heartbeat response. It is a plain
// value rather than an interface so building the per-heartbeat action list
// never boxes (boxing was a measurable allocation on the sweep hot path).
type Action struct {
	Kind    ActionKind
	Attempt AttemptID
	// Cleanup applies to ActionKill: the TaskTracker runs a cleanup
	// attempt that occupies the slot briefly to remove temporary outputs,
	// as Hadoop does for killed tasks.
	Cleanup bool
}

// String describes the action.
func (a Action) String() string { return a.Kind.verb() + a.Attempt.String() }

// TaskTrackerInfo is the scheduler's view of one TaskTracker during an
// assignment round.
type TaskTrackerInfo struct {
	Name         string
	Node         string // HDFS node id
	FreeMapSlots int
	// SuspendedTasks lists tasks suspended on this tracker (resume
	// locality: they can only be resumed here).
	SuspendedTasks []TaskID
}

// Assignment is a scheduler decision for one free slot: launch a new
// attempt of the task on the reporting tracker. (Resumes of suspended
// tasks flow through JobTracker.ResumeTask instead, because the suspended
// process is pinned to its tracker — resume locality, §V-A.)
type Assignment struct {
	Task TaskID
}

// Scheduler is the pluggable job/task scheduler consulted by the
// JobTracker. Implementations decide task placement and drive preemption
// through the JobTracker's control API (SuspendTask / ResumeTask /
// KillTaskAttempt).
type Scheduler interface {
	// JobSubmitted is called when a job enters the system.
	JobSubmitted(job *Job)
	// JobCompleted is called when a job reaches a terminal state.
	JobCompleted(job *Job)
	// TaskProgressed is called when a heartbeat updates task progress.
	TaskProgressed(task *Task, progress float64)
	// Assign picks tasks for the tracker's free slots.
	Assign(tt TaskTrackerInfo) []Assignment
}

// Listener observes engine events; all methods are optional via the
// embedded NopListener.
type Listener interface {
	TaskStateChanged(task *Task, from, to TaskState, at time.Duration)
	TaskProgressed(task *Task, progress float64, at time.Duration)
	JobStateChanged(job *Job, from, to JobState, at time.Duration)
	CleanupSpan(task TaskID, tracker string, start, end time.Duration)
}

// NopListener implements Listener with no-ops; embed it to implement only
// the methods of interest.
type NopListener struct{}

// TaskStateChanged implements Listener.
func (NopListener) TaskStateChanged(*Task, TaskState, TaskState, time.Duration) {}

// TaskProgressed implements Listener.
func (NopListener) TaskProgressed(*Task, float64, time.Duration) {}

// JobStateChanged implements Listener.
func (NopListener) JobStateChanged(*Job, JobState, JobState, time.Duration) {}

// CleanupSpan implements Listener.
func (NopListener) CleanupSpan(TaskID, string, time.Duration, time.Duration) {}
