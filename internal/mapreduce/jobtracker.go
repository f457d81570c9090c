package mapreduce

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hadooppreempt/internal/hdfs"
	"hadooppreempt/internal/sim"
)

// Job is the JobTracker's record of a submitted job.
type Job struct {
	id    JobID
	conf  JobConf
	state JobState

	tasks []*Task // maps first, then reduces
	maps  int     // length of the map prefix of tasks
	// inState counts the job's tasks in each TaskState. Submit starts
	// every task pending and noteTaskTransition moves one count per
	// state change, so schedulers and the heartbeat scans can skip a job
	// without walking its tasks.
	inState [TaskFailed + 1]int
	// doneLo and startHi bound the tasks Progress walks: every task
	// before doneLo has succeeded, and no task from startHi on has ever
	// launched. noteTaskTransition advances doneLo when a task succeeds;
	// a launch raises startHi past the launched task.
	doneLo, startHi int

	submittedAt time.Duration
	completedAt time.Duration
}

// ID returns the job id.
func (j *Job) ID() JobID { return j.id }

// Conf returns the job configuration.
func (j *Job) Conf() JobConf { return j.conf }

// Name returns the job's configured name without copying the whole conf;
// schedulers match triggers against it on every progress event.
func (j *Job) Name() string { return j.conf.Name }

// Priority returns the job's configured priority.
func (j *Job) Priority() int { return j.conf.Priority }

// State returns the job state.
func (j *Job) State() JobState { return j.state }

// SubmittedAt returns the submission time.
func (j *Job) SubmittedAt() time.Duration { return j.submittedAt }

// CompletedAt returns the completion time (valid once terminal).
func (j *Job) CompletedAt() time.Duration { return j.completedAt }

// Tasks returns the job's tasks, maps first, then reduces. The slice is
// the job's own, not a copy, and callers must not modify it; its
// capacity is clipped, so an append copies instead of writing into it.
func (j *Job) Tasks() []*Task { return slices.Clip(j.tasks) }

// TasksIn returns how many of the job's tasks are in state s.
func (j *Job) TasksIn(s TaskState) int { return j.inState[s] }

// MapTasks returns the job's map tasks, the prefix of Tasks, under the
// same read-only contract.
func (j *Job) MapTasks() []*Task { return j.tasks[:j.maps:j.maps] }

// Progress is the mean progress over all tasks. It walks only
// tasks[doneLo:startHi]: each task before doneLo has succeeded and adds
// exactly 1, each from startHi on never launched and adds exactly +0,
// and the rest are added in task order, so the sum is bit-identical to
// a walk over every task.
func (j *Job) Progress() float64 {
	if len(j.tasks) == 0 {
		return 1
	}
	sum := float64(j.doneLo)
	for _, t := range j.tasks[j.doneLo:j.startHi] {
		if t.state == TaskSucceeded {
			sum += 1
		} else {
			sum += t.progress
		}
	}
	return sum / float64(len(j.tasks))
}

// JobTotals sums a job's per-task counters.
type JobTotals struct {
	Suspensions int
	Attempts    int
	WastedWork  time.Duration
	SwapOut     int64
	SwapIn      int64
}

// Totals folds the job's per-task counters.
func (j *Job) Totals() JobTotals {
	var s JobTotals
	for _, t := range j.tasks {
		s.Suspensions += t.suspensions
		s.Attempts += t.attempts
		s.WastedWork += t.wastedWork
		s.SwapOut += t.swapOutBytes
		s.SwapIn += t.swapInBytes
	}
	return s
}

// Task is the JobTracker's record of one task.
type Task struct {
	id TaskID
	// idStr caches id.String() so per-decision consumers (the scheduler
	// preemption paths) never re-render it.
	idStr string
	job   *Job
	state TaskState

	attempts int       // attempts started so far
	attempt  AttemptID // current (or last) attempt
	tracker  string    // TaskTracker of the current/last attempt
	// tt is the registered TaskTracker named tracker, resolved at launch
	// so state changes skip the name lookup; nil if none was registered.
	tt *TaskTracker

	progress float64
	block    hdfs.BlockLocation // input block for maps

	// signalled marks that the pending MUST_* command was already
	// piggybacked to the tracker and awaits acknowledgement.
	signalled bool
	// killRequeue records whether the in-flight kill should requeue the
	// task (preemption) or end it (terminal kill).
	killRequeue bool

	firstLaunchAt time.Duration
	completedAt   time.Duration
	suspensions   int
	wastedWork    time.Duration
	swapOutBytes  int64
	swapInBytes   int64
	residentBytes int64 // last observed resident set
}

// ID returns the task id.
func (t *Task) ID() TaskID { return t.id }

// pos returns the task's index in its job's task list, maps first.
func (t *Task) pos() int {
	if t.id.Type == ReduceTask {
		return t.job.maps + t.id.Index
	}
	return t.id.Index
}

// IDString returns the cached String rendering of the task id, for
// hot paths that would otherwise allocate one per call.
func (t *Task) IDString() string { return t.idStr }

// Job returns the owning job.
func (t *Task) Job() *Job { return t.job }

// State returns the JobTracker-side state.
func (t *Task) State() TaskState { return t.state }

// Progress returns the last reported progress in [0,1].
func (t *Task) Progress() float64 { return t.progress }

// Tracker returns the TaskTracker of the current or last attempt.
func (t *Task) Tracker() string { return t.tracker }

// Attempts returns how many attempts have started.
func (t *Task) Attempts() int { return t.attempts }

// Suspensions returns how many times the task was suspended.
func (t *Task) Suspensions() int { return t.suspensions }

// WastedWork returns CPU time lost to killed attempts.
func (t *Task) WastedWork() time.Duration { return t.wastedWork }

// SwapOutBytes returns paging traffic out of the task's processes.
func (t *Task) SwapOutBytes() int64 { return t.swapOutBytes }

// SwapInBytes returns paging traffic into the task's processes.
func (t *Task) SwapInBytes() int64 { return t.swapInBytes }

// ResidentBytes returns the last observed resident set size.
func (t *Task) ResidentBytes() int64 { return t.residentBytes }

// FirstLaunchAt returns when the first attempt launched.
func (t *Task) FirstLaunchAt() time.Duration { return t.firstLaunchAt }

// CompletedAt returns when the task succeeded.
func (t *Task) CompletedAt() time.Duration { return t.completedAt }

// Block returns the input block of a map task.
func (t *Task) Block() hdfs.BlockLocation { return t.block }

// JobTracker is the centralized coordinator: it tracks jobs and tasks,
// exchanges heartbeats with TaskTrackers, consults the pluggable Scheduler
// for assignments, and exposes the preemption control API (§III-B).
type JobTracker struct {
	eng       *sim.Engine
	cfg       *EngineConfig
	fs        *hdfs.FileSystem
	scheduler Scheduler
	listeners []Listener

	jobs     map[JobID]*Job
	jobOrder []JobID
	// jobList mirrors jobOrder with resolved pointers so per-heartbeat
	// walks skip the map lookups.
	jobList  []*Job
	tasks    map[TaskID]*Task
	trackers map[string]*TaskTracker
	nextJob  int
	// liveJobs counts submitted jobs not yet terminal, so the per-event
	// termination check is a comparison instead of a map walk.
	liveJobs int
	// pendingTasks counts tasks in TaskPending across all jobs. Together
	// with the per-tracker quiescence flags it lets a heartbeat prove the
	// scheduler has nothing to do without consulting it.
	pendingTasks int

	// Scratch buffers reused across heartbeats; their contents are only
	// valid until the next Heartbeat call.
	onScratch     []*Task
	suspScratch   []TaskID
	actionScratch []Action
	// blockScratch backs the block-location lookup in Submit; tasks copy
	// the locations by value, so the slice is reusable per submission.
	blockScratch []hdfs.BlockLocation
}

// NewJobTracker creates a JobTracker. The scheduler may be set later with
// SetScheduler but must be non-nil before the first heartbeat.
func NewJobTracker(eng *sim.Engine, cfg EngineConfig, fs *hdfs.FileSystem) (*JobTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	jt := jtPool.Get().(*JobTracker)
	jt.eng, jt.cfg, jt.fs = eng, &cfg, fs
	if jt.jobs == nil {
		jt.jobs = make(map[JobID]*Job)
		jt.tasks = make(map[TaskID]*Task)
		jt.trackers = make(map[string]*TaskTracker)
	}
	return jt, nil
}

// jtPool recycles JobTracker shells released with release, keeping the job
// and task tables and the heartbeat scratch buffers warm across the cluster
// rebuilds of a sweep cell.
var jtPool = sync.Pool{New: func() any { return &JobTracker{} }}

// release returns the tracker's internal storage to a shared arena for
// reuse by a future NewJobTracker. Called by Cluster.Close.
func (jt *JobTracker) release() {
	clear(jt.jobs)
	clear(jt.tasks)
	clear(jt.trackers)
	clear(jt.jobOrder)
	jt.jobOrder = jt.jobOrder[:0]
	clear(jt.jobList)
	jt.jobList = jt.jobList[:0]
	jt.listeners = nil
	jt.scheduler = nil
	jt.eng, jt.cfg, jt.fs = nil, nil, nil
	jt.nextJob, jt.liveJobs, jt.pendingTasks = 0, 0, 0
	clear(jt.onScratch)
	clear(jt.suspScratch)
	clear(jt.actionScratch)
	clear(jt.blockScratch)
	jt.blockScratch = jt.blockScratch[:0]
	jtPool.Put(jt)
}

// SetScheduler installs the job/task scheduler.
func (jt *JobTracker) SetScheduler(s Scheduler) { jt.scheduler = s }

// AddListener subscribes an event listener.
func (jt *JobTracker) AddListener(l Listener) { jt.listeners = append(jt.listeners, l) }

// Config returns the engine configuration.
func (jt *JobTracker) Config() EngineConfig { return *jt.cfg }

// Engine returns the simulation engine.
func (jt *JobTracker) Engine() *sim.Engine { return jt.eng }

// registerTracker is called by TaskTrackers when they start.
func (jt *JobTracker) registerTracker(tt *TaskTracker) error {
	if _, ok := jt.trackers[tt.name]; ok {
		return fmt.Errorf("mapreduce: tracker %q already registered", tt.name)
	}
	jt.trackers[tt.name] = tt
	return nil
}

// Submit creates a job from conf: one map task per input block, plus the
// configured reduce tasks.
func (jt *JobTracker) Submit(conf JobConf) (*Job, error) {
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	blocks, err := jt.fs.BlocksInto(conf.InputPath, jt.blockScratch[:0])
	if err != nil {
		return nil, fmt.Errorf("mapreduce: submit %s: %w", conf.Name, err)
	}
	jt.blockScratch = blocks
	jt.nextJob++
	buf := make([]byte, 0, len("job_")+len(conf.Name)+8)
	buf = append(buf, "job_"...)
	buf = append(buf, conf.Name...)
	buf = append(buf, '_')
	buf = appendPadded(buf, jt.nextJob, 4)
	id := JobID(buf)
	job := &Job{
		id:          id,
		conf:        conf,
		state:       JobPending,
		maps:        len(blocks),
		submittedAt: jt.eng.Now(),
	}
	for i, b := range blocks {
		t := &Task{
			id:    TaskID{Job: id, Type: MapTask, Index: i},
			job:   job,
			state: TaskPending,
			block: b,
		}
		t.idStr = t.id.String()
		job.tasks = append(job.tasks, t)
		jt.tasks[t.id] = t
	}
	for i := 0; i < conf.NumReduces; i++ {
		t := &Task{
			id:    TaskID{Job: id, Type: ReduceTask, Index: i},
			job:   job,
			state: TaskPending,
		}
		t.idStr = t.id.String()
		job.tasks = append(job.tasks, t)
		jt.tasks[t.id] = t
	}
	job.inState[TaskPending] = len(job.tasks)
	jt.jobs[id] = job
	jt.jobOrder = append(jt.jobOrder, id)
	jt.jobList = append(jt.jobList, job)
	jt.liveJobs++
	jt.pendingTasks += len(job.tasks)
	if jt.scheduler != nil {
		jt.scheduler.JobSubmitted(job)
	}
	return job, nil
}

// Job returns a submitted job.
func (jt *JobTracker) Job(id JobID) (*Job, bool) {
	j, ok := jt.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (jt *JobTracker) Jobs() []*Job {
	return append([]*Job(nil), jt.jobList...)
}

// Task returns a task record.
func (jt *JobTracker) Task(id TaskID) (*Task, bool) {
	t, ok := jt.tasks[id]
	return t, ok
}

// PendingTasks returns tasks awaiting a slot, in (job submission, index)
// order.
func (jt *JobTracker) PendingTasks() []*Task {
	return jt.PendingTasksInto(nil)
}

// PendingTasksInto appends the pending tasks to dst and returns it,
// letting schedulers reuse one buffer across assignment rounds. Jobs
// with no pending task are skipped without walking their tasks.
func (jt *JobTracker) PendingTasksInto(dst []*Task) []*Task {
	for _, j := range jt.jobList {
		if j.inState[TaskPending] == 0 {
			continue
		}
		for _, t := range j.tasks {
			if t.state == TaskPending {
				dst = append(dst, t)
			}
		}
	}
	return dst
}

// setTaskState transitions a task and notifies listeners. After Submit
// it is the only writer of Task.state, which keeps Job.inState exact.
func (jt *JobTracker) setTaskState(t *Task, to TaskState) {
	from := t.state
	if from == to {
		return
	}
	t.state = to
	jt.noteTaskTransition(t, from, to)
	now := jt.eng.Now()
	for _, l := range jt.listeners {
		l.TaskStateChanged(t, from, to, now)
	}
}

// noteTaskTransition maintains the bookkeeping every task state change
// must update: the job's per-state task counts (Job.TasksIn) and its
// succeeded prefix (Progress), the global pending count, and — for
// tasks bound to a registered tracker — the tracker's command-dirty
// flag, suspended count and tasksOn cache validity.
func (jt *JobTracker) noteTaskTransition(t *Task, from, to TaskState) {
	j := t.job
	j.inState[from]--
	j.inState[to]++
	if to == TaskSucceeded {
		for j.doneLo < len(j.tasks) && j.tasks[j.doneLo].state == TaskSucceeded {
			j.doneLo++
		}
	}
	if from == TaskPending {
		jt.pendingTasks--
	}
	if to == TaskPending {
		jt.pendingTasks++
	}
	tt := t.tt
	if tt == nil && t.tracker != "" {
		tt = jt.trackers[t.tracker]
	}
	if tt == nil {
		return
	}
	tt.jtOnValid = false
	switch to {
	case TaskMustSuspend, TaskMustResume, TaskKilled:
		tt.jtCmdDirty = true
	}
	fromSusp := from == TaskSuspended || from == TaskMustResume
	toSusp := to == TaskSuspended || to == TaskMustResume
	if fromSusp != toSusp {
		if toSusp {
			tt.jtSuspended++
		} else {
			tt.jtSuspended--
		}
	}
}

// setJobState transitions a job and notifies listeners and the scheduler.
func (jt *JobTracker) setJobState(j *Job, to JobState) {
	from := j.state
	if from == to {
		return
	}
	j.state = to
	fromTerminal := from == JobSucceeded || from == JobFailed
	toTerminal := to == JobSucceeded || to == JobFailed
	if !fromTerminal && toTerminal {
		jt.liveJobs--
	} else if fromTerminal && !toTerminal {
		jt.liveJobs++
	}
	now := jt.eng.Now()
	for _, l := range jt.listeners {
		l.JobStateChanged(j, from, to, now)
	}
	if toTerminal {
		j.completedAt = now
		if jt.scheduler != nil {
			jt.scheduler.JobCompleted(j)
		}
	}
}

// SuspendTask marks a running task MUST_SUSPEND; the suspend command is
// piggybacked on the task's tracker's next heartbeat, and the SUSPENDED
// state is entered when the following heartbeat acknowledges it.
func (jt *JobTracker) SuspendTask(id TaskID) error {
	t, ok := jt.tasks[id]
	if !ok {
		return fmt.Errorf("mapreduce: no such task %s", id)
	}
	if t.state != TaskRunning {
		return fmt.Errorf("mapreduce: cannot suspend task %s in state %s", id, t.state)
	}
	t.signalled = false
	jt.setTaskState(t, TaskMustSuspend)
	return nil
}

// ResumeTask marks a suspended task MUST_RESUME. The resume command is
// piggybacked on the next heartbeat of the tracker holding the suspended
// process (resume locality) and consumes a slot there.
func (jt *JobTracker) ResumeTask(id TaskID) error {
	t, ok := jt.tasks[id]
	if !ok {
		return fmt.Errorf("mapreduce: no such task %s", id)
	}
	if t.state != TaskSuspended {
		return fmt.Errorf("mapreduce: cannot resume task %s in state %s", id, t.state)
	}
	t.signalled = false
	jt.setTaskState(t, TaskMustResume)
	return nil
}

// KillJob terminally kills a job: live attempts are killed on their
// trackers, pending tasks are cancelled, and the job moves to JobFailed.
func (jt *JobTracker) KillJob(id JobID) error {
	job, ok := jt.jobs[id]
	if !ok {
		return fmt.Errorf("mapreduce: no such job %s", id)
	}
	if job.state == JobSucceeded || job.state == JobFailed {
		return fmt.Errorf("mapreduce: job %s already finished", id)
	}
	for _, t := range job.tasks {
		switch {
		case t.state.Live():
			t.killRequeue = false
			t.signalled = false
			jt.setTaskState(t, TaskKilled)
		case t.state == TaskPending:
			jt.setTaskState(t, TaskKilled)
		}
	}
	jt.setJobState(job, JobFailed)
	return nil
}

// KillTaskAttempt kills the live attempt of a task. With requeue the task
// returns to TaskPending and is rescheduled from scratch (the preemption
// kill primitive); without, the task is terminally killed.
func (jt *JobTracker) KillTaskAttempt(id TaskID, requeue bool) error {
	t, ok := jt.tasks[id]
	if !ok {
		return fmt.Errorf("mapreduce: no such task %s", id)
	}
	if !t.state.Live() {
		return fmt.Errorf("mapreduce: cannot kill task %s in state %s", id, t.state)
	}
	t.killRequeue = requeue
	t.signalled = false
	jt.setTaskState(t, TaskKilled)
	if !requeue {
		// A terminally killed task can never succeed, so the job cannot
		// either.
		jt.setJobState(t.job, JobFailed)
	}
	return nil
}

// Heartbeat processes a TaskTracker status report and returns the actions
// to piggyback on the response. This is the paper's communication path:
// commands flow JobTracker → TaskTracker in responses, acknowledgements
// flow back in the next status report.
func (jt *JobTracker) Heartbeat(status HeartbeatStatus) []Action {
	if jt.scheduler == nil {
		panic("mapreduce: heartbeat before SetScheduler")
	}
	now := jt.eng.Now()

	// 1. Completed / failed attempts.
	for _, aid := range status.Completed {
		jt.attemptCompleted(aid)
	}
	for _, aid := range status.Failed {
		jt.attemptFailed(aid)
	}

	// 2. Progress and suspension acknowledgements.
	for _, rep := range status.Attempts {
		t := rep.task
		if t == nil {
			var ok bool
			if t, ok = jt.tasks[rep.Attempt.Task]; !ok {
				continue
			}
		}
		if t.attempt != rep.Attempt {
			continue // stale report of a superseded attempt
		}
		if rep.Progress > t.progress {
			t.progress = rep.Progress
			for _, l := range jt.listeners {
				l.TaskProgressed(t, rep.Progress, now)
			}
			jt.scheduler.TaskProgressed(t, rep.Progress)
		}
		switch {
		case t.state == TaskMustSuspend && rep.Suspended:
			t.suspensions++
			jt.setTaskState(t, TaskSuspended)
		case t.state == TaskMustResume && !rep.Suspended:
			jt.setTaskState(t, TaskRunning)
		}
	}

	// Quiescent fast path: skip the command scan (step 3) and scheduler
	// consultation (step 4) when both are provably no-ops — no task on
	// this tracker has an undelivered command, and either no slot is free
	// or there is neither a pending task anywhere nor a suspended task
	// here to resume. Every scheduler's Assign is side-effect-free and
	// empty under those conditions, so skipping it is invisible: the
	// heartbeat timer, progress reports and acknowledgements above are
	// untouched, and output stays byte-identical with the path disabled.
	tt := status.tracker
	if tt == nil {
		tt = jt.trackers[status.TaskTracker]
	}
	if tt != nil && !jt.cfg.DisableQuiescentHeartbeats && !tt.jtCmdDirty &&
		(status.FreeMapSlots == 0 || (jt.pendingTasks == 0 && tt.jtSuspended == 0)) {
		jt.actionScratch = jt.actionScratch[:0]
		return jt.actionScratch
	}

	// 3. Pending commands for this tracker. tasksOn is computed once per
	// heartbeat; step 4 re-filters it by current state rather than walking
	// the jobs again.
	on := jt.tasksOn(status.TaskTracker, tt)
	actions := jt.actionScratch[:0]
	resumes := 0
	for _, t := range on {
		switch t.state {
		case TaskMustSuspend:
			if !t.signalled {
				t.signalled = true
				actions = append(actions, Action{Kind: ActionSuspend, Attempt: t.attempt})
			}
		case TaskMustResume:
			if !t.signalled {
				t.signalled = true
				resumes++
				actions = append(actions, Action{Kind: ActionResume, Attempt: t.attempt})
			}
		case TaskKilled:
			if !t.signalled {
				t.signalled = true
				actions = append(actions, Action{Kind: ActionKill, Attempt: t.attempt, Cleanup: true})
				if t.killRequeue {
					// Rescheduled from scratch after the preempting task:
					// back to the pending queue with progress lost.
					jt.requeue(t)
				}
			}
		}
	}

	// The command scan above signalled every outstanding command for this
	// tracker, so its dirty flag can drop. Cleared before step 4: Assign
	// may issue new commands (ResumeTask) that must re-dirty it.
	if tt != nil {
		tt.jtCmdDirty = false
	}

	// 4. New assignments from the scheduler. Resumes issued above consume
	// slots on execution, so they reduce what the scheduler may fill.
	free := status.FreeMapSlots - resumes
	if free < 0 {
		free = 0
	}
	info := TaskTrackerInfo{
		Name:         status.TaskTracker,
		FreeMapSlots: free,
	}
	if tt != nil {
		info.Node = string(tt.node)
		// Requeues in step 3 moved tasks to TaskPending, which the state
		// filter below excludes — same result as recomputing tasksOn.
		susp := jt.suspScratch[:0]
		for _, t := range on {
			if t.state == TaskSuspended || t.state == TaskMustResume {
				susp = append(susp, t.id)
			}
		}
		jt.suspScratch = susp
		info.SuspendedTasks = susp
	}
	for _, a := range jt.scheduler.Assign(info) {
		t, ok := jt.tasks[a.Task]
		if !ok {
			continue
		}
		if t.state != TaskPending || free <= 0 {
			continue
		}
		free--
		t.attempts++
		if i := t.pos(); i >= t.job.startHi {
			t.job.startHi = i + 1
		}
		t.attempt = AttemptID{Task: t.id, Attempt: t.attempts}
		t.tracker, t.tt = status.TaskTracker, tt
		t.progress = 0
		if t.attempts == 1 {
			t.firstLaunchAt = now
		}
		actions = append(actions, Action{Kind: ActionLaunch, Attempt: t.attempt})
		jt.setTaskState(t, TaskRunning)
		if t.job.state == JobPending {
			jt.setJobState(t.job, JobRunning)
		}
	}
	jt.actionScratch = actions
	return actions
}

// tasksOn returns live tasks whose current attempt is on the tracker, in
// deterministic order. For registered trackers (tt, nil for others) the
// sorted list is cached and invalidated incrementally on task state
// changes (noteTaskTransition), so back-to-back heartbeats with unchanged
// task state skip the job walk and the sort. The returned slice is valid
// until the next call or state change.
func (jt *JobTracker) tasksOn(tracker string, tt *TaskTracker) []*Task {
	if tt != nil && tt.jtOnValid {
		return tt.jtOn
	}
	out := jt.onScratch[:0]
	for _, j := range jt.jobList {
		if j.inState[TaskRunning]+j.inState[TaskMustSuspend]+j.inState[TaskSuspended]+
			j.inState[TaskMustResume]+j.inState[TaskKilled] == 0 {
			continue // no task of this job can be on any tracker
		}
		for _, t := range j.tasks {
			if t.tracker == tracker && (t.state.Live() || t.state == TaskKilled) {
				out = append(out, t)
			}
		}
	}
	if len(out) > 1 {
		slices.SortFunc(out, func(a, b *Task) int { return compareTaskIDs(a.id, b.id) })
	}
	jt.onScratch = out
	if tt != nil {
		tt.jtOn = append(tt.jtOn[:0], out...)
		tt.jtOnValid = true
		return tt.jtOn
	}
	return out
}

// allJobsTerminal reports whether every submitted job reached a terminal
// state. The cluster run loop calls it between every pair of events.
func (jt *JobTracker) allJobsTerminal() bool {
	return jt.liveJobs == 0
}

// requeue returns a killed task to the pending queue, losing its work.
func (jt *JobTracker) requeue(t *Task) {
	t.progress = 0
	jt.setTaskState(t, TaskPending)
}

// attemptCompleted handles a successful attempt report.
func (jt *JobTracker) attemptCompleted(aid AttemptID) {
	t, ok := jt.tasks[aid.Task]
	if !ok || t.attempt != aid || t.state.Terminal() {
		return
	}
	// The paper notes the race: a task may complete between the suspend
	// command and its acknowledgement; completion wins.
	t.progress = 1
	t.completedAt = jt.eng.Now()
	jt.setTaskState(t, TaskSucceeded)
	jt.checkJobCompletion(t.job)
}

// attemptFailed handles a failed attempt (e.g. OOM kill).
func (jt *JobTracker) attemptFailed(aid AttemptID) {
	t, ok := jt.tasks[aid.Task]
	if !ok || t.attempt != aid || t.state.Terminal() {
		return
	}
	if t.state == TaskKilled && !t.killRequeue {
		return // deliberate terminal kill
	}
	if t.attempts >= jt.cfg.MaxTaskAttempts {
		jt.setTaskState(t, TaskFailed)
		jt.setJobState(t.job, JobFailed)
		return
	}
	jt.requeue(t)
}

// noteWasted records CPU time lost when an attempt was killed.
func (jt *JobTracker) noteWasted(id TaskID, cpu time.Duration) {
	if t, ok := jt.tasks[id]; ok {
		t.wastedWork += cpu
	}
}

// noteSwap accumulates an attempt's paging traffic into the task record
// (Figure 4 plots the bytes swapped by the process executing tl).
func (jt *JobTracker) noteSwap(id TaskID, out, in int64) {
	if t, ok := jt.tasks[id]; ok {
		t.swapOutBytes += out
		t.swapInBytes += in
	}
}

// noteResident records the last observed resident set of the task's
// process, used by memory-aware eviction policies.
func (jt *JobTracker) noteResident(id TaskID, bytes int64) {
	if t, ok := jt.tasks[id]; ok {
		t.residentBytes = bytes
	}
}

// noteCleanup forwards cleanup spans to listeners.
func (jt *JobTracker) noteCleanup(id TaskID, tracker string, start, end time.Duration) {
	for _, l := range jt.listeners {
		l.CleanupSpan(id, tracker, start, end)
	}
}

// checkJobCompletion promotes a job to SUCCEEDED when all tasks are done.
func (jt *JobTracker) checkJobCompletion(j *Job) {
	if j.inState[TaskSucceeded] == len(j.tasks) {
		jt.setJobState(j, JobSucceeded)
	}
}
