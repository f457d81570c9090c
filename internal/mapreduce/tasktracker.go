package mapreduce

import (
	"fmt"
	"sync"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/hdfs"
	"hadooppreempt/internal/ossim"
	"hadooppreempt/internal/sim"
)

// rpcDelay models the cost of a heartbeat RPC exchange.
const rpcDelay = 10 * time.Millisecond

// TaskTracker runs task attempts as child processes of its node's OS and
// exchanges heartbeats with the JobTracker.
type TaskTracker struct {
	eng    *sim.Engine
	jt     *JobTracker
	cfg    *EngineConfig
	name   string
	node   hdfs.NodeID
	kernel *ossim.Kernel
	device *disk.Device
	fs     *hdfs.FileSystem

	mapSlots  int
	slotsUsed int

	// attempts holds live attempts sorted by attempt id. A tracker runs at
	// most a few attempts (slots + suspended), so a sorted slice beats a
	// map: heartbeats iterate it in order directly and lookups are a short
	// linear scan instead of hashing an AttemptID.
	attempts  []*liveAttempt
	completed []AttemptID
	failed    []AttemptID

	hbTimer    sim.Timer
	started    bool
	nextStream disk.StreamID
	heartbeats int
	// heartbeatFn is tt.heartbeat bound once; passing a method value to
	// Schedule allocates a fresh closure per call, and heartbeats are the
	// engine's hottest event.
	heartbeatFn func()

	// reports is reused across heartbeats (the JobTracker does not retain
	// it).
	reports []AttemptReport

	// Program shells recycled across attempts. A program dies with its
	// process and never escapes the tracker, so the state machines can be
	// reused instead of allocated per attempt.
	mapProgFree     []*mapProgram
	redProgFree     []*reduceProgram
	cleanupProgFree []*cleanupProgram

	// Quiescence bookkeeping, owned by the JobTracker (stored here to
	// avoid a parallel per-tracker table). jtCmdDirty is set when a task
	// on this tracker enters a command state (MUST_SUSPEND, MUST_RESUME,
	// KILLED) and cleared once a heartbeat's command scan has drained it.
	// jtSuspended counts tasks in {SUSPENDED, MUST_RESUME} whose attempt
	// lives here (resume locality makes these tracker-bound). jtOn caches
	// the sorted tasksOn list; jtOnValid is dropped on any state change
	// of a task bound to this tracker.
	jtCmdDirty  bool
	jtSuspended int
	jtOn        []*Task
	jtOnValid   bool
}

// liveAttempt is a task attempt with a live process on this tracker.
type liveAttempt struct {
	id   AttemptID
	task *Task // JobTracker-side record, resolved once at launch
	proc *ossim.Process
	// rt points at rtVal; embedding the runtime saves an allocation per
	// attempt.
	rt        *taskRuntime
	rtVal     taskRuntime
	prog      ossim.Program
	suspended bool
	// killed marks a TT-initiated SIGKILL whose exit must not be reported
	// as a failure.
	killed bool
	// suspendAckDelay is how long the SIGTSTP handler takes (closing
	// external connections); the slot frees and the suspension is
	// acknowledged only after it completes.
	suspendAckDelay time.Duration
}

// NewTaskTracker creates and registers a tracker for the given node.
func NewTaskTracker(jt *JobTracker, name string, node hdfs.NodeID, kernel *ossim.Kernel,
	device *disk.Device, fs *hdfs.FileSystem, mapSlots int) (*TaskTracker, error) {
	if mapSlots <= 0 {
		return nil, fmt.Errorf("mapreduce: tracker %s needs at least one slot", name)
	}
	tt := ttPool.Get().(*TaskTracker)
	tt.eng, tt.jt, tt.cfg = jt.eng, jt, jt.cfg
	tt.name, tt.node = name, node
	tt.kernel, tt.device, tt.fs = kernel, device, fs
	tt.mapSlots = mapSlots
	tt.nextStream = disk.StreamID(1)
	if tt.heartbeatFn == nil {
		tt.heartbeatFn = tt.heartbeat
	}
	if err := jt.registerTracker(tt); err != nil {
		return nil, err
	}
	return tt, nil
}

// ttPool recycles TaskTracker shells released with release, keeping the
// attempt and report buffers warm across the cluster rebuilds of a sweep
// cell.
var ttPool = sync.Pool{New: func() any { return &TaskTracker{} }}

// release returns the tracker's buffers to a shared arena for reuse by a
// future NewTaskTracker. Called by Cluster.Close.
func (tt *TaskTracker) release() {
	tt.eng, tt.jt, tt.cfg = nil, nil, nil
	tt.kernel, tt.device, tt.fs = nil, nil, nil
	tt.slotsUsed = 0
	clear(tt.attempts)
	tt.attempts = tt.attempts[:0]
	clear(tt.completed)
	tt.completed = tt.completed[:0]
	clear(tt.failed)
	tt.failed = tt.failed[:0]
	clear(tt.reports)
	tt.reports = tt.reports[:0]
	tt.hbTimer = sim.Timer{}
	tt.started = false
	tt.heartbeats = 0
	tt.jtCmdDirty = false
	tt.jtSuspended = 0
	clear(tt.jtOn)
	tt.jtOn = tt.jtOn[:0]
	tt.jtOnValid = false
	ttPool.Put(tt)
}

// Name returns the tracker name.
func (tt *TaskTracker) Name() string { return tt.name }

// Node returns the HDFS node the tracker runs on.
func (tt *TaskTracker) Node() hdfs.NodeID { return tt.node }

// FreeMapSlots returns currently free map slots.
func (tt *TaskTracker) FreeMapSlots() int { return tt.mapSlots - tt.slotsUsed }

// Heartbeats returns the number of heartbeats sent.
func (tt *TaskTracker) Heartbeats() int { return tt.heartbeats }

// Start begins the heartbeat loop. The phase offset staggers trackers so
// they do not all report at the same instant.
func (tt *TaskTracker) Start(phase time.Duration) {
	if tt.started {
		return
	}
	tt.started = true
	if phase < 0 {
		phase = 0
	}
	tt.hbTimer = tt.eng.Schedule(phase, tt.heartbeatFn)
}

// requestOOBHeartbeat schedules an immediate out-of-band heartbeat, used
// when a slot frees up (task exit, suspension, cleanup completion).
func (tt *TaskTracker) requestOOBHeartbeat() {
	if !tt.cfg.OutOfBandHeartbeats || !tt.started {
		return
	}
	tt.hbTimer.Cancel()
	tt.hbTimer = tt.eng.Schedule(rpcDelay, tt.heartbeatFn)
}

// heartbeat performs one status/response exchange with the JobTracker and
// executes the piggybacked actions.
func (tt *TaskTracker) heartbeat() {
	tt.heartbeats++
	status := HeartbeatStatus{
		TaskTracker:  tt.name,
		tracker:      tt,
		FreeMapSlots: tt.mapSlots - tt.slotsUsed,
		Completed:    tt.completed,
		Failed:       tt.failed,
	}
	// The JobTracker consumes the completed/failed lists synchronously in
	// jt.Heartbeat below, so the backing arrays can be reused immediately.
	tt.completed = tt.completed[:0]
	tt.failed = tt.failed[:0]
	tt.reports = tt.reports[:0]
	for _, att := range tt.attempts {
		tt.reports = append(tt.reports, AttemptReport{
			Attempt:   att.id,
			Suspended: att.suspended,
			Progress:  att.rt.progress(),
			task:      att.task,
		})
		att.task.residentBytes = tt.kernel.Memory().ResidentBytes(att.proc.PID())
	}
	status.Attempts = tt.reports
	actions := tt.jt.Heartbeat(status)
	// Schedule the next regular heartbeat before executing actions, so an
	// action that frees a slot (suspend) can replace it with an immediate
	// out-of-band heartbeat.
	tt.hbTimer.Cancel()
	tt.hbTimer = tt.eng.Schedule(tt.cfg.HeartbeatInterval, tt.heartbeatFn)
	for _, a := range actions {
		tt.execute(a)
	}
}

// findAttempt returns the slice index of aid, or -1 if it is not live.
func (tt *TaskTracker) findAttempt(aid AttemptID) int {
	for i, att := range tt.attempts {
		if att.id == aid {
			return i
		}
	}
	return -1
}

// insertAttempt places att at its sorted (attempt id order) position.
func (tt *TaskTracker) insertAttempt(att *liveAttempt) {
	i := len(tt.attempts)
	tt.attempts = append(tt.attempts, att)
	for i > 0 && compareAttemptIDs(att.id, tt.attempts[i-1].id) < 0 {
		tt.attempts[i] = tt.attempts[i-1]
		i--
	}
	tt.attempts[i] = att
}

// removeAttempt deletes the attempt at index i, preserving order.
func (tt *TaskTracker) removeAttempt(i int) {
	tt.attempts = append(tt.attempts[:i], tt.attempts[i+1:]...)
}

// execute runs one piggybacked action.
func (tt *TaskTracker) execute(a Action) {
	switch a.Kind {
	case ActionLaunch:
		tt.launch(a.Attempt)
	case ActionSuspend:
		tt.suspend(a.Attempt)
	case ActionResume:
		tt.resume(a.Attempt)
	case ActionKill:
		tt.kill(a.Attempt, a.Cleanup)
	default:
		panic(fmt.Sprintf("mapreduce: unknown action kind %d", a.Kind))
	}
}

// launch spawns the child JVM for an attempt.
func (tt *TaskTracker) launch(aid AttemptID) {
	task, ok := tt.jt.Task(aid.Task)
	if !ok {
		return
	}
	conf := &task.job.conf // read-only after submit; no defensive copy
	att := &liveAttempt{id: aid, task: task}
	att.rt = &att.rtVal
	stream := tt.nextStream
	tt.nextStream++
	switch aid.Task.Type {
	case MapTask:
		mp := tt.getMapProg()
		initMapProgram(mp, tt.eng, tt.cfg, conf, tt.fs, tt.node, tt.device, task.block, att.rt, stream)
		att.prog = mp
	case ReduceTask:
		shuffle := tt.shuffleBytes(task.job)
		rp := tt.getRedProg()
		initReduceProgram(rp, tt.eng, tt.cfg, conf, tt.device, att.rt, stream, shuffle,
			tt.fs.Config().RackLocalBandwidth)
		att.prog = rp
	default:
		return
	}
	memBytes := conf.JVMBaseBytes + conf.ExtraMemoryBytes
	proc, err := tt.kernel.Spawn(aid.String(), memBytes, att.prog, func(p *ossim.Process, code int) {
		tt.attemptExited(att, code)
	})
	if err != nil {
		tt.recycleProg(att.prog)
		att.prog = nil
		tt.failed = append(tt.failed, aid)
		return
	}
	// §V-B: tasks with external state handle SIGTSTP (close connections
	// before stopping) and SIGCONT (reopen them before resuming) — the
	// reason the primitive uses SIGTSTP rather than the unhandleable
	// SIGSTOP.
	if n := conf.ExternalConnections; n > 0 {
		teardown := time.Duration(n) * tt.cfg.ConnectionTeardownCost
		setup := time.Duration(n) * tt.cfg.ConnectionSetupCost
		proc.Handle(ossim.SIGTSTP, func(*ossim.Process) time.Duration { return teardown })
		proc.Handle(ossim.SIGCONT, func(*ossim.Process) time.Duration { return setup })
		att.suspendAckDelay = teardown
	}
	att.proc = proc
	tt.insertAttempt(att)
	tt.slotsUsed++
}

// shuffleBytes computes a reduce task's input volume.
func (tt *TaskTracker) shuffleBytes(job *Job) int64 {
	var mapInput int64
	for _, t := range job.tasks {
		if t.id.Type == MapTask {
			mapInput += t.block.Size
		}
	}
	total := int64(float64(mapInput) * job.conf.MapOutputRatio)
	if job.conf.NumReduces <= 0 {
		return 0
	}
	return total / int64(job.conf.NumReduces)
}

// getMapProg pops a recycled map-program shell or allocates a fresh one.
func (tt *TaskTracker) getMapProg() *mapProgram {
	if n := len(tt.mapProgFree); n > 0 {
		mp := tt.mapProgFree[n-1]
		tt.mapProgFree = tt.mapProgFree[:n-1]
		return mp
	}
	return &mapProgram{}
}

// getRedProg pops a recycled reduce-program shell or allocates a fresh one.
func (tt *TaskTracker) getRedProg() *reduceProgram {
	if n := len(tt.redProgFree); n > 0 {
		rp := tt.redProgFree[n-1]
		tt.redProgFree = tt.redProgFree[:n-1]
		return rp
	}
	return &reduceProgram{}
}

// recycleProg returns an attempt's program shell to the tracker freelist.
// Safe once the owning process has exited: the kernel never calls Next on
// an exited process, so nothing reads the shell again.
func (tt *TaskTracker) recycleProg(prog ossim.Program) {
	switch p := prog.(type) {
	case *mapProgram:
		*p = mapProgram{} // drop engine/fs references while parked
		tt.mapProgFree = append(tt.mapProgFree, p)
	case *reduceProgram:
		*p = reduceProgram{}
		tt.redProgFree = append(tt.redProgFree, p)
	}
}

// attemptExited handles child process termination.
func (tt *TaskTracker) attemptExited(att *liveAttempt, code int) {
	if att.prog != nil {
		tt.recycleProg(att.prog)
		att.prog = nil
	}
	i := tt.findAttempt(att.id)
	if i < 0 {
		return // already handled (e.g. kill path removed it)
	}
	tt.removeAttempt(i)
	ms := att.proc.MemoryStats()
	tt.jt.noteSwap(att.id.Task, ms.PagedOutBytes, ms.PagedInBytes)
	if att.killed {
		// TT-initiated kill: the JobTracker already moved the task; the
		// slot is handed to the cleanup attempt by kill().
		return
	}
	if !att.suspended {
		tt.slotsUsed--
	}
	if code == ossim.ExitOK {
		tt.completed = append(tt.completed, att.id)
	} else {
		tt.failed = append(tt.failed, att.id)
	}
	tt.requestOOBHeartbeat()
}

// suspend delivers SIGTSTP and frees the slot; the suspension is
// acknowledged on the next heartbeat (out-of-band, so the freed slot is
// visible quickly). Tasks with external connections delay the slot
// release until their SIGTSTP handler has closed them.
func (tt *TaskTracker) suspend(aid AttemptID) {
	i := tt.findAttempt(aid)
	if i < 0 || tt.attempts[i].suspended {
		return
	}
	att := tt.attempts[i]
	if err := tt.kernel.Signal(att.proc.PID(), ossim.SIGTSTP); err != nil {
		return
	}
	finish := func() {
		if tt.findAttempt(aid) < 0 || att.killed || att.suspended {
			return
		}
		att.suspended = true
		tt.slotsUsed--
		tt.requestOOBHeartbeat()
	}
	if att.suspendAckDelay > 0 {
		tt.eng.Schedule(att.suspendAckDelay, finish)
		return
	}
	finish()
}

// resume delivers SIGCONT, taking a slot again.
func (tt *TaskTracker) resume(aid AttemptID) {
	i := tt.findAttempt(aid)
	if i < 0 || !tt.attempts[i].suspended {
		return
	}
	att := tt.attempts[i]
	if err := tt.kernel.Signal(att.proc.PID(), ossim.SIGCONT); err != nil {
		return
	}
	att.suspended = false
	tt.slotsUsed++
	tt.requestOOBHeartbeat()
}

// kill delivers SIGKILL and runs the cleanup attempt that removes the
// killed task's temporary output, occupying the slot for CleanupCost.
func (tt *TaskTracker) kill(aid AttemptID, cleanup bool) {
	i := tt.findAttempt(aid)
	if i < 0 {
		return
	}
	att := tt.attempts[i]
	att.killed = true
	tt.jt.noteWasted(aid.Task, att.proc.CPUTime())
	ms := att.proc.MemoryStats()
	tt.jt.noteSwap(aid.Task, ms.PagedOutBytes, ms.PagedInBytes)
	wasSuspended := att.suspended
	tt.removeAttempt(i)
	if err := tt.kernel.Signal(att.proc.PID(), ossim.SIGKILL); err != nil {
		return
	}
	if !cleanup {
		if !wasSuspended {
			tt.slotsUsed--
		}
		tt.requestOOBHeartbeat()
		return
	}
	// The cleanup attempt takes over the slot (or claims one if the
	// victim was suspended and held none).
	if wasSuspended {
		tt.slotsUsed++
	}
	start := tt.eng.Now()
	var prog *cleanupProgram
	if n := len(tt.cleanupProgFree); n > 0 {
		prog = tt.cleanupProgFree[n-1]
		tt.cleanupProgFree = tt.cleanupProgFree[:n-1]
		*prog = cleanupProgram{cfg: tt.cfg}
	} else {
		prog = &cleanupProgram{cfg: tt.cfg}
	}
	_, err := tt.kernel.Spawn("cleanup_"+aid.String(), 16<<20, prog, func(p *ossim.Process, code int) {
		prog.cfg = nil
		tt.cleanupProgFree = append(tt.cleanupProgFree, prog)
		tt.slotsUsed--
		tt.jt.noteCleanup(aid.Task, tt.name, start, tt.eng.Now())
		tt.requestOOBHeartbeat()
	})
	if err != nil {
		prog.cfg = nil
		tt.cleanupProgFree = append(tt.cleanupProgFree, prog)
		tt.slotsUsed--
		tt.requestOOBHeartbeat()
	}
}
