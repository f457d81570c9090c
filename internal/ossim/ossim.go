// Package ossim models the node operating system: processes, POSIX-style
// signals, CPU scheduling and the interaction with the memory manager.
//
// Map and Reduce tasks in Hadoop 1 are ordinary Unix processes (child JVMs
// spawned by the TaskTracker), so the paper's preemption primitive is
// "just" process control: SIGTSTP stops the process, SIGCONT resumes it,
// and the memory manager transparently pages its state in and out. This
// package provides exactly that machinery in simulated form:
//
//   - a Process executes a Program, a sequence of operations combining CPU
//     work, memory touches and disk I/O;
//   - SIGTSTP runs an optional handler (e.g. closing network connections)
//     and stops the process, clearing its pages' referenced bits;
//   - SIGCONT resumes execution where it left off; swapped pages fault
//     back in lazily as the program touches them;
//   - SIGKILL terminates immediately, releasing memory;
//   - runnable processes share the node's cores proportionally.
//
// An op that waits and then computes costs the simulation two events: the
// end of its latency and the end of its compute. While a node has no more
// processes than cores nobody shares a core, so such an op runs as one
// chained event (sim.Engine.Chain) and costs one dispatch. Whatever could
// tell the difference (a signal, an exit, a spawn past the core count)
// first turns the chain back into the two-event form.
//
// An op costs no dispatch at all when nothing could watch it: if it starts
// at the end of one of its process's own events, would compute at full
// speed, and would end before anything else is due, the process completes
// it inline (sim.Engine.Advance) and goes on to the next. A process alone
// on its node thus runs back to back until something else is due. Signals
// never run a process ahead, since their callers go on after them.
//
// A program states a region it touches chunk by chunk as one op (Op.Chunk),
// which the kernel runs one chunk at a time. A stretch of those chunks
// costs no more than one: on the inline path the kernel completes the
// chunks of a memory-only op (a touch and a compute, no sleep, no I/O)
// together, with one Touch over their union and one Advance to the last
// one's end. With no reclaim and no swap read nothing reaches the disk: a
// chunk's latency is then its untouched pages times the minor-fault cost,
// and one Touch leaves the memory manager as the chunks' touches would. So
// the stretch is cut before the first chunk that would touch a swapped
// page, fault more pages than were free when it began, or end past the
// bound Advance accepts (sim.Engine.Horizon). A stretch ends with its op,
// since the kernel never calls Next ahead: a program's next op may read a
// file, filling the page cache. Weighing a stretch costs the memory
// manager one query where its pages are all untouched or all resident and
// its chunks whole pages from a page boundary, as a task's heap and state
// are: every chunk then faults alike, and the kernel counts how many fit.
// Elsewhere it asks chunk by chunk.
package ossim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/sim"
)

// Signal is a POSIX-style signal number (only the ones the preemption
// primitive needs).
type Signal int

// The signals used by the preemption primitives, mirroring §III-B.
const (
	// SIGTSTP politely stops the process. Unlike SIGSTOP it can be
	// handled, which lets tasks manage external state before stopping.
	SIGTSTP Signal = iota + 1
	// SIGCONT resumes a stopped process.
	SIGCONT
	// SIGKILL terminates the process immediately.
	SIGKILL
	// SIGTERM requests termination; the default action terminates.
	SIGTERM
)

// String returns the conventional signal name.
func (s Signal) String() string {
	switch s {
	case SIGTSTP:
		return "SIGTSTP"
	case SIGCONT:
		return "SIGCONT"
	case SIGKILL:
		return "SIGKILL"
	case SIGTERM:
		return "SIGTERM"
	default:
		return fmt.Sprintf("Signal(%d)", int(s))
	}
}

// State is the lifecycle state of a process.
type State int

// Process states.
const (
	// StateRunning means the process is executing (or ready to execute)
	// its program.
	StateRunning State = iota + 1
	// StateStopped means the process received SIGTSTP and is suspended.
	StateStopped
	// StateExited means the process terminated.
	StateExited
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Exit codes reported via the OnExit callback.
const (
	// ExitOK is a normal exit.
	ExitOK = 0
	// ExitKilled is the conventional 128+SIGKILL code.
	ExitKilled = 137
	// ExitOOM marks a process killed because its memory access could not
	// be satisfied.
	ExitOOM = 138
)

// ErrNoSuchProcess is returned when signalling an unknown or exited pid.
var ErrNoSuchProcess = errors.New("ossim: no such process")

// MemOp describes a memory access performed by an operation.
type MemOp struct {
	// Offset and Length delimit the touched range of the address space.
	Offset int64
	Length int64
	// Write dirties the pages.
	Write bool
}

// IOOp describes a disk transfer performed by an operation.
type IOOp struct {
	Device *disk.Device
	Kind   disk.Kind
	Bytes  int64
	Stream disk.StreamID
}

// Op is one step of a Program. The kernel first waits for the fixed
// latencies (Sleep, memory faults, disk I/O), then performs Compute worth
// of CPU work at the process's share of the node's cores.
type Op struct {
	// Label names the op for a reader of the program, such as a test that
	// steps through it; the kernel ignores it.
	Label string
	// Sleep is a fixed latency (e.g. process startup, RPC wait).
	Sleep time.Duration
	// Mem, if non-nil, touches memory; page faults add latency.
	Mem *MemOp
	// IO, if non-nil, performs a disk transfer; queueing adds latency.
	IO *IOOp
	// Compute is pure CPU work at full speed on one core.
	Compute time.Duration
	// Chunk, if positive and Mem is set, runs the op as a series of ops,
	// one per Chunk bytes of Mem (and at least one), as if Next had
	// returned each in turn with Mem narrowed to its bytes; the last, if
	// shorter than Chunk, computes LastCompute in place of Compute.
	Chunk       int64
	LastCompute time.Duration
	// Done marks program completion; remaining fields are ignored except
	// ExitCode.
	Done bool
	// ExitCode is the exit status when Done.
	ExitCode int
}

// Program generates the operations of a process. Next is called once per
// step and must fully assign *op (typically `*op = Op{...}`); setting
// op.Done terminates the process. The out-parameter style keeps the
// per-operation hot path free of struct copies and allocations.
type Program interface {
	Next(p *Process, op *Op)
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(p *Process, op *Op)

// Next implements Program.
func (f ProgramFunc) Next(p *Process, op *Op) { f(p, op) }

type phase int

const (
	phaseIdle    phase = iota // between operations
	phaseLatency              // waiting out fixed latency
	phaseCompute              // CPU work in progress
	phaseChain                // latency then compute, as one chained event
)

// chainOps lets ops run as one chained event, inlineOps lets a process
// complete ops inline, and stretchOps lets it complete a stretch of chunks
// at once; tests switch them off to compare against the other forms.
var chainOps, inlineOps, stretchOps = true, true, true

// stretchSeen, if set, is told of every stretch the kernel weighs, before
// it runs it: how many chunks it holds (fewer than two run as single ops)
// and how many of them it counted at once, without a query each.
var stretchSeen func(p *Process, n, counted int)

// Process is a simulated OS process.
type Process struct {
	pid    memory.PID
	name   string
	kernel *Kernel
	prog   Program
	state  State

	phase            phase
	timer            sim.Timer
	pendingCompute   time.Duration // compute part of the op being latency-waited
	computeRemaining time.Duration // remaining CPU work of current compute phase
	speed            float64       // current share of a core
	speedSetAt       time.Duration // in phaseChain: the hop, where compute starts
	stopAfterLatency bool
	// entered is the sequence number of the compute timer queued when the
	// process last entered the compute set; the set is in entry order.
	entered uint64

	handlers map[Signal]func(*Process) time.Duration
	onExit   func(*Process, int)

	// latencyDoneFn and computeDoneFn are bound once at spawn so the hot
	// scheduling paths (rebalance, runNextOp) reuse them instead of
	// allocating a fresh closure per reschedule. A chain completes through
	// computeDoneFn.
	latencyDoneFn func()
	computeDoneFn func()

	// op is the reusable buffer the program fills on each step, and done
	// the bytes of a chunked op's Mem run so far.
	op   Op
	done int64

	createdAt   time.Duration
	exitedAt    time.Duration
	exitCode    int
	cpuTime     time.Duration
	stoppedAt   time.Duration
	stoppedTime time.Duration
	stops       int
	conts       int
	// memStats is the address space's paging counters, captured at exit
	// (the space itself is released then).
	memStats memory.SpaceStats
}

// MemoryStats returns the process's paging counters: live values while the
// process runs, the final snapshot after it exits.
func (p *Process) MemoryStats() memory.SpaceStats {
	if p.state != StateExited {
		if s := p.kernel.mem.Space(p.pid); s != nil {
			return s.Stats()
		}
	}
	return p.memStats
}

// PID returns the process identifier.
func (p *Process) PID() memory.PID { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Process) State() State { return p.state }

// ExitCode returns the exit status (valid once exited).
func (p *Process) ExitCode() int { return p.exitCode }

// CPUTime returns the accumulated CPU time consumed. Work since the last
// settle is accounted lazily: the kernel's rebalance fast path defers
// banking for processes running at an unchanged full-speed share, and a
// chained op computes at full speed from its hop.
func (p *Process) CPUTime() time.Duration {
	t := p.cpuTime
	elapsed := p.kernel.eng.Now() - p.speedSetAt
	switch {
	case elapsed <= 0:
	case p.phase == phaseCompute:
		t += min(time.Duration(float64(elapsed)*p.speed), p.computeRemaining)
	case p.phase == phaseChain:
		t += min(elapsed, p.pendingCompute)
	}
	return t
}

// StoppedTime returns total time spent in StateStopped (including the
// current stop, if stopped now).
func (p *Process) StoppedTime() time.Duration {
	t := p.stoppedTime
	if p.state == StateStopped {
		t += p.kernel.eng.Now() - p.stoppedAt
	}
	return t
}

// Stops and Conts report how many suspend/resume cycles the process saw.
func (p *Process) Stops() int { return p.stops }

// Conts reports the number of SIGCONT deliveries that resumed the process.
func (p *Process) Conts() int { return p.conts }

// Handle registers a signal handler. The handler runs before the default
// action and its returned duration is added as latency (e.g. closing
// network connections on SIGTSTP). Only SIGTSTP, SIGCONT and SIGTERM can
// be handled; SIGKILL cannot, as in POSIX.
func (p *Process) Handle(sig Signal, fn func(*Process) time.Duration) error {
	if sig == SIGKILL {
		return fmt.Errorf("ossim: SIGKILL cannot be caught")
	}
	if p.handlers == nil {
		p.handlers = make(map[Signal]func(*Process) time.Duration)
	}
	p.handlers[sig] = fn
	return nil
}

// Kernel is the operating system of one simulated node.
type Kernel struct {
	eng   *sim.Engine
	name  string
	cores int
	mem   *memory.Manager

	procs   map[memory.PID]*Process
	nextPID memory.PID
	// active lists processes in phaseCompute in insertion order; a slice
	// keeps rebalance iteration deterministic and allocation-free. While it
	// holds no more processes than cores, every one runs at speed 1 with a
	// pending completion timer, and membership changes need no rebalance
	// walk: a leaver cannot raise anyone's share and an entrant that keeps
	// the set within the cores only needs its own timer.
	active []*Process
	// chains counts processes in phaseChain. They exist only while the
	// kernel has no more processes than cores, and a chain that has hopped
	// is computing without being in active.
	chains int
	// oomFn is the oomKill method value, bound once per kernel shell so
	// re-installing the OOM handler on reuse does not allocate.
	oomFn func()
}

// NewKernel creates a node OS with the given core count and memory
// manager. The kernel installs itself as the memory manager's OOM handler:
// on OOM it kills the process with the largest resident set.
func NewKernel(eng *sim.Engine, name string, cores int, mem *memory.Manager) *Kernel {
	if cores <= 0 {
		panic("ossim: cores must be positive")
	}
	k := kernelPool.Get().(*Kernel)
	k.eng, k.name, k.cores, k.mem = eng, name, cores, mem
	k.nextPID = 1
	if k.procs == nil {
		k.procs = make(map[memory.PID]*Process)
	}
	if k.oomFn == nil {
		k.oomFn = k.oomKill
	}
	mem.SetOOMHandler(k.oomFn)
	return k
}

// kernelPool recycles Kernel shells released with Release, keeping the
// process table warm across the cluster rebuilds of a sweep cell.
var kernelPool = sync.Pool{New: func() any { return &Kernel{} }}

// Release returns the kernel's internal storage to a shared arena for reuse
// by a future NewKernel. The kernel and its processes must not be used
// afterwards.
func (k *Kernel) Release() {
	clear(k.procs)
	clear(k.active)
	k.active = k.active[:0]
	k.chains = 0
	k.eng, k.mem = nil, nil
	kernelPool.Put(k)
}

// Name returns the node name.
func (k *Kernel) Name() string { return k.name }

// Cores returns the CPU count.
func (k *Kernel) Cores() int { return k.cores }

// Memory returns the node's memory manager.
func (k *Kernel) Memory() *memory.Manager { return k.mem }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Processes returns the live (non-exited) process count.
func (k *Kernel) Processes() int { return len(k.procs) }

// Process looks up a live process by pid.
func (k *Kernel) Process(pid memory.PID) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Spawn creates a process with an address space of memBytes and starts
// executing prog. onExit (optional) fires when the process terminates for
// any reason.
func (k *Kernel) Spawn(name string, memBytes int64, prog Program, onExit func(*Process, int)) (*Process, error) {
	pid := k.nextPID
	k.nextPID++
	if _, err := k.mem.Register(pid, memBytes); err != nil {
		return nil, fmt.Errorf("ossim: spawn %s: %w", name, err)
	}
	p := &Process{
		pid:       pid,
		name:      name,
		kernel:    k,
		prog:      prog,
		state:     StateRunning,
		onExit:    onExit,
		createdAt: k.eng.Now(),
		speed:     1,
	}
	p.latencyDoneFn = func() { k.latencyDone(p) }
	p.computeDoneFn = func() { k.computeDone(p) }
	k.procs[pid] = p
	if k.chains > 0 && len(k.procs) > k.cores {
		// The newcomer may soon share a core: every chain becomes two
		// events again.
		for _, q := range k.procs {
			k.unchain(q)
		}
	}
	// Start executing on the next event so the caller finishes its own
	// bookkeeping first.
	k.eng.Schedule(0, func() {
		if p.state == StateRunning && p.phase == phaseIdle {
			k.runNextOp(p, true)
		}
	})
	return p, nil
}

// Signal delivers sig to pid.
func (k *Kernel) Signal(pid memory.PID, sig Signal) error {
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNoSuchProcess, pid)
	}
	k.unchain(p)
	var handlerLatency time.Duration
	if h := p.handlers[sig]; h != nil {
		handlerLatency = h(p)
	}
	switch sig {
	case SIGTSTP:
		k.stop(p, handlerLatency)
	case SIGCONT:
		k.cont(p, handlerLatency)
	case SIGKILL:
		k.exit(p, ExitKilled)
	case SIGTERM:
		if p.handlers[sig] == nil {
			k.exit(p, ExitKilled)
		}
		// A handled SIGTERM is the handler's business; default action
		// suppressed.
	default:
		return fmt.Errorf("ossim: unsupported signal %v", sig)
	}
	return nil
}

// stop implements the SIGTSTP default action.
func (k *Kernel) stop(p *Process, handlerLatency time.Duration) {
	if p.state != StateRunning {
		return
	}
	switch p.phase {
	case phaseCompute:
		k.leaveCompute(p)
		p.timer.Cancel()
		p.timer = sim.Timer{}
		p.pendingCompute = p.computeRemaining
		p.computeRemaining = 0
	case phaseLatency:
		// A process blocked on I/O handles the signal when the operation
		// completes.
		p.stopAfterLatency = true
		p.markStopped(handlerLatency)
		return
	case phaseIdle:
		// Between ops (only transiently possible at spawn time).
	}
	p.phase = phaseIdle
	p.markStopped(handlerLatency)
	if handlerLatency > 0 {
		// The handler's work (e.g. closing connections) delays the actual
		// stop; model it as extending the moment the pages go cold.
		k.eng.Schedule(handlerLatency, func() {
			if p.state == StateStopped {
				k.mem.MarkStopped(p.pid)
			}
		})
	} else {
		k.mem.MarkStopped(p.pid)
	}
}

func (p *Process) markStopped(handlerLatency time.Duration) {
	p.state = StateStopped
	p.stoppedAt = p.kernel.eng.Now() + handlerLatency
	if p.stoppedAt < p.kernel.eng.Now() {
		p.stoppedAt = p.kernel.eng.Now()
	}
	p.stops++
}

// cont implements the SIGCONT default action. handlerLatency delays the
// actual resumption of work — e.g. a handler re-establishing network
// connections (§V-B).
func (k *Kernel) cont(p *Process, handlerLatency time.Duration) {
	if p.state != StateStopped {
		return
	}
	p.state = StateRunning
	now := k.eng.Now()
	if p.stoppedAt < now {
		p.stoppedTime += now - p.stoppedAt
	}
	p.conts++
	k.mem.MarkRunning(p.pid)
	if p.stopAfterLatency {
		// Still waiting out an I/O completion; it will proceed on its own.
		p.stopAfterLatency = false
		return
	}
	if handlerLatency > 0 {
		// Park the saved compute (possibly zero) behind the handler's
		// work; latencyDone picks it up.
		p.phase = phaseLatency
		p.timer = k.eng.Schedule(handlerLatency, p.latencyDoneFn)
		return
	}
	if p.pendingCompute > 0 {
		d := p.pendingCompute
		p.pendingCompute = 0
		k.startCompute(p, d)
		return
	}
	if p.phase == phaseIdle {
		k.runNextOp(p, false)
	}
}

// exit terminates a process.
func (k *Kernel) exit(p *Process, code int) {
	if p.state == StateExited {
		return
	}
	k.unchain(p)
	if p.phase == phaseCompute {
		k.leaveCompute(p)
	}
	p.timer.Cancel()
	p.timer = sim.Timer{}
	if p.state == StateStopped && p.stoppedAt < k.eng.Now() {
		p.stoppedTime += k.eng.Now() - p.stoppedAt
	}
	p.state = StateExited
	p.phase = phaseIdle
	p.exitedAt = k.eng.Now()
	p.exitCode = code
	if s := k.mem.Space(p.pid); s != nil {
		p.memStats = s.Stats()
	}
	k.mem.Unregister(p.pid)
	delete(k.procs, p.pid)
	if p.onExit != nil {
		// Deliver asynchronously, like SIGCHLD.
		k.eng.Schedule(0, func() { p.onExit(p, code) })
	}
}

// oomKill implements the kernel OOM killer: the victim is the live process
// with the largest resident set. Ties go to the larger pid, the newer
// process: Linux's oom_evaluate_task visits processes oldest first and
// keeps the last of equal scores. Without the tie-break the victim would
// follow the process map's random iteration order.
func (k *Kernel) oomKill() {
	var victim *Process
	var max int64 = -1
	for _, p := range k.procs {
		if r := k.mem.ResidentBytes(p.pid); r > max || (r == max && p.pid > victim.pid) {
			max = r
			victim = p
		}
	}
	if victim != nil {
		k.exit(victim, ExitOOM)
	}
}

// runNextOp pulls and executes the next operations of p, and walks a
// chunked op one chunk at a time. With ahead set, the caller is one of p's
// own events (the start event, an op's latency or compute completion) and
// returns right after this call, so an op that nobody could watch may
// complete inline: if it would compute at full speed and its end would be
// the next event dispatched, the clock moves there (sim.Engine.Advance),
// its CPU time is banked and the next op follows, or a whole stretch of a
// memory-only op's chunks does (runStretch). A process thus runs back to
// back until something else is due. A signal's caller goes on after
// runNextOp returns, so cont never passes ahead.
func (k *Kernel) runNextOp(p *Process, ahead bool) {
	op := &p.op
	for p.state == StateRunning {
		if op.Chunk <= 0 || op.Mem == nil || p.done >= op.Mem.Length {
			p.prog.Next(p, op)
			p.done = 0
			if op.Done {
				k.exit(p, op.ExitCode)
				return
			}
		}
		if ahead && inlineOps && stretchOps && op.Chunk > 0 && op.Mem != nil && op.Sleep == 0 && op.IO == nil &&
			k.runStretch(p, op) {
			continue
		}
		latency, compute := op.Sleep, op.Compute
		if op.Mem != nil {
			offset, length := op.Mem.Offset, op.Mem.Length
			if op.Chunk > 0 {
				offset, length = offset+p.done, min(op.Chunk, length-p.done)
				p.done += length
				if length < op.Chunk {
					compute = op.LastCompute
				}
			}
			d, err := k.mem.Touch(p.pid, offset, length, op.Mem.Write)
			latency += d
			if err != nil {
				if errors.Is(err, memory.ErrOutOfMemory) {
					// The faulting process may itself have been chosen by
					// the OOM killer while touching.
					if p.state != StateExited {
						k.exit(p, ExitOOM)
					}
					return
				}
				panic(fmt.Sprintf("ossim: program of %s touched invalid memory: %v", p.name, err))
			}
			if p.state == StateExited {
				// The OOM killer fired during the touch and chose us.
				return
			}
		}
		if op.IO != nil {
			done := op.IO.Device.Submit(op.IO.Kind, op.IO.Bytes, op.IO.Stream)
			if wait := done - k.eng.Now(); wait > 0 {
				latency += wait
			}
		}
		latency = max(latency, 0)
		compute = max(compute, 0)
		if latency == 0 && compute == 0 {
			continue
		}
		if ahead && inlineOps && k.completeInline(latency, compute) {
			p.cpuTime += compute
			continue
		}
		if latency == 0 {
			k.startCompute(p, compute)
			return
		}
		p.pendingCompute = compute
		if compute > 0 && chainOps && len(k.procs) <= k.cores {
			// Nobody can share a core before this op ends, so its compute
			// starts at the hop at full speed, as startCompute's fast
			// path would start it.
			p.phase = phaseChain
			p.speedSetAt = k.eng.Now() + latency
			p.timer = k.eng.Chain(latency, compute, p.computeDoneFn)
			k.chains++
			return
		}
		p.phase = phaseLatency
		p.timer = k.eng.Schedule(latency, p.latencyDoneFn)
		return
	}
}

// completeInline moves the clock to the end of an op of latency and
// compute (not both zero) if that end would be the next event dispatched
// and its compute would run at full speed without a rebalance, that is,
// where startCompute's fast path would take it. It reports whether it did.
func (k *Kernel) completeInline(latency, compute time.Duration) bool {
	if compute > 0 && len(k.active) >= k.cores {
		return false
	}
	return k.eng.Advance(k.eng.Now()+latency+compute, opSeqs(latency, compute))
}

// opSeqs is the number of sequence numbers an op of latency and compute
// takes in the queued form: one for the latency wait (or a chain's
// creation) and one for the compute (or the chain's hop).
func opSeqs(latency, compute time.Duration) uint64 {
	var n uint64
	if latency > 0 {
		n++
	}
	if compute > 0 {
		n++
	}
	return n
}

// runStretch completes the next chunks of op, a memory-only chunked op in
// hand on the inline path, where each of them would complete inline in
// turn without reaching the disk: one Touch over their union, one Advance
// to the last one's end taking the sequence numbers they would take one by
// one, their CPU time banked and p's cursor moved past them. The stretch
// is cut before the first chunk that would touch a swapped page, fault
// more pages than were free when it began, or end past the bound Advance
// accepts; a full compute set runs none. Over pages all untouched or all
// resident, in whole-page chunks from a page boundary, one Untouched query
// finds the whole chunks alike and they are counted by arithmetic; the
// chunk a bound cuts, a shorter last chunk and every chunk elsewhere are
// asked about one at a time. It reports whether it ran a stretch; one of
// a single chunk is left to the caller.
func (k *Kernel) runStretch(p *Process, op *Op) bool {
	start, stop := op.Mem.Offset+p.done, op.Mem.Offset+op.Mem.Length
	if stop-start <= op.Chunk {
		return false
	}
	horizon, ok := k.eng.Horizon()
	ok = ok && len(k.active) < k.cores
	cfg := k.mem.Config()
	free := int(k.mem.FreeBytes() / cfg.PageSize)
	var (
		end       = k.eng.Now()
		cpu       time.Duration
		seqs      uint64
		faults, n int
	)
	// Each chunk faults the untouched pages of [lo, hi).
	lo, hi := start, start
	// Whole chunks over uniform pages all fault alike (none, or all their
	// pages): count those that fit before the horizon, the free frames
	// and the last whole chunk. The loop goes on from there.
	if ok && (start|op.Chunk)&(cfg.PageSize-1) == 0 {
		f, clean := k.mem.Untouched(p.pid, start, stop-start)
		if pages := (stop - start + cfg.PageSize - 1) / cfg.PageSize; clean && (f == 0 || int64(f) == pages) {
			per := 0 // pages each chunk faults
			if f > 0 {
				per = int(op.Chunk / cfg.PageSize)
			}
			latency, compute := max(time.Duration(per)*cfg.MinorFaultCost, 0), max(op.Compute, 0)
			n = int((stop - start) / op.Chunk)
			if step := latency + compute; step > 0 {
				n = min(n, int((horizon-end)/step))
			}
			if per > 0 {
				n = min(n, free/per)
			}
			end += time.Duration(n) * (latency + compute)
			cpu, faults = time.Duration(n)*compute, n*per
			seqs = uint64(n) * opSeqs(latency, compute)
			hi += int64(n) * op.Chunk
			lo = hi
		}
	}
	counted := n
	for ok && hi < stop {
		chunk, compute := min(op.Chunk, stop-hi), op.Compute
		if chunk < op.Chunk {
			compute = op.LastCompute
		}
		compute = max(compute, 0)
		if end+compute > horizon {
			break // past the horizon, whatever it faults
		}
		f, clean := k.mem.Untouched(p.pid, lo, hi+chunk-lo)
		if !clean || faults+f > free {
			break
		}
		latency := max(time.Duration(f)*cfg.MinorFaultCost, 0)
		if end+latency+compute > horizon {
			break
		}
		end += latency + compute
		cpu += compute
		faults += f
		seqs += opSeqs(latency, compute)
		n++
		hi += chunk
		// A first page shared with the chunk before was counted there.
		lo = (hi + cfg.PageSize - 1) &^ (cfg.PageSize - 1)
	}
	if stretchSeen != nil {
		stretchSeen(p, n, counted)
	}
	if n < 2 {
		return false
	}
	d, err := k.mem.Touch(p.pid, start, hi-start, op.Mem.Write)
	if err != nil || d != time.Duration(faults)*cfg.MinorFaultCost || !k.eng.Advance(end, seqs) {
		panic(fmt.Sprintf("ossim: stretch of %d chunks of %s to %v did not run as its chunks would: latency %v, error %v",
			n, p.name, end, d, err))
	}
	p.cpuTime += cpu
	p.done = hi - op.Mem.Offset
	return true
}

// unchain turns p's chained op, if it has one, into the state the
// two-event form would be in now. Before the hop that is a latency wait
// whose completion starts the compute. After it, the compute is under way
// at full speed since the hop, and p joins the compute set where it
// entered: its timer took its sequence number at the hop.
func (k *Kernel) unchain(p *Process) {
	if p.phase != phaseChain {
		return
	}
	k.chains--
	if p.timer.Unchain(p.latencyDoneFn) {
		p.phase = phaseLatency
		return
	}
	p.phase = phaseCompute
	p.speed = 1
	p.computeRemaining = p.pendingCompute
	p.pendingCompute = 0
	p.entered = p.timer.Seq()
	i := len(k.active)
	for i > 0 && k.active[i-1].entered > p.entered {
		i--
	}
	k.active = slices.Insert(k.active, i, p)
}

// latencyDone fires when the fixed-latency part of an op completes.
func (k *Kernel) latencyDone(p *Process) {
	p.timer = sim.Timer{}
	if p.state == StateExited {
		return
	}
	if p.stopAfterLatency || p.state == StateStopped {
		// SIGTSTP arrived while blocked: now that the I/O finished, stay
		// stopped; the pending compute resumes on SIGCONT.
		p.stopAfterLatency = false
		p.phase = phaseIdle
		k.mem.MarkStopped(p.pid)
		return
	}
	d := p.pendingCompute
	p.pendingCompute = 0
	if d <= 0 {
		p.phase = phaseIdle
		k.runNextOp(p, true)
		return
	}
	k.startCompute(p, d)
}

// startCompute begins (or resumes) CPU work of duration d > 0.
func (k *Kernel) startCompute(p *Process, d time.Duration) {
	p.phase = phaseCompute
	p.computeRemaining = d
	p.speedSetAt = k.eng.Now()
	k.active = append(k.active, p)
	if len(k.active) <= k.cores {
		// The share regime stays full-speed: only the entrant needs a
		// timer; nobody else's speed changes.
		p.speed = 1
		p.timer = k.eng.Schedule(d, p.computeDoneFn)
	} else {
		k.rebalance()
	}
	p.entered = p.timer.Seq()
}

// leaveCompute removes p from the CPU-sharing set, banking its progress.
func (k *Kernel) leaveCompute(p *Process) {
	k.settle(p)
	k.removeActive(p)
	if len(k.active) < k.cores {
		// The set was within the cores before p left, so everyone left
		// behind already runs at speed 1; a departure cannot raise shares
		// any further.
		return
	}
	k.rebalance()
}

// removeActive drops p from the compute set, preserving insertion order.
func (k *Kernel) removeActive(p *Process) {
	for i, q := range k.active {
		if q == p {
			k.active = append(k.active[:i], k.active[i+1:]...)
			return
		}
	}
}

// settle updates computeRemaining for the time elapsed at the current
// speed.
func (k *Kernel) settle(p *Process) {
	now := k.eng.Now()
	if p.phase != phaseCompute {
		return
	}
	elapsed := now - p.speedSetAt
	if elapsed <= 0 {
		return
	}
	donework := time.Duration(float64(elapsed) * p.speed)
	if donework > p.computeRemaining {
		donework = p.computeRemaining
	}
	p.computeRemaining -= donework
	p.cpuTime += donework
	p.speedSetAt = now
}

// rebalance recomputes CPU shares for all compute-active processes and
// reschedules their completion timers.
func (k *Kernel) rebalance() {
	n := len(k.active)
	if n == 0 {
		return
	}
	speed := 1.0
	if n > k.cores {
		speed = float64(k.cores) / float64(n)
	}
	now := k.eng.Now()
	for _, p := range k.active {
		if p.speed == speed && speed == 1 && p.timer.Pending() {
			// Full-speed share unchanged: settling is deferred — at speed
			// 1 banking is float-exact over any interval, so the eventual
			// settle (leaveCompute, computeDone, or a share change) banks
			// the same values, and CPUTime accounts the open interval
			// lazily. The existing timer already fires at the right time,
			// so the cancel+reschedule round is skipped too.
			continue
		}
		k.settle(p)
		p.speed = speed
		p.speedSetAt = now
		p.timer.Cancel()
		remainingWall := time.Duration(float64(p.computeRemaining) / speed)
		p.timer = k.eng.Schedule(remainingWall, p.computeDoneFn)
	}
}

// computeDone fires when a process finishes its compute phase, or its
// chained op.
func (k *Kernel) computeDone(p *Process) {
	p.timer = sim.Timer{}
	if p.phase == phaseChain {
		// Signals and exits unchain first, so the process still runs; it
		// computed at full speed from the hop and never joined active.
		k.chains--
		p.cpuTime += p.pendingCompute
		p.pendingCompute = 0
		p.phase = phaseIdle
		k.runNextOp(p, true)
		return
	}
	if p.state != StateRunning || p.phase != phaseCompute {
		return
	}
	k.settle(p)
	p.computeRemaining = 0
	k.removeActive(p)
	p.phase = phaseIdle
	if len(k.active) >= k.cores {
		// The set was past the cores before p left: shares rise.
		k.rebalance()
	}
	k.runNextOp(p, true)
}
