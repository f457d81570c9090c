// Package core implements the paper's primary contribution: the
// OS-assisted task preemption primitive for Hadoop, alongside the two
// baseline primitives (wait, kill) and a Natjam-style application-level
// checkpoint primitive used as a comparison point.
//
// The package also provides the machinery §V discusses around the
// primitive: task eviction policies (which task to preempt) and a cost
// model advisor (which primitive to use given a task's progress).
package core

import (
	"fmt"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// Primitive selects how a task is preempted.
type Primitive int

// The preemption primitives compared in the paper's evaluation.
const (
	// Wait does not preempt: the high-priority task waits for the victim
	// to complete. Zero wasted work, maximal latency.
	Wait Primitive = iota + 1
	// Kill terminates the victim with SIGKILL and reschedules it from
	// scratch, paying a cleanup attempt and losing all completed work.
	Kill
	// Suspend is the paper's OS-assisted primitive: SIGTSTP stops the
	// victim, the OS pages its memory out only if and when needed, and
	// SIGCONT resumes it in place.
	Suspend
	// Checkpoint is a Natjam-style application-level primitive: task
	// state is systematically serialized to disk at suspension and
	// deserialized at resume, paying the full cost every time even when
	// memory is plentiful.
	Checkpoint
)

// String returns the name used in the paper's figures.
func (p Primitive) String() string {
	switch p {
	case Wait:
		return "wait"
	case Kill:
		return "kill"
	case Suspend:
		return "susp"
	case Checkpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
}

// ParsePrimitive converts a figure label to a Primitive.
func ParsePrimitive(s string) (Primitive, error) {
	switch s {
	case "wait":
		return Wait, nil
	case "kill":
		return Kill, nil
	case "susp", "suspend":
		return Suspend, nil
	case "checkpoint", "natjam":
		return Checkpoint, nil
	default:
		return 0, fmt.Errorf("core: unknown primitive %q", s)
	}
}

// Primitives lists the three primitives of the paper's main comparison.
func Primitives() []Primitive { return []Primitive{Wait, Kill, Suspend} }

// stateBytes estimates checkpoint volume as the task's full in-memory
// state: the application-level approach must serialize the heap (user
// state plus engine buffers), which is exactly the systematic cost §II
// contrasts with OS-assisted suspension. The OS instead pages out only
// what memory pressure demands — often nothing.
func stateBytes(conf mapreduce.JobConf) int64 {
	return conf.ExtraMemoryBytes + conf.JVMBaseBytes
}

// Preemptor executes preemption primitives against the JobTracker. It is
// the programmatic face of the paper's new API ("can be used both by
// users on the command line and by schedulers").
type Preemptor struct {
	cluster *mapreduce.Cluster
	eng     *sim.Engine
	jt      *mapreduce.JobTracker
	prim    Primitive

	// pendingRestore holds deserialize deadlines for checkpointed tasks.
	pendingRestore map[mapreduce.TaskID]bool
}

// NewPreemptor builds a preemptor for the given primitive on the
// cluster. The Checkpoint primitive writes a task's state to the disk of
// the node the task runs on.
func NewPreemptor(c *mapreduce.Cluster, prim Primitive) (*Preemptor, error) {
	switch prim {
	case Wait, Kill, Suspend, Checkpoint:
	default:
		return nil, fmt.Errorf("core: unknown primitive %d", int(prim))
	}
	return &Preemptor{
		cluster:        c,
		eng:            c.Engine(),
		jt:             c.JobTracker(),
		prim:           prim,
		pendingRestore: make(map[mapreduce.TaskID]bool),
	}, nil
}

// device returns the disk of the node whose TaskTracker is named tracker.
func (p *Preemptor) device(tracker string) (*disk.Device, error) {
	for i := 0; i < p.cluster.NumNodes(); i++ {
		if n := p.cluster.Node(i); n.Tracker.Name() == tracker {
			return n.Device, nil
		}
	}
	return nil, fmt.Errorf("core: no device for tracker %q", tracker)
}

// Primitive returns the configured primitive.
func (p *Preemptor) Primitive() Primitive { return p.prim }

// Preempt evicts the victim task according to the primitive. For Wait it
// is a no-op: the caller simply refrains from granting the slot. The
// returned duration is the primitive's immediate bookkeeping cost (only
// Checkpoint has one: state serialization occupies the victim's disk and
// delays the slot release).
func (p *Preemptor) Preempt(victim mapreduce.TaskID) (time.Duration, error) {
	task, ok := p.jt.Task(victim)
	if !ok {
		return 0, fmt.Errorf("core: no such task %s", victim)
	}
	switch p.prim {
	case Wait:
		return 0, nil
	case Kill:
		return 0, p.jt.KillTaskAttempt(victim, true)
	case Suspend:
		return 0, p.jt.SuspendTask(victim)
	case Checkpoint:
		// Natjam-style: serialize state to the local disk, then release
		// the task. We model serialization as a disk write that must
		// complete before the suspension takes effect, so the slot frees
		// only afterwards — the systematic overhead §II contrasts with
		// the OS-assisted approach.
		dev, err := p.device(task.Tracker())
		if err != nil {
			return 0, err
		}
		bytes := stateBytes(task.Job().Conf())
		done := dev.Submit(disk.Write, bytes, disk.NoStream)
		wait := done - p.eng.Now()
		if wait < 0 {
			wait = 0
		}
		id := victim
		p.pendingRestore[id] = true
		p.eng.Schedule(wait, func() {
			// The task may have completed during serialization; ignore
			// the error, completion wins (same race as suspend).
			_ = p.jt.SuspendTask(id)
		})
		return wait, nil
	default:
		return 0, fmt.Errorf("core: unknown primitive %d", int(p.prim))
	}
}

// Restore undoes a preemption once the high-priority work is out of the
// way: resume for Suspend/Checkpoint (the latter pays deserialization
// first), nothing for Kill (the JobTracker already requeued the victim)
// and nothing for Wait.
func (p *Preemptor) Restore(victim mapreduce.TaskID) error {
	task, ok := p.jt.Task(victim)
	if !ok {
		return fmt.Errorf("core: no such task %s", victim)
	}
	switch p.prim {
	case Wait, Kill:
		return nil
	case Suspend:
		return p.jt.ResumeTask(victim)
	case Checkpoint:
		if !p.pendingRestore[victim] {
			return p.jt.ResumeTask(victim)
		}
		delete(p.pendingRestore, victim)
		if task.State() != mapreduce.TaskSuspended {
			// Completed during serialization; nothing to restore.
			return nil
		}
		dev, err := p.device(task.Tracker())
		if err != nil {
			return err
		}
		bytes := stateBytes(task.Job().Conf())
		done := dev.Submit(disk.Read, bytes, disk.NoStream)
		wait := done - p.eng.Now()
		if wait < 0 {
			wait = 0
		}
		id := victim
		p.eng.Schedule(wait, func() { _ = p.jt.ResumeTask(id) })
		return nil
	default:
		return fmt.Errorf("core: unknown primitive %d", int(p.prim))
	}
}
