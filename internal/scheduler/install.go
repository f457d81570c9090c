package scheduler

import (
	"fmt"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
)

// Installation is what Install wired into a cluster.
type Installation struct {
	// Preemptor applies the primitive, for the preempting schedulers and
	// for callers that preempt by hand (the dummy scheduler's triggers).
	Preemptor *core.Preemptor
	// Advisor picks victims under the eviction policy, its primitive
	// forced to the preemptor's.
	Advisor advisor.Advisor
	// Dummy is the trigger scheduler when "priority" was installed, else
	// nil.
	Dummy *Dummy

	// counts is the fair or hfsp scheduler, nil for the others.
	counts interface {
		Preemptions() int
		Resumes() int
	}
}

// Install builds the preemptor for prim and the advisor for the named
// eviction policy ("" means most-progress), then installs the named
// scheduler on the cluster's JobTracker: "priority" (the paper's
// trigger-driven dummy scheduler), "fifo", "fair" or "hfsp". A positive
// timeout overrides fair's starvation timeout and hfsp's preemption
// delay. Call it before creating inputs or submitting jobs: fair and
// hfsp schedule their first check when constructed.
func Install(c *mapreduce.Cluster, name string, prim core.Primitive, policy string, timeout time.Duration) (*Installation, error) {
	pre, err := core.NewPreemptor(c, prim)
	if err != nil {
		return nil, err
	}
	pol := advisor.MostProgress
	if policy != "" {
		if pol, err = advisor.PolicyByName(policy); err != nil {
			return nil, err
		}
	}
	adv, err := advisor.New(advisor.Config{Policy: pol, Primitive: prim})
	if err != nil {
		return nil, err
	}
	in := &Installation{Preemptor: pre, Advisor: adv}
	eng, jt := c.Engine(), c.JobTracker()
	var s mapreduce.Scheduler
	switch name {
	case "priority":
		in.Dummy = NewDummy(jt)
		s = in.Dummy
	case "fifo":
		s = NewFIFO(jt)
	case "fair":
		cfg := DefaultFairConfig(c.MapSlots())
		if timeout > 0 {
			cfg.PreemptionTimeout = timeout
		}
		f, err := NewFair(eng, jt, pre, adv, cfg)
		if err != nil {
			return nil, err
		}
		s, in.counts = f, f
	case "hfsp":
		cfg := DefaultHFSPConfig()
		if timeout > 0 {
			cfg.PreemptionDelay = timeout
		}
		h, err := NewHFSP(eng, jt, pre, adv, cfg)
		if err != nil {
			return nil, err
		}
		s, in.counts = h, h
	default:
		return nil, fmt.Errorf("scheduler: unknown scheduler %q (want priority, fifo, fair or hfsp)", name)
	}
	jt.SetScheduler(s)
	return in, nil
}

// Preemptions reports how many preemptions the scheduler issued (fair
// and hfsp; zero for the others).
func (in *Installation) Preemptions() int {
	if in.counts == nil {
		return 0
	}
	return in.counts.Preemptions()
}

// Resumes reports how many suspended-task restores the scheduler issued
// (fair and hfsp; zero for the others).
func (in *Installation) Resumes() int {
	if in.counts == nil {
		return 0
	}
	return in.counts.Resumes()
}
