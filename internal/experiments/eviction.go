package experiments

import (
	"fmt"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sweep"
)

// EvictionResult is the outcome of one eviction-policy comparison run.
type EvictionResult struct {
	Policy string
	// Victim is the job whose task was suspended.
	Victim string
	// Makespan covers all three jobs.
	Makespan time.Duration
	// SojournTH is the high-priority job's latency.
	SojournTH time.Duration
	// VictimSwap is the victim's total swap traffic (out + in).
	VictimSwap int64
}

// RunEvictionComparison implements the §V-A discussion: when the
// high-priority task needs a slot and several tasks are candidates for
// eviction, which one should the scheduler suspend? Two low-priority
// jobs run on a two-slot node — one light (engine memory only), one
// memory-hungry (2 GB of state) — and a memory-hungry high-priority job
// arrives. The named policy picks the victim; suspending the smaller
// footprint should minimize paging overhead (the paper's reading of its
// Figure 4).
func RunEvictionComparison(policyName string, seed uint64) (*EvictionResult, error) {
	ccfg := mapreduce.DefaultClusterConfig()
	ccfg.Node.MapSlots = 2
	ccfg.Seed = seed
	cluster, err := mapreduce.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// The scenario always suspends, so the advisor's primitive is forced;
	// only its victim choice varies with the policy under test.
	in, err := scheduler.Install(cluster, "priority", core.Suspend, policyName, 0)
	if err != nil {
		return nil, err
	}
	defer in.Dummy.Release()
	jt := cluster.JobTracker()

	for _, path := range []string{"/ev/light", "/ev/heavy", "/ev/th"} {
		if err := cluster.CreateInput(path, 512<<20); err != nil {
			return nil, err
		}
	}
	light, err := jt.Submit(mapreduce.JobConf{
		Name: "light", InputPath: "/ev/light", MapParseRate: 6.5e6,
	})
	if err != nil {
		return nil, err
	}
	heavy, err := jt.Submit(mapreduce.JobConf{
		Name: "heavy", InputPath: "/ev/heavy", MapParseRate: 6.5e6,
		ExtraMemoryBytes: 2 << 30,
	})
	if err != nil {
		return nil, err
	}
	thConf := mapreduce.JobConf{
		Name: "th", InputPath: "/ev/th", Priority: 10, MapParseRate: 6.5e6,
		ExtraMemoryBytes: 2 << 30,
	}

	var victim *mapreduce.Task
	var thJob *mapreduce.Job
	in.Dummy.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnProgress, Job: "light", Threshold: 0.5,
		Do: func() {
			j, err := jt.Submit(thConf)
			if err != nil {
				panic(fmt.Sprintf("experiments: submit th: %v", err))
			}
			thJob = j
			// Build the candidate set from the running low-priority
			// tasks, as a scheduler would.
			var candidates []advisor.Candidate
			var tasks []*mapreduce.Task
			for _, job := range []*mapreduce.Job{light, heavy} {
				for _, task := range job.MapTasks() {
					if task.State() != mapreduce.TaskRunning {
						continue
					}
					candidates = append(candidates, advisor.Candidate{
						ID:            task.IDString(),
						Progress:      task.Progress(),
						ResidentBytes: task.ResidentBytes(),
						StartedAt:     task.FirstLaunchAt(),
					})
					tasks = append(tasks, task)
				}
			}
			d := in.Advisor.Decide(advisor.Request{Candidates: candidates})
			if d.Victim == advisor.NoVictim {
				panic("experiments: no eviction candidate")
			}
			victim = tasks[d.Victim]
			if _, err := in.Preemptor.Preempt(victim.ID()); err != nil {
				panic(fmt.Sprintf("experiments: preempt victim: %v", err))
			}
		},
	})
	in.Dummy.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnComplete, Job: "th",
		Do: func() {
			if err := in.Preemptor.Restore(victim.ID()); err != nil {
				panic(fmt.Sprintf("experiments: restore victim: %v", err))
			}
		},
	})

	if !cluster.RunUntilJobsDone(6 * time.Hour) {
		return nil, fmt.Errorf("experiments: eviction run did not converge (policy=%s)", policyName)
	}
	var last time.Duration
	for _, j := range jt.Jobs() {
		if j.CompletedAt() > last {
			last = j.CompletedAt()
		}
	}
	return &EvictionResult{
		Policy:     policyName,
		Victim:     victim.Job().Conf().Name,
		Makespan:   last,
		SojournTH:  thJob.CompletedAt() - thJob.SubmittedAt(),
		VictimSwap: victim.SwapOutBytes() + victim.SwapInBytes(),
	}, nil
}

// EvictionSweep compares victim-selection policies through the harness.
// The policy axis is seed-paired: every policy faces the identical
// contention scenario, so outcome differences are pure policy effect.
func EvictionSweep(policies []string, cfg Config) ([]*EvictionResult, error) {
	g := sweep.NewGrid(sweep.Strings("policy", policies...)).Pair("policy")
	out := make([]*EvictionResult, g.Size())
	_, err := sweep.RunCollapsed(g, func(pt sweep.Point, _ *sweep.Recorder) error {
		r, err := RunEvictionComparison(pt.Label("policy"), pt.Seed)
		out[pt.Index] = r
		return err
	}, cfg.options())
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AdvisorResult compares advisor-chosen primitives against fixed ones
// across the progress sweep.
type AdvisorResult struct {
	// R is tl's progress at th's arrival.
	R float64
	// Chosen is the primitive the advisor picked.
	Chosen core.Primitive
	// Makespans per strategy ("advisor", "wait", "kill", "susp").
	Makespans map[string]time.Duration
}

// RunAdvisorSweep evaluates §V-A's cost model: kill freshly started
// victims, wait for nearly-done ones, suspend the rest. For each r it
// runs all three fixed primitives through the harness (seed-paired on
// the primitive axis) and attaches the advisor's choice.
func RunAdvisorSweep(rs []float64, cfg Config) ([]*AdvisorResult, error) {
	prims := core.Primitives()
	g := sweep.NewGrid(
		sweep.Floats("r", rs...),
		sweep.Stringers("prim", prims...),
	).Pair("prim")
	makespans := make([]time.Duration, g.Size())
	_, err := sweep.RunCollapsed(g, func(pt sweep.Point, _ *sweep.Recorder) error {
		p := DefaultTwoJobParams()
		p.Primitive = pt.Value("prim").(core.Primitive)
		p.PreemptAt = pt.Float("r")
		p.Seed = pt.Seed
		run, err := RunTwoJob(p)
		if err != nil {
			return err
		}
		// The round trip through float seconds is part of the committed
		// figure goldens; keeping the exact Duration would move them.
		makespans[pt.Index] = time.Duration(run.Makespan.Seconds() * float64(time.Second))
		return nil
	}, cfg.options())
	if err != nil {
		return nil, err
	}
	adv, err := advisor.New(advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out := make([]*AdvisorResult, len(rs))
	victim := make([]advisor.Candidate, 1)
	for i, r := range rs {
		// The prim axis varies fastest, so r's cells are contiguous.
		ar := &AdvisorResult{R: r, Makespans: make(map[string]time.Duration)}
		for j, prim := range prims {
			ar.Makespans[prim.String()] = makespans[i*len(prims)+j]
		}
		victim[0] = advisor.Candidate{ID: "tl", Progress: r}
		ar.Chosen = adv.Decide(advisor.Request{Candidates: victim}).Primitive
		ar.Makespans["advisor"] = ar.Makespans[ar.Chosen.String()]
		out[i] = ar
	}
	return out, nil
}
