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

// victimCell runs one cell of the victim grid under the cell's policy.
// The victim is recorded as victim_heavy (1 for the heavy job, 0 for the
// light one), durations and byte counts as whole nanoseconds and bytes,
// which a float64 holds exactly.
func victimCell(pt sweep.Point, rec *sweep.Recorder) error {
	r, err := RunEvictionComparison(pt.Label("policy"), pt.Seed)
	if err != nil {
		return err
	}
	heavy := 0.0
	if r.Victim == "heavy" {
		heavy = 1
	}
	rec.Observe("victim_heavy", heavy)
	rec.Observe("makespan_ns", float64(r.Makespan))
	rec.Observe("sojourn_th_ns", float64(r.SojournTH))
	rec.Observe("victim_swap_bytes", float64(r.VictimSwap))
	return nil
}
