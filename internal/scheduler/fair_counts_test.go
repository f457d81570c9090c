package scheduler

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
)

// recountPools checks Fair's pool bookkeeping against its definition:
// pools sorted by name, each member job in its own pool, and each pool's
// running and demand counts equal to a recount over the pool's jobs.
func recountPools(f *Fair) error {
	if !slices.IsSortedFunc(f.pools, func(a, b *fairPool) int { return strings.Compare(a.name, b.name) }) {
		return fmt.Errorf("pools not sorted by name")
	}
	members := 0
	for _, p := range f.pools {
		var running, demand int
		for _, job := range p.jobs {
			if f.members[job] != p {
				return fmt.Errorf("job %s of pool %s is not a member of it", job.ID(), p.name)
			}
			members++
			r := job.TasksIn(mapreduce.TaskRunning) + job.TasksIn(mapreduce.TaskMustSuspend)
			running += r
			demand += r + job.TasksIn(mapreduce.TaskMustResume) + job.TasksIn(mapreduce.TaskSuspended) +
				job.TasksIn(mapreduce.TaskPending)
		}
		if p.running != running || p.demand != demand {
			return fmt.Errorf("pool %s counts running=%d demand=%d, recount %d and %d",
				p.name, p.running, p.demand, running, demand)
		}
	}
	if members != len(f.members) {
		return fmt.Errorf("%d jobs in pools, %d members", members, len(f.members))
	}
	return nil
}

// poolProbe recounts the pools after every task state change; the
// JobTracker calls it after Fair's own counter, which registered first.
type poolProbe struct {
	mapreduce.NopListener
	f      *Fair
	err    error
	checks int
}

func (p *poolProbe) check() {
	p.checks++
	if err := recountPools(p.f); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *poolProbe) TaskStateChanged(*mapreduce.Task, mapreduce.TaskState, mapreduce.TaskState, time.Duration) {
	p.check()
}

// TestFairPoolCountsMatchRecount runs jobs in three pools under Fair,
// with short timeouts so Fair suspends, resumes and delay-kills on its
// own, while random control actions suspend, resume and kill random
// tasks and jobs. After every task state change, control action and
// check tick, each pool's running and demand counts must equal a
// recount over its jobs.
func TestFairPoolCountsMatchRecount(t *testing.T) {
	var preempted, checks int
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		cfg := mapreduce.DefaultClusterConfig()
		cfg.Nodes = 2
		cfg.Node.MapSlots = 2
		cfg.Node.Memory.PageSize = 1 << 20
		cfg.HDFS.BlockSize = 64 << 20
		cfg.Engine.HeartbeatInterval = time.Second
		c, err := mapreduce.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jt := c.JobTracker()
		pre, err := core.NewPreemptor(c, core.Suspend)
		if err != nil {
			t.Fatal(err)
		}
		fcfg := DefaultFairConfig(4)
		fcfg.PreemptionTimeout = 2 * time.Second
		fcfg.ResumeLocalityTimeout = 6 * time.Second
		f, err := NewFair(c.Engine(), jt, pre, advisor.Advisor{}, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		jt.SetScheduler(f)
		probe := &poolProbe{f: f}
		jt.AddListener(probe)

		var jobs []*mapreduce.Job
		for i, n := 0, 3+rng.Intn(5); i < n; i++ {
			conf := mapreduce.JobConf{
				Name:         fmt.Sprintf("j%d", i),
				InputPath:    fmt.Sprintf("/in%d", i),
				Pool:         []string{"", "batch", "prod"}[rng.Intn(3)],
				MapParseRate: float64(8+rng.Intn(32)) * 1e6,
				JVMBaseBytes: 64 << 20,
			}
			if rng.Intn(3) == 0 {
				conf.NumReduces, conf.ReduceRate, conf.ShuffleSortRate = 1, 64e6, 128e6
			}
			if err := c.CreateInput(conf.InputPath, int64(1+rng.Intn(8))<<25); err != nil {
				t.Fatal(err)
			}
			c.Engine().At(time.Duration(rng.Intn(20_000))*time.Millisecond, func() {
				job, err := jt.Submit(conf)
				if err != nil {
					t.Error(err)
					return
				}
				jobs = append(jobs, job)
				probe.check()
			})
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			kind, pick := rng.Intn(5), rng.Intn(1<<20)
			c.Engine().At(time.Duration(rng.Intn(40_000))*time.Millisecond, func() {
				if len(jobs) == 0 {
					return
				}
				job := jobs[pick%len(jobs)]
				task := job.Tasks()[pick%len(job.Tasks())].ID()
				// Commands in the wrong state are rejected; that is fine.
				switch kind {
				case 0:
					jt.SuspendTask(task)
				case 1:
					jt.ResumeTask(task)
				case 2:
					jt.KillTaskAttempt(task, true)
				case 3:
					jt.KillTaskAttempt(task, false)
				case 4:
					jt.KillJob(job.ID())
				}
				probe.check()
			})
		}
		for at := time.Second; at < 3*time.Minute; at += 700 * time.Millisecond {
			c.Engine().At(at, probe.check)
		}
		c.RunUntil(3 * time.Minute)
		probe.check()
		if probe.err != nil {
			t.Fatalf("seed %d: %v", seed, probe.err)
		}
		preempted += f.Preemptions()
		checks += probe.checks
		c.Close()
	}
	t.Logf("%d recounts, %d preemptions by fair", checks, preempted)
	if preempted < 5 {
		t.Fatalf("fair preempted only %d times: the pools' suspended states are barely exercised", preempted)
	}
}
