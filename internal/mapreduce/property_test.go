package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// walkProgress is Job.Progress as a walk over every task: the mean of
// the tasks' progress, a succeeded task counting 1.
func walkProgress(j *Job) float64 {
	if len(j.Tasks()) == 0 {
		return 1
	}
	var sum float64
	for _, t := range j.Tasks() {
		if t.State() == TaskSucceeded {
			sum += 1
		} else {
			sum += t.Progress()
		}
	}
	return sum / float64(len(j.Tasks()))
}

// stateCountsErr recounts each job's tasks per TaskState and reports the
// first count that Job.TasksIn disagrees with, or a Job.Progress that is
// not exactly the walk over every task.
func stateCountsErr(jobs ...*Job) error {
	for _, j := range jobs {
		if got, want := j.Progress(), walkProgress(j); got != want {
			return fmt.Errorf("job %s: Progress = %v, a walk over every task %v", j.ID(), got, want)
		}
		total := 0
		for s := TaskPending; s <= TaskFailed; s++ {
			want := 0
			for _, t := range j.Tasks() {
				if t.State() == s {
					want++
				}
			}
			if got := j.TasksIn(s); got != want {
				return fmt.Errorf("job %s: TasksIn(%v) = %d, recount %d", j.ID(), s, got, want)
			}
			total += want
		}
		if total != len(j.Tasks()) {
			return fmt.Errorf("job %s: %d tasks counted in some state, %d tasks", j.ID(), total, len(j.Tasks()))
		}
	}
	return nil
}

// checkStateCounts fails t unless every job's per-state task counts
// match a recount.
func checkStateCounts(t *testing.T, jobs ...*Job) {
	t.Helper()
	if err := stateCountsErr(jobs...); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomControlNeverCorruptsEngine fires random control
// actions (suspend/resume/kill-requeue/kill-terminal) at random times
// into a running two-job cluster and verifies global invariants: the
// simulation always converges, slot accounting returns to zero, no task
// ends in a transition state, and every job's per-state task counts
// match a recount after each action and at the end.
func TestPropertyRandomControlNeverCorruptsEngine(t *testing.T) {
	type action struct {
		AtSec  uint8 // virtual second, mod 120
		Victim bool  // which job
		Kind   uint8 // suspend / resume / kill-requeue / kill-terminal
	}
	f := func(actions []action) bool {
		if len(actions) > 24 {
			actions = actions[:24]
		}
		cfg := DefaultClusterConfig()
		cfg.Node.MapSlots = 2
		cfg.Node.Memory.PageSize = 1 << 20
		cfg.Engine.HeartbeatInterval = time.Second
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		jt := c.JobTracker()
		jt.SetScheduler(&fifoTestScheduler{jt: jt})
		c.CreateInput("/a", 256<<20)
		c.CreateInput("/b", 256<<20)
		ja, _ := jt.Submit(lightJobConf("a", "/a"))
		jb, _ := jt.Submit(lightJobConf("b", "/b"))
		jobs := []*Job{ja, jb}
		terminalKill := false
		var countErr error
		for _, a := range actions {
			a := a
			job := jobs[0]
			if a.Victim {
				job = jobs[1]
			}
			task := job.MapTasks()[0].ID()
			if a.Kind%4 == 3 {
				terminalKill = true
			}
			c.Engine().Schedule(time.Duration(a.AtSec%120)*time.Second, func() {
				// Errors are expected for invalid-state commands; the
				// engine must simply reject them.
				switch a.Kind % 4 {
				case 0:
					jt.SuspendTask(task)
				case 1:
					jt.ResumeTask(task)
				case 2:
					jt.KillTaskAttempt(task, true)
				case 3:
					jt.KillTaskAttempt(task, false)
				}
				if err := stateCountsErr(jobs...); err != nil && countErr == nil {
					countErr = err
				}
			})
		}
		// A suspended task whose resume never comes would hang the run;
		// issue a final catch-all resume wave.
		c.Engine().Schedule(130*time.Second, func() {
			for _, job := range jobs {
				for _, task := range job.MapTasks() {
					jt.ResumeTask(task.ID())
				}
			}
		})
		c.RunUntil(time.Hour)
		if countErr == nil {
			countErr = stateCountsErr(jobs...)
		}
		if countErr != nil {
			t.Log(countErr)
			return false
		}
		for _, job := range jobs {
			for _, task := range job.MapTasks() {
				switch task.State() {
				case TaskSucceeded, TaskKilled:
				default:
					t.Logf("task %s stuck in %v", task.ID(), task.State())
					return false
				}
			}
			switch job.State() {
			case JobSucceeded:
			case JobFailed:
				if !terminalKill {
					t.Logf("job %s failed without terminal kill", job.ID())
					return false
				}
			default:
				t.Logf("job %s stuck in %v", job.ID(), job.State())
				return false
			}
		}
		if free := c.Node(0).Tracker.FreeMapSlots(); free != 2 {
			t.Logf("slot accounting leaked: free=%d", free)
			return false
		}
		if c.Node(0).Kernel.Processes() != 0 {
			t.Logf("process table leaked: %d live", c.Node(0).Kernel.Processes())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// progressProbe checks, at every task event, that the event's job keeps
// exact per-state counts and a Progress equal to the walk over every
// task; it keeps the first disagreement.
type progressProbe struct {
	NopListener
	err    error
	checks int
}

func (p *progressProbe) check(j *Job) {
	p.checks++
	if err := stateCountsErr(j); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *progressProbe) TaskStateChanged(t *Task, _, _ TaskState, _ time.Duration) { p.check(t.Job()) }
func (p *progressProbe) TaskProgressed(t *Task, _ float64, _ time.Duration)        { p.check(t.Job()) }

// TestPropertyProgressMatchesFullWalk runs jobs of several maps, some
// with reduces, on a two-node cluster while random control actions hit
// random tasks (suspend, resume, kill with and without requeue, kill of
// the whole job). After every task event Job.Progress must equal, bit
// for bit, the mean over every task, which it computes from the tasks
// between the succeeded prefix and the never-launched suffix alone.
func TestPropertyProgressMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultClusterConfig()
		cfg.Nodes = 2
		cfg.Node.MapSlots = 2
		cfg.Node.Memory.PageSize = 1 << 20
		cfg.HDFS.BlockSize = 64 << 20
		cfg.Engine.HeartbeatInterval = time.Second
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jt := c.JobTracker()
		jt.SetScheduler(&fifoTestScheduler{jt: jt})
		probe := &progressProbe{}
		jt.AddListener(probe)
		var jobs []*Job
		for i, n := 0, 2+rng.Intn(3); i < n; i++ {
			in := fmt.Sprintf("/in%d", i)
			if err := c.CreateInput(in, int64(1+rng.Intn(6))<<26-int64(rng.Intn(2))<<20); err != nil {
				t.Fatal(err)
			}
			conf := lightJobConf(fmt.Sprintf("j%d", i), in)
			conf.MapParseRate = float64(8+rng.Intn(32)) * 1e6
			if rng.Intn(2) == 0 {
				conf.NumReduces, conf.ReduceRate, conf.ShuffleSortRate = 1+rng.Intn(2), 64e6, 128e6
			}
			job, err := jt.Submit(conf)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		for i, n := 0, rng.Intn(16); i < n; i++ {
			job := jobs[rng.Intn(len(jobs))]
			task := job.Tasks()[rng.Intn(len(job.Tasks()))].ID()
			kind := rng.Intn(5)
			c.Engine().Schedule(time.Duration(rng.Intn(40_000))*time.Millisecond, func() {
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
				probe.check(job)
			})
		}
		c.RunUntil(5 * time.Minute)
		for _, j := range jobs {
			probe.check(j)
		}
		if probe.err != nil {
			t.Fatalf("seed %d: %v", seed, probe.err)
		}
		if probe.checks < 20 {
			t.Fatalf("seed %d: only %d checks", seed, probe.checks)
		}
		c.Close()
	}
}
