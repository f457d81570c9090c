package scheduler_test

import (
	"fmt"
	"testing"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
	"hadooppreempt/internal/sim"
)

// testClusterWith builds a small cluster with no scheduler installed.
func testClusterWith(t *testing.T, nodes, slots int) *mapreduce.Cluster {
	t.Helper()
	cfg := mapreduce.DefaultClusterConfig()
	cfg.Nodes = nodes
	cfg.Node.MapSlots = slots
	cfg.Node.Memory.PageSize = 1 << 20
	cfg.Engine.HeartbeatInterval = time.Second
	c, err := mapreduce.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// quickJob is a small job: 64 MB input at 32 MB/s (~2 s of parsing).
func quickJob(name, input string) mapreduce.JobConf {
	return mapreduce.JobConf{
		Name:         name,
		InputPath:    input,
		MapParseRate: 32e6,
		JVMBaseBytes: 64 << 20,
	}
}

func preemptorFor(t *testing.T, c *mapreduce.Cluster, prim core.Primitive) *core.Preemptor {
	t.Helper()
	p, err := core.NewPreemptor(c, prim)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDummyTriggersFireOnce(t *testing.T) {
	c := testClusterWith(t, 1, 1)
	d := scheduler.NewDummy(c.JobTracker())
	c.JobTracker().SetScheduler(d)
	c.CreateInput("/in", 256<<20)

	fires := 0
	d.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnProgress, Job: "j", Threshold: 0.3,
		Do: func() { fires++ },
	})
	completions := 0
	d.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnComplete, Job: "j",
		Do: func() { completions++ },
	})
	submits := 0
	d.AddTrigger(scheduler.Trigger{
		Event: scheduler.OnSubmit, Job: "j",
		Do: func() { submits++ },
	})
	c.JobTracker().Submit(quickJob("j", "/in"))
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("job did not finish")
	}
	if fires != 1 || completions != 1 || submits != 1 {
		t.Fatalf("fires/completions/submits = %d/%d/%d, want 1/1/1", fires, completions, submits)
	}
}

func TestDummyPriorityOrdering(t *testing.T) {
	c := testClusterWith(t, 1, 1)
	d := scheduler.NewDummy(c.JobTracker())
	c.JobTracker().SetScheduler(d)
	c.CreateInput("/lo", 128<<20)
	c.CreateInput("/hi", 128<<20)
	lo := quickJob("lo", "/lo")
	lo.Priority = 0
	hi := quickJob("hi", "/hi")
	hi.Priority = 10
	// Submit low first; both pending at the first heartbeat. High must
	// win the single slot.
	jlo, _ := c.JobTracker().Submit(lo)
	jhi, _ := c.JobTracker().Submit(hi)
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("jobs did not finish")
	}
	if jhi.CompletedAt() >= jlo.CompletedAt() {
		t.Fatalf("priority violated: hi at %v, lo at %v", jhi.CompletedAt(), jlo.CompletedAt())
	}
}

func TestFIFOOrdering(t *testing.T) {
	c := testClusterWith(t, 1, 1)
	c.JobTracker().SetScheduler(scheduler.NewFIFO(c.JobTracker()))
	c.CreateInput("/a", 128<<20)
	c.CreateInput("/b", 128<<20)
	ja, _ := c.JobTracker().Submit(quickJob("a", "/a"))
	jb, _ := c.JobTracker().Submit(quickJob("b", "/b"))
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("jobs did not finish")
	}
	if ja.CompletedAt() >= jb.CompletedAt() {
		t.Fatalf("FIFO violated: a at %v, b at %v", ja.CompletedAt(), jb.CompletedAt())
	}
}

func TestFairPreemptsForStarvedPool(t *testing.T) {
	c := testClusterWith(t, 1, 2)
	jt := c.JobTracker()
	pre := preemptorFor(t, c, core.Suspend)
	fcfg := scheduler.DefaultFairConfig(2)
	fcfg.PreemptionTimeout = 5 * time.Second
	fcfg.ResumeLocalityTimeout = 0 // keep suspended tasks in place
	adv, err := advisor.New(advisor.Config{Policy: advisor.MostProgress, Primitive: core.Suspend})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := scheduler.NewFair(c.Engine(), jt, pre, adv, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(fair)

	// Pool "batch" grabs both slots with long tasks.
	c.CreateInput("/b1", 512<<20)
	c.CreateInput("/b2", 512<<20)
	b1 := quickJob("b1", "/b1")
	b1.Pool = "batch"
	b1.MapParseRate = 8e6 // ~64 s
	b2 := quickJob("b2", "/b2")
	b2.Pool = "batch"
	b2.MapParseRate = 8e6
	jt.Submit(b1)
	jt.Submit(b2)
	c.RunUntil(20 * time.Second)

	// Pool "prod" arrives and is entitled to one slot.
	c.CreateInput("/p", 64<<20)
	p := quickJob("prod", "/p")
	p.Pool = "prod"
	jp, _ := jt.Submit(p)

	if !c.RunUntilJobsDone(30 * time.Minute) {
		t.Fatalf("jobs did not finish (prod=%v)", jp.State())
	}
	if fair.Preemptions() == 0 {
		t.Fatal("fair scheduler should have preempted a batch task")
	}
	if fair.Resumes() == 0 {
		t.Fatal("suspended batch task should have been resumed")
	}
	if jp.State() != mapreduce.JobSucceeded {
		t.Fatalf("prod job state = %v", jp.State())
	}
	// The production job must not have waited for a 64 s batch task.
	sojourn := jp.CompletedAt() - jp.SubmittedAt()
	if sojourn > 40*time.Second {
		t.Fatalf("prod sojourn = %v, want < 40 s with preemption", sojourn)
	}
}

func TestFairNoPreemptionWhenSharesMet(t *testing.T) {
	c := testClusterWith(t, 1, 2)
	jt := c.JobTracker()
	pre := preemptorFor(t, c, core.Suspend)
	fair, err := scheduler.NewFair(c.Engine(), jt, pre, advisor.Advisor{}, scheduler.DefaultFairConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(fair)
	c.CreateInput("/a", 128<<20)
	c.CreateInput("/b", 128<<20)
	a := quickJob("a", "/a")
	a.Pool = "p1"
	b := quickJob("b", "/b")
	b.Pool = "p2"
	jt.Submit(a)
	jt.Submit(b)
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("jobs did not finish")
	}
	if fair.Preemptions() != 0 {
		t.Fatalf("preemptions = %d, want 0 (both pools at share)", fair.Preemptions())
	}
}

// TestFairResumeLocalityDelayedKill reaches fair's resume-locality
// fallback. One node has two slots, so each of the batch and prod pools
// is entitled to one. Two long batch tasks hold both slots until a long
// prod job starves and fair suspends one of them. The batch pool then
// runs its other task, which keeps it at its share, so the suspended task
// is never resumed, while the prod task keeps its home slot busy past
// ResumeLocalityTimeout. Fair must kill it so it can restart, and the
// batch jobs must still succeed.
func TestFairResumeLocalityDelayedKill(t *testing.T) {
	c := testClusterWith(t, 1, 2)
	jt := c.JobTracker()
	pre := preemptorFor(t, c, core.Suspend)
	fcfg := scheduler.DefaultFairConfig(2)
	fcfg.PreemptionTimeout = 3 * time.Second
	fcfg.ResumeLocalityTimeout = 10 * time.Second
	fair, err := scheduler.NewFair(c.Engine(), jt, pre, advisor.Advisor{}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(fair)
	var batch []*mapreduce.Job
	for _, name := range []string{"b1", "b2"} {
		c.CreateInput("/"+name, 512<<20)
		conf := quickJob(name, "/"+name)
		conf.Pool = "batch"
		conf.MapParseRate = 8e6 // ~64 s
		j, _ := jt.Submit(conf)
		batch = append(batch, j)
	}
	c.RunUntil(10 * time.Second)
	c.CreateInput("/p", 512<<20)
	p := quickJob("prod", "/p")
	p.Pool = "prod"
	p.MapParseRate = 8e6
	jp, _ := jt.Submit(p)
	if !c.RunUntilJobsDone(30 * time.Minute) {
		t.Fatalf("jobs did not finish (b1=%v b2=%v prod=%v)", batch[0].State(), batch[1].State(), jp.State())
	}
	if fair.Preemptions() == 0 {
		t.Fatal("fair should have suspended a batch task for the starved prod pool")
	}
	if fair.DelayedKills() == 0 {
		t.Fatalf("no delayed kill after %d preemptions and %d resumes", fair.Preemptions(), fair.Resumes())
	}
	for _, j := range append(batch, jp) {
		if j.State() != mapreduce.JobSucceeded {
			t.Fatalf("job %s state = %v", j.Name(), j.State())
		}
	}
}

func TestHFSPSmallJobPreemptsBig(t *testing.T) {
	c := testClusterWith(t, 1, 1)
	jt := c.JobTracker()
	pre := preemptorFor(t, c, core.Suspend)
	hcfg := scheduler.DefaultHFSPConfig()
	hcfg.PreemptionDelay = 3 * time.Second
	h, err := scheduler.NewHFSP(c.Engine(), jt, pre, advisor.Advisor{}, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(h)

	c.CreateInput("/big", 512<<20)
	big := quickJob("big", "/big")
	big.MapParseRate = 8e6 // ~64 s
	jbig, _ := jt.Submit(big)
	c.RunUntil(10 * time.Second)

	c.CreateInput("/small", 64<<20)
	small := quickJob("small", "/small")
	jsmall, _ := jt.Submit(small)

	if !c.RunUntilJobsDone(30 * time.Minute) {
		t.Fatalf("jobs did not finish (big=%v small=%v)", jbig.State(), jsmall.State())
	}
	if h.Preemptions() == 0 {
		t.Fatal("HFSP should preempt the big job for the small one")
	}
	if h.Resumes() == 0 {
		t.Fatal("HFSP should resume the big job afterwards")
	}
	if jsmall.CompletedAt() >= jbig.CompletedAt() {
		t.Fatalf("small job should finish first: small=%v big=%v",
			jsmall.CompletedAt(), jbig.CompletedAt())
	}
}

func TestHFSPNoPreemptionForSingleJob(t *testing.T) {
	c := testClusterWith(t, 1, 1)
	jt := c.JobTracker()
	pre := preemptorFor(t, c, core.Suspend)
	h, err := scheduler.NewHFSP(c.Engine(), jt, pre, advisor.Advisor{}, scheduler.DefaultHFSPConfig())
	if err != nil {
		t.Fatal(err)
	}
	jt.SetScheduler(h)
	c.CreateInput("/in", 128<<20)
	jt.Submit(quickJob("solo", "/in"))
	if !c.RunUntilJobsDone(10 * time.Minute) {
		t.Fatal("job did not finish")
	}
	if h.Preemptions() != 0 {
		t.Fatalf("preemptions = %d, want 0", h.Preemptions())
	}
}

// TestAssignAllocsIndependentOfJobCount checks that a warm fair or hfsp
// Assign allocates the same with ten times as many finished and live
// jobs: task views are not copies, and hfsp reuses its per-call tables.
func TestAssignAllocsIndependentOfJobCount(t *testing.T) {
	allocs := func(t *testing.T, name string, finished, live int) float64 {
		c := testClusterWith(t, 1, 2)
		defer c.Close()
		jt := c.JobTracker()
		pre := preemptorFor(t, c, core.Suspend)
		var s mapreduce.Scheduler
		var err error
		switch name {
		case "fair":
			s, err = scheduler.NewFair(c.Engine(), jt, pre, advisor.Advisor{}, scheduler.DefaultFairConfig(2))
		case "hfsp":
			s, err = scheduler.NewHFSP(c.Engine(), jt, pre, advisor.Advisor{}, scheduler.DefaultHFSPConfig())
		}
		if err != nil {
			t.Fatal(err)
		}
		jt.SetScheduler(s)
		submit := func(n int, prefix string) {
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("/%s%d", prefix, i)
				if err := c.CreateInput(path, 1<<20); err != nil {
					t.Fatal(err)
				}
				if _, err := jt.Submit(quickJob(prefix, path)); err != nil {
					t.Fatal(err)
				}
			}
		}
		submit(finished, "done")
		if !c.RunUntilJobsDone(time.Hour) {
			t.Fatal("finished jobs did not finish")
		}
		submit(live, "live")
		info := mapreduce.TaskTrackerInfo{Name: "tracker_node01", Node: "node01", FreeMapSlots: 2}
		if got := len(s.Assign(info)); got != 2 {
			t.Fatalf("assigned %d tasks, want 2", got)
		}
		return testing.AllocsPerRun(20, func() { s.Assign(info) })
	}
	for _, name := range []string{"fair", "hfsp"} {
		t.Run(name, func(t *testing.T) {
			small, large := allocs(t, name, 20, 4), allocs(t, name, 200, 40)
			if small != large {
				t.Fatalf("Assign allocs = %v with 20 finished and 4 live jobs, %v with 200 and 40; want equal",
					small, large)
			}
		})
	}
}

// TestWarmTicksAndFIFOAssignAllocateNothing checks that once warm, a
// fair or hfsp preemption-check tick and a FIFO Assign allocate nothing.
// The check loops run on an engine of their own, so stepping it fires
// exactly one tick, and the cluster's state holds still between ticks:
// running and pending tasks in two pools, with the preemption timeout
// and delay far away so every tick does the full scan and preempts
// nothing.
func TestWarmTicksAndFIFOAssignAllocateNothing(t *testing.T) {
	setup := func(t *testing.T) *mapreduce.Cluster {
		c := testClusterWith(t, 1, 2)
		t.Cleanup(c.Close)
		return c
	}
	load := func(t *testing.T, c *mapreduce.Cluster) {
		for i, pool := range []string{"batch", "batch", "prod", "prod"} {
			path := fmt.Sprintf("/in%d", i)
			if err := c.CreateInput(path, 256<<20); err != nil {
				t.Fatal(err)
			}
			conf := quickJob(fmt.Sprintf("j%d", i), path)
			conf.Pool = pool
			conf.MapParseRate = 8e6
			if _, err := c.JobTracker().Submit(conf); err != nil {
				t.Fatal(err)
			}
		}
		c.RunUntil(5 * time.Second)
	}
	tick := func(t *testing.T, eng *sim.Engine) {
		t.Helper()
		if got := testing.AllocsPerRun(50, func() { eng.Step() }); got != 0 {
			t.Fatalf("a warm check tick allocates %v objects, want 0", got)
		}
	}
	t.Run("fair", func(t *testing.T) {
		c := setup(t)
		eng := sim.New()
		cfg := scheduler.DefaultFairConfig(2)
		cfg.PreemptionTimeout = time.Hour
		f, err := scheduler.NewFair(eng, c.JobTracker(), preemptorFor(t, c, core.Suspend), advisor.Advisor{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.JobTracker().SetScheduler(f)
		load(t, c)
		tick(t, eng)
	})
	t.Run("hfsp", func(t *testing.T) {
		c := setup(t)
		eng := sim.New()
		cfg := scheduler.DefaultHFSPConfig()
		cfg.PreemptionDelay = time.Hour
		h, err := scheduler.NewHFSP(eng, c.JobTracker(), preemptorFor(t, c, core.Suspend), advisor.Advisor{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.JobTracker().SetScheduler(h)
		load(t, c)
		tick(t, eng)
	})
	t.Run("fifo", func(t *testing.T) {
		c := setup(t)
		f := scheduler.NewFIFO(c.JobTracker())
		c.JobTracker().SetScheduler(f)
		load(t, c)
		info := mapreduce.TaskTrackerInfo{Name: "tracker_node01", Node: "node01", FreeMapSlots: 2}
		if got := len(f.Assign(info)); got != 2 {
			t.Fatalf("assigned %d tasks, want 2", got)
		}
		if got := testing.AllocsPerRun(50, func() { f.Assign(info) }); got != 0 {
			t.Fatalf("a warm FIFO Assign allocates %v objects, want 0", got)
		}
	})
}

func TestFairConfigValidation(t *testing.T) {
	if _, err := scheduler.NewFair(nil, nil, nil, advisor.Advisor{}, scheduler.FairConfig{TotalSlots: 0}); err == nil {
		t.Fatal("zero slots should fail")
	}
}

func TestHFSPConfigValidation(t *testing.T) {
	if _, err := scheduler.NewHFSP(nil, nil, nil, advisor.Advisor{}, scheduler.HFSPConfig{CheckInterval: 0}); err == nil {
		t.Fatal("zero check interval should fail")
	}
}

func TestTriggerEventStrings(t *testing.T) {
	if scheduler.OnProgress.String() != "on-progress" ||
		scheduler.OnComplete.String() != "on-complete" ||
		scheduler.OnSubmit.String() != "on-submit" {
		t.Fatal("trigger event strings wrong")
	}
}
