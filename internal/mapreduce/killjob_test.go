package mapreduce

import (
	"testing"
	"time"
)

func TestKillJobStopsRunningTasks(t *testing.T) {
	c := newCluster(t, 1, 2)
	c.CreateInput("/in", 512<<20)
	conf := lightJobConf("victim", "/in")
	conf.MapParseRate = 8e6 // long enough to kill mid-flight
	job, err := c.JobTracker().Submit(conf)
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(10 * time.Second)
	if job.State() != JobRunning {
		t.Fatalf("setup: job state = %v", job.State())
	}
	if err := c.JobTracker().KillJob(job.ID()); err != nil {
		t.Fatal(err)
	}
	checkStateCounts(t, job)
	if job.State() != JobFailed {
		t.Fatalf("state = %v, want FAILED", job.State())
	}
	// Let the kill actions flow; the slot must come back.
	c.RunUntil(20 * time.Second)
	if free := c.Node(0).Tracker.FreeMapSlots(); free != 2 {
		t.Fatalf("free slots = %d, want 2 after job kill", free)
	}
	for _, task := range job.Tasks() {
		if task.State() != TaskKilled {
			t.Fatalf("task %s state = %v, want KILLED", task.ID(), task.State())
		}
	}
	checkStateCounts(t, job)
}

func TestKillJobOnPendingJob(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/a", 512<<20)
	c.CreateInput("/b", 64<<20)
	long := lightJobConf("long", "/a")
	long.MapParseRate = 8e6
	c.JobTracker().Submit(long)
	queued, _ := c.JobTracker().Submit(lightJobConf("queued", "/b"))
	c.RunUntil(5 * time.Second)
	if err := c.JobTracker().KillJob(queued.ID()); err != nil {
		t.Fatal(err)
	}
	checkStateCounts(t, queued)
	if queued.State() != JobFailed {
		t.Fatalf("state = %v, want FAILED", queued.State())
	}
	// The killed pending job must never launch.
	c.RunUntil(30 * time.Second)
	if queued.MapTasks()[0].Attempts() != 0 {
		t.Fatal("killed pending task should never launch")
	}
}

func TestKillJobErrors(t *testing.T) {
	c := newCluster(t, 1, 1)
	if err := c.JobTracker().KillJob("ghost"); err == nil {
		t.Fatal("unknown job should fail")
	}
	c.CreateInput("/in", 64<<20)
	job, _ := c.JobTracker().Submit(lightJobConf("j", "/in"))
	c.RunUntilJobsDone(10 * time.Minute)
	if err := c.JobTracker().KillJob(job.ID()); err == nil {
		t.Fatal("killing a finished job should fail")
	}
}

func TestKillJobWithSuspendedTask(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.CreateInput("/in", 512<<20)
	conf := lightJobConf("v", "/in")
	conf.MapParseRate = 8e6
	job, _ := c.JobTracker().Submit(conf)
	task := job.MapTasks()[0]
	c.RunUntil(10 * time.Second)
	if err := c.JobTracker().SuspendTask(task.ID()); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(15 * time.Second)
	if task.State() != TaskSuspended {
		t.Fatalf("setup: state = %v", task.State())
	}
	if err := c.JobTracker().KillJob(job.ID()); err != nil {
		t.Fatal(err)
	}
	checkStateCounts(t, job)
	c.RunUntil(25 * time.Second)
	if free := c.Node(0).Tracker.FreeMapSlots(); free != 1 {
		t.Fatalf("free slots = %d, want 1 (suspended victim cleaned up)", free)
	}
	checkStateCounts(t, job)
}
