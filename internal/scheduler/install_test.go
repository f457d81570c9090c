package scheduler_test

import (
	"testing"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/scheduler"
)

func TestInstall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dummy bool
	}{
		{"priority", true},
		{"fifo", false},
		{"fair", false},
		{"hfsp", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testClusterWith(t, 1, 1)
			defer c.Close()
			in, err := scheduler.Install(c, tc.name, core.Kill, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if (in.Dummy != nil) != tc.dummy {
				t.Fatalf("Dummy = %v, want installed: %v", in.Dummy, tc.dummy)
			}
			if in.Preemptor.Primitive() != core.Kill {
				t.Fatalf("preemptor primitive = %v, want kill", in.Preemptor.Primitive())
			}
			if cfg := in.Advisor.Config(); cfg.Policy != advisor.MostProgress || cfg.Primitive != core.Kill {
				t.Fatalf("advisor = %v/%v, want most-progress forced to kill", cfg.Policy, cfg.Primitive)
			}
			// The installed scheduler assigns slots: a job runs through.
			c.CreateInput("/in", 64<<20)
			if _, err := c.JobTracker().Submit(quickJob("j", "/in")); err != nil {
				t.Fatal(err)
			}
			if !c.RunUntilJobsDone(10 * time.Minute) {
				t.Fatal("job did not finish")
			}
			if in.Preemptions() != 0 || in.Resumes() != 0 {
				t.Fatalf("preemptions/resumes = %d/%d for a lone job, want 0/0",
					in.Preemptions(), in.Resumes())
			}

			bad := testClusterWith(t, 1, 1)
			defer bad.Close()
			if _, err := scheduler.Install(bad, tc.name, core.Suspend, "bogus", 0); err == nil {
				t.Fatal("bogus eviction policy should fail")
			}
			if _, err := scheduler.Install(bad, tc.name, core.Primitive(99), "", 0); err == nil {
				t.Fatal("unknown primitive should fail")
			}
		})
	}
	c := testClusterWith(t, 1, 1)
	defer c.Close()
	if _, err := scheduler.Install(c, "lottery", core.Suspend, "", 0); err == nil {
		t.Fatal("unknown scheduler should fail")
	}
}

// TestSmallestMemorySuspendsLightTask runs a light task and a 2 GB one
// side by side, then starves a small job of a slot. Under
// smallest-memory the preempting schedulers must suspend the light task.
// Without real resident bytes every candidate ties and the advisor falls
// back to the lexically smallest ID, which is the heavy job's.
func TestSmallestMemorySuspendsLightTask(t *testing.T) {
	for _, name := range []string{"fair", "hfsp"} {
		t.Run(name, func(t *testing.T) {
			c := testClusterWith(t, 1, 2)
			defer c.Close()
			in, err := scheduler.Install(c, name, core.Suspend, "smallest-memory", 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			jt := c.JobTracker()
			var batch []*mapreduce.Job
			for _, extra := range []struct {
				name  string
				bytes int64
			}{{"light", 0}, {"heavy", 2 << 30}} {
				c.CreateInput("/"+extra.name, 512<<20)
				conf := quickJob(extra.name, "/"+extra.name)
				conf.Pool = "batch"
				conf.MapParseRate = 8e6 // ~64 s
				conf.ExtraMemoryBytes = extra.bytes
				j, err := jt.Submit(conf)
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, j)
			}
			c.RunUntil(20 * time.Second)
			c.CreateInput("/small", 64<<20)
			small := quickJob("small", "/small")
			small.Pool = "prod"
			if _, err := jt.Submit(small); err != nil {
				t.Fatal(err)
			}
			if !c.RunUntilJobsDone(30 * time.Minute) {
				t.Fatal("jobs did not finish")
			}
			if in.Preemptions() == 0 {
				t.Fatal("the starved small job should have preempted a batch task")
			}
			light, heavy := batch[0].Totals(), batch[1].Totals()
			if light.Suspensions == 0 || heavy.Suspensions != 0 {
				t.Fatalf("suspensions light/heavy = %d/%d, want the light task suspended and the heavy one not",
					light.Suspensions, heavy.Suspensions)
			}
		})
	}
}
