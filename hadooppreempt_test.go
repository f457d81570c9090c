package hadooppreempt_test

import (
	"strings"
	"testing"
	"time"

	hp "hadooppreempt"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	cluster, err := hp.New(hp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.CreateInput("/data", 128<<20); err != nil {
		t.Fatal(err)
	}
	job, err := cluster.Submit(hp.JobConfig{
		Name: "quick", InputPath: "/data", MapParseRate: 16e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cluster.RunUntilJobsDone(time.Hour) {
		t.Fatalf("job did not finish: %v", job.State())
	}
	st, err := cluster.Stats("quick")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "SUCCEEDED" || st.Sojourn <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeManualPreemption(t *testing.T) {
	for _, tc := range []struct {
		prim hp.Primitive
		// suspensions and attempts are lo's; gantt must appear in the
		// chart: the suspension, or the cleanup row a kill leaves.
		suspensions, attempts int
		gantt                 string
	}{
		{hp.Suspend, 1, 1, "="},
		{hp.Kill, 0, 2, "cleanup |"},
	} {
		t.Run(tc.prim.String(), func(t *testing.T) {
			cluster, err := hp.New(hp.Options{Primitive: tc.prim})
			if err != nil {
				t.Fatal(err)
			}
			cluster.CreateInput("/lo", 512<<20)
			cluster.CreateInput("/hi", 512<<20)
			if _, err := cluster.Submit(hp.JobConfig{
				Name: "lo", InputPath: "/lo", MapParseRate: 6.5e6,
			}); err != nil {
				t.Fatal(err)
			}
			err = cluster.OnJobProgress("lo", 0.5, func() {
				if _, err := cluster.Submit(hp.JobConfig{
					Name: "hi", InputPath: "/hi", Priority: 10, MapParseRate: 6.5e6,
				}); err != nil {
					t.Errorf("submit hi: %v", err)
				}
				if err := cluster.PreemptJob("lo"); err != nil {
					t.Errorf("preempt lo: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.OnJobComplete("hi", func() {
				if err := cluster.RestoreJob("lo"); err != nil {
					t.Errorf("restore lo: %v", err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if !cluster.RunUntilJobsDone(2 * time.Hour) {
				t.Fatal("jobs did not finish")
			}
			lo, _ := cluster.Stats("lo")
			hi, _ := cluster.Stats("hi")
			if lo.Suspensions != tc.suspensions || lo.Attempts != tc.attempts {
				t.Fatalf("lo suspensions/attempts = %d/%d, want %d/%d",
					lo.Suspensions, lo.Attempts, tc.suspensions, tc.attempts)
			}
			loJob, _ := cluster.Job("lo")
			hiJob, _ := cluster.Job("hi")
			if hiJob.CompletedAt() >= loJob.CompletedAt() {
				t.Fatal("hi should complete before preempted lo")
			}
			if hi.State != "SUCCEEDED" {
				t.Fatalf("hi state = %s", hi.State)
			}
			if gantt := cluster.Gantt(60); !strings.Contains(gantt, tc.gantt) {
				t.Fatalf("gantt should contain %q:\n%s", tc.gantt, gantt)
			}
		})
	}
}

func TestFacadeFairScheduler(t *testing.T) {
	cluster, err := hp.New(hp.Options{
		Scheduler:       hp.SchedulerFair,
		MapSlotsPerNode: 2,
		Primitive:       hp.Suspend,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.CreateInput("/a", 256<<20)
	cluster.CreateInput("/b", 64<<20)
	cluster.Submit(hp.JobConfig{Name: "a", InputPath: "/a", Pool: "batch", MapParseRate: 8e6})
	cluster.SubmitAt(10*time.Second, hp.JobConfig{Name: "b", InputPath: "/b", Pool: "prod", MapParseRate: 8e6})
	if !cluster.RunUntilJobsDone(2 * time.Hour) {
		t.Fatal("jobs did not finish")
	}
}

func TestFacadeTriggersRequirePriorityScheduler(t *testing.T) {
	cluster, err := hp.New(hp.Options{Scheduler: hp.SchedulerFIFO})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.OnJobProgress("x", 0.5, func() {}); err == nil {
		t.Fatal("triggers should require the priority scheduler")
	}
	if err := cluster.OnJobComplete("x", func() {}); err == nil {
		t.Fatal("triggers should require the priority scheduler")
	}
}

func TestFacadeDuplicateJobName(t *testing.T) {
	cluster, _ := hp.New(hp.Options{})
	cluster.CreateInput("/in", 64<<20)
	if _, err := cluster.Submit(hp.JobConfig{Name: "j", InputPath: "/in", MapParseRate: 1e6}); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Submit(hp.JobConfig{Name: "j", InputPath: "/in", MapParseRate: 1e6}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestFacadeUnknownJobErrors(t *testing.T) {
	cluster, _ := hp.New(hp.Options{})
	if err := cluster.PreemptJob("ghost"); err == nil {
		t.Fatal("preempt of unknown job should fail")
	}
	if err := cluster.RestoreJob("ghost"); err == nil {
		t.Fatal("restore of unknown job should fail")
	}
	if _, err := cluster.Stats("ghost"); err == nil {
		t.Fatal("stats of unknown job should fail")
	}
}

func TestFacadeExperimentReexports(t *testing.T) {
	p := hp.DefaultTwoJobParams()
	p.Primitive = hp.Suspend
	out, err := hp.RunTwoJob(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.SojournTH <= 0 || out.Makespan <= out.SojournTH {
		t.Fatalf("implausible result: %+v", out)
	}
}

func TestFacadeBadOptions(t *testing.T) {
	if _, err := hp.New(hp.Options{EvictionPolicy: "bogus"}); err == nil {
		t.Fatal("bogus eviction policy should fail")
	}
	if _, err := hp.New(hp.Options{Scheduler: hp.SchedulerKind(99)}); err == nil {
		t.Fatal("bogus scheduler should fail")
	}
}
