package experiments

import (
	"testing"

	"hadooppreempt/internal/core"
)

func TestEvictionSmallestMemoryPicksLightJob(t *testing.T) {
	res, err := RunEvictionComparison("smallest-memory", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim != "light" {
		t.Fatalf("victim = %s, want light", res.Victim)
	}
	// Suspending the light task leaves almost nothing to page.
	if res.VictimSwap > 512<<20 {
		t.Fatalf("light victim swapped %d MB, want little", res.VictimSwap>>20)
	}
}

func TestEvictionLargestMemoryPicksHeavyJob(t *testing.T) {
	res, err := RunEvictionComparison("largest-memory", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim != "heavy" {
		t.Fatalf("victim = %s, want heavy", res.Victim)
	}
}

func TestEvictionSmallestMemoryReducesPaging(t *testing.T) {
	small, err := RunEvictionComparison("smallest-memory", 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunEvictionComparison("largest-memory", 1)
	if err != nil {
		t.Fatal(err)
	}
	// §V-A: suspending the smaller footprint reduces suspension overhead.
	if small.VictimSwap >= large.VictimSwap {
		t.Fatalf("smallest-memory victim swap (%d MB) should be below largest-memory (%d MB)",
			small.VictimSwap>>20, large.VictimSwap>>20)
	}
}

func TestEvictionUnknownPolicyFails(t *testing.T) {
	if _, err := RunEvictionComparison("bogus", 1); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestAdvisorSweepPicksByProgress(t *testing.T) {
	res := runFigure[[]*AdvisorResult](t, "advisor", 1)
	want := map[float64]core.Primitive{
		0.02: core.Kill, 0.25: core.Suspend, 0.5: core.Suspend, 0.75: core.Suspend, 0.97: core.Wait,
	}
	if len(res) != len(want) {
		t.Fatalf("%d points, want %d", len(res), len(want))
	}
	for _, r := range res {
		if r.Chosen != want[r.R] {
			t.Fatalf("at r=%v%% advisor chose %v, want %v", r.R*100, r.Chosen, want[r.R])
		}
	}
	// The advisor must never be much worse than the best fixed primitive
	// on makespan.
	for _, r := range res {
		best := r.Makespans["wait"]
		for _, prim := range []string{"kill", "susp"} {
			if r.Makespans[prim] < best {
				best = r.Makespans[prim]
			}
		}
		adv := r.Makespans["advisor"]
		if float64(adv) > float64(best)*1.10 {
			t.Fatalf("r=%v: advisor makespan %v more than 10%% above best fixed %v", r.R, adv, best)
		}
	}
}
