package experiments

import (
	"testing"
	"time"
)

func TestRunCyclesZeroIsPlainRun(t *testing.T) {
	res, err := RunCycles(DefaultCycleParams(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Fatalf("cycles = %d, want 0", res.Cycles)
	}
	if res.TLSwapOut != 0 || res.TLSwapIn != 0 {
		t.Fatal("no preemption should mean no swap")
	}
}

func TestRunCyclesCountsSuspensions(t *testing.T) {
	res, err := RunCycles(DefaultCycleParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 2 || res.Cycles > 3 {
		t.Fatalf("cycles = %d, want ~3 (thresholds may collapse)", res.Cycles)
	}
	if res.TLSwapOut == 0 || res.TLSwapIn == 0 {
		t.Fatal("worst-case cycles should swap")
	}
	if res.PeakSwapRate <= 0 {
		t.Fatal("thrashing detector should observe swap traffic")
	}
}

func TestCycleSojournGrowsPerCycle(t *testing.T) {
	// §III-A: the moderate cost of a suspend-resume cycle is multiplied
	// by the number of cycles. tl's sojourn must grow roughly linearly.
	res := runFigure[[]*CycleResult](t, "cycles", 1)
	for i := 1; i < len(res); i++ {
		if res[i].TLSojourn <= res[i-1].TLSojourn {
			t.Fatalf("sojourn did not grow at cycle %d: %v -> %v",
				i, res[i-1].TLSojourn, res[i].TLSojourn)
		}
	}
	// Per-cycle increments beyond the high-priority jobs' own runtime
	// should be bounded (a few seconds), not runaway thrashing: pages go
	// out and in at most once per cycle.
	first := res[1].TLSojourn - res[0].TLSojourn
	last := res[len(res)-1].TLSojourn - res[len(res)-2].TLSojourn
	if last > 3*first {
		t.Fatalf("per-cycle cost exploding: first %v vs last %v", first, last)
	}
}

func TestCycleSwapAmortizedForColdState(t *testing.T) {
	// Cold (write-once) state keeps a valid swap slot between cycles, so
	// repeated suspensions do not multiply write traffic — the §III-A
	// guarantee that pages go to swap at most once.
	res := runFigure[[]*CycleResult](t, "cycles", 1)
	one := res[1].TLSwapOut
	five := res[5].TLSwapOut
	if five > one*2 {
		t.Fatalf("cold-state swap writes should amortize: 1 cycle %d MB, 5 cycles %d MB",
			one>>20, five>>20)
	}
}

func TestRunCyclesValidation(t *testing.T) {
	p := DefaultCycleParams(0)
	p.Cycles = -1
	if _, err := RunCycles(p); err == nil {
		t.Fatal("negative cycles should fail")
	}
}

func TestCycleResultPlausible(t *testing.T) {
	res, err := RunCycles(DefaultCycleParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TLSojourn < 90*time.Second || res.TLSojourn > 10*time.Minute {
		t.Fatalf("implausible sojourn %v", res.TLSojourn)
	}
}
