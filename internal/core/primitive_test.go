package core_test

import (
	"testing"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/experiments"
)

// The primitive behaviour tests drive the full engine through the paper's
// two-job scenario.

func run(t *testing.T, prim core.Primitive, tlMem, thMem int64) *experiments.TwoJobResult {
	t.Helper()
	p := experiments.DefaultTwoJobParams()
	p.Primitive = prim
	p.PreemptAt = 0.5
	p.TLExtraMemory = tlMem
	p.THExtraMemory = thMem
	out, err := experiments.RunTwoJob(p)
	if err != nil {
		t.Fatalf("RunTwoJob(%v): %v", prim, err)
	}
	return out
}

func TestSuspendPrimitiveSuspendsOnce(t *testing.T) {
	out := run(t, core.Suspend, 0, 0)
	if out.TLSuspensions != 1 {
		t.Fatalf("suspensions = %d, want 1", out.TLSuspensions)
	}
	if out.TLAttempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no restart)", out.TLAttempts)
	}
	if out.WastedWork != 0 {
		t.Fatalf("wasted work = %v, want 0", out.WastedWork)
	}
}

func TestKillPrimitiveRestartsFromScratch(t *testing.T) {
	out := run(t, core.Kill, 0, 0)
	if out.TLAttempts != 2 {
		t.Fatalf("attempts = %d, want 2", out.TLAttempts)
	}
	if out.WastedWork == 0 {
		t.Fatal("kill must waste work")
	}
	if out.TLSuspensions != 0 {
		t.Fatalf("suspensions = %d, want 0", out.TLSuspensions)
	}
}

func TestWaitPrimitiveDoesNothing(t *testing.T) {
	out := run(t, core.Wait, 0, 0)
	if out.TLAttempts != 1 || out.TLSuspensions != 0 {
		t.Fatalf("wait should not disturb tl: attempts=%d suspensions=%d",
			out.TLAttempts, out.TLSuspensions)
	}
	// th had to wait for tl: sojourn includes ~half of tl's runtime.
	susp := run(t, core.Suspend, 0, 0)
	if out.SojournTH <= susp.SojournTH {
		t.Fatalf("wait sojourn (%v) should exceed suspend sojourn (%v)",
			out.SojournTH, susp.SojournTH)
	}
}

func TestSuspendBeatsKillOnMakespan(t *testing.T) {
	susp := run(t, core.Suspend, 0, 0)
	kill := run(t, core.Kill, 0, 0)
	if susp.Makespan >= kill.Makespan {
		t.Fatalf("suspend makespan (%v) should beat kill (%v): kill wastes work",
			susp.Makespan, kill.Makespan)
	}
}

func TestSuspendBeatsWaitOnSojourn(t *testing.T) {
	susp := run(t, core.Suspend, 0, 0)
	wait := run(t, core.Wait, 0, 0)
	if susp.SojournTH >= wait.SojournTH {
		t.Fatalf("suspend sojourn (%v) should beat wait (%v)",
			susp.SojournTH, wait.SojournTH)
	}
}

func TestCheckpointPaysSerializationEvenWithFreeMemory(t *testing.T) {
	susp := run(t, core.Suspend, 0, 0)
	ckpt := run(t, core.Checkpoint, 0, 0)
	if ckpt.SojournTH <= susp.SojournTH {
		t.Fatalf("checkpoint sojourn (%v) should exceed suspend (%v): serialization delays the slot",
			ckpt.SojournTH, susp.SojournTH)
	}
	if ckpt.Makespan <= susp.Makespan {
		t.Fatalf("checkpoint makespan (%v) should exceed suspend (%v)",
			ckpt.Makespan, susp.Makespan)
	}
	if ckpt.TLSuspensions != 1 {
		t.Fatalf("checkpoint suspensions = %d, want 1", ckpt.TLSuspensions)
	}
}

func TestSuspendPagesOutOnlyUnderPressure(t *testing.T) {
	light := run(t, core.Suspend, 0, 0)
	if light.SwapOutTL != 0 {
		t.Fatalf("light tasks should not swap, got %d bytes", light.SwapOutTL)
	}
	heavy := run(t, core.Suspend, experiments.WorstCaseMemory, experiments.WorstCaseMemory)
	if heavy.SwapOutTL == 0 {
		t.Fatal("memory-hungry tasks should force tl to swap")
	}
	if heavy.SwapInTL == 0 {
		t.Fatal("resumed tl should page its state back in")
	}
}

func TestNewPreemptorValidation(t *testing.T) {
	if _, err := core.NewPreemptor(nil, nil, core.Primitive(99), nil, core.CheckpointConfig{}); err == nil {
		t.Fatal("unknown primitive should fail")
	}
	if _, err := core.NewPreemptor(nil, nil, core.Checkpoint, nil, core.CheckpointConfig{}); err == nil {
		t.Fatal("checkpoint without device resolver should fail")
	}
}

func TestPrimitiveStrings(t *testing.T) {
	for p, want := range map[core.Primitive]string{
		core.Wait: "wait", core.Kill: "kill", core.Suspend: "susp", core.Checkpoint: "checkpoint",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestParsePrimitive(t *testing.T) {
	for s, want := range map[string]core.Primitive{
		"wait": core.Wait, "kill": core.Kill, "susp": core.Suspend, "suspend": core.Suspend,
		"checkpoint": core.Checkpoint, "natjam": core.Checkpoint,
	} {
		got, err := core.ParsePrimitive(s)
		if err != nil || got != want {
			t.Errorf("ParsePrimitive(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := core.ParsePrimitive("bogus"); err == nil {
		t.Fatal("bogus primitive should fail")
	}
}

func TestPrimitivesList(t *testing.T) {
	ps := core.Primitives()
	if len(ps) != 3 || ps[0] != core.Wait || ps[1] != core.Kill || ps[2] != core.Suspend {
		t.Fatalf("Primitives() = %v", ps)
	}
}
