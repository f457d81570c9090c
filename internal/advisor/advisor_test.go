package advisor_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
	"hadooppreempt/internal/sim"
)

var allPolicies = []advisor.Policy{
	advisor.MostProgress, advisor.LeastProgress,
	advisor.SmallestMemory, advisor.LargestMemory,
	advisor.Oldest, advisor.Youngest,
}

// randomCandidates draws n candidates with deliberately colliding keys
// (few distinct progress/memory/start values, duplicated IDs on
// distinct indices) so the differential test exercises the tie-break
// path, not just the obvious orderings.
func randomCandidates(rng *sim.RNG, n int) []advisor.Candidate {
	cs := make([]advisor.Candidate, n)
	for i := range cs {
		cs[i] = advisor.Candidate{
			ID:            fmt.Sprintf("job%d_m_%06d", rng.Intn(4), rng.Intn(8)),
			Progress:      float64(rng.Intn(5)) / 4,
			ResidentBytes: int64(rng.Intn(4)) << 27,
			StartedAt:     time.Duration(rng.Intn(6)) * time.Second,
		}
	}
	return cs
}

// TestDecideMatchesCorePolicies is the golden-compat proof: on
// randomized candidate sets, Decide's victim is byte-for-byte the one
// the reference policy (reference_test.go) picks, and with the default
// thresholds its primitive is the reference advisor's verdict.
// This is what licenses rewiring the simulators through the advisor
// without touching the committed goldens.
func TestDecideMatchesCorePolicies(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, p := range allPolicies {
		ref, err := refPolicyByName(p.String())
		if err != nil {
			t.Fatalf("refPolicyByName(%q): %v", p, err)
		}
		adv, err := advisor.New(advisor.Config{
			Policy: p, KillBelow: 0.05, WaitAbove: 0.95,
		})
		if err != nil {
			t.Fatalf("New(%v): %v", p, err)
		}
		refAdv := defaultRefAdvisor()
		for trial := 0; trial < 500; trial++ {
			cs := randomCandidates(rng, 1+rng.Intn(12))
			d := adv.Decide(advisor.Request{Candidates: cs})
			want, ok := ref.SelectVictim(cs)
			if !ok {
				t.Fatalf("%v: reference rejected a non-empty set", p)
			}
			if d.Victim < 0 || d.Victim >= len(cs) || cs[d.Victim] != want {
				t.Fatalf("%v trial %d: Decide picked %+v (index %d), reference picked %+v\ncandidates: %+v",
					p, trial, cs[d.Victim], d.Victim, want, cs)
			}
			if got, wantP := d.Primitive, refAdv.Choose(want.Progress); got != wantP {
				t.Fatalf("%v trial %d: Decide primitive %v, reference Choose(%v) = %v",
					p, trial, got, want.Progress, wantP)
			}
			if d.Pressured {
				t.Fatalf("%v trial %d: Pressured set with the override disabled", p, trial)
			}
		}
	}
}

// TestDecideEmptyAndSingle covers the edges of the candidate set.
func TestDecideEmptyAndSingle(t *testing.T) {
	adv, err := advisor.New(advisor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := adv.Decide(advisor.Request{}); d.Victim != advisor.NoVictim {
		t.Fatalf("empty set: Victim = %d, want NoVictim", d.Victim)
	}
	one := []advisor.Candidate{{ID: "job1_m_000000", Progress: 0.5}}
	if d := adv.Decide(advisor.Request{Candidates: one}); d.Victim != 0 || d.Primitive != core.Suspend {
		t.Fatalf("single candidate: got %+v, want victim 0 / suspend", d)
	}
}

// TestDecideForcedPrimitive checks the scheduler-style configuration:
// every verdict is the wired preemptor's primitive.
func TestDecideForcedPrimitive(t *testing.T) {
	for _, prim := range []core.Primitive{core.Wait, core.Kill, core.Suspend, core.Checkpoint} {
		adv, err := advisor.New(advisor.Config{Policy: advisor.SmallestMemory, Primitive: prim})
		if err != nil {
			t.Fatalf("New(forced %v): %v", prim, err)
		}
		cs := []advisor.Candidate{
			{ID: "job1_m_000000", Progress: 0.01, ResidentBytes: 2 << 30},
			{ID: "job2_m_000000", Progress: 0.99, ResidentBytes: 1 << 30},
		}
		d := adv.Decide(advisor.Request{Candidates: cs})
		if d.Victim != 1 {
			t.Fatalf("forced %v: victim %d, want 1 (smallest memory)", prim, d.Victim)
		}
		if d.Primitive != prim {
			t.Fatalf("forced %v: primitive %v", prim, d.Primitive)
		}
	}
}

// TestDecidePressureOverride checks the memory-pressure conversion:
// a suspend verdict becomes kill exactly when the victim won't fit in
// free memory AND its progress is under the pressure threshold.
func TestDecidePressureOverride(t *testing.T) {
	adv, err := advisor.New(advisor.Config{
		Policy: advisor.LargestMemory, KillBelow: 0.05, WaitAbove: 0.95,
		PressureKillBelow: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(progress float64, resident int64) []advisor.Candidate {
		return []advisor.Candidate{{ID: "job1_m_000000", Progress: progress, ResidentBytes: resident}}
	}
	cases := []struct {
		name      string
		progress  float64
		free      int64
		wantPrim  core.Primitive
		pressured bool
	}{
		{"young, doesn't fit: converted", 0.10, 1 << 28, core.Kill, true},
		{"young, fits: suspend stands", 0.10, 1 << 31, core.Suspend, false},
		{"mid-progress, doesn't fit: too much to redo", 0.50, 1 << 28, core.Suspend, false},
		{"below KillBelow: plain kill, not pressure", 0.01, 1 << 28, core.Kill, false},
		{"above WaitAbove: wait, never converted", 0.99, 1 << 28, core.Wait, false},
	}
	for _, tc := range cases {
		d := adv.Decide(advisor.Request{Candidates: mk(tc.progress, 1<<30), FreeBytes: tc.free})
		if d.Primitive != tc.wantPrim || d.Pressured != tc.pressured {
			t.Errorf("%s: got %v pressured=%v, want %v pressured=%v",
				tc.name, d.Primitive, d.Pressured, tc.wantPrim, tc.pressured)
		}
	}
}

// TestDecideZeroAlloc is the satellite regression test: a decision
// over a reused scratch slice performs zero heap allocations, for
// every policy and both cost models.
func TestDecideZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(11)
	scratch := randomCandidates(rng, 16)
	configs := []advisor.Config{
		advisor.DefaultConfig(),
		{Policy: advisor.SmallestMemory, Primitive: core.Suspend},
		{Policy: advisor.LargestMemory, KillBelow: 0.05, WaitAbove: 0.95, PressureKillBelow: 0.3},
	}
	for _, p := range allPolicies {
		configs = append(configs, advisor.Config{Policy: p, KillBelow: 0.05, WaitAbove: 0.95})
	}
	for _, cfg := range configs {
		adv, err := advisor.New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		req := advisor.Request{Candidates: scratch, FreeBytes: 1 << 28}
		var sink advisor.Decision
		allocs := testing.AllocsPerRun(200, func() {
			sink = adv.Decide(req)
		})
		if allocs != 0 {
			t.Errorf("config %+v: %v allocs/decision, want 0", cfg, allocs)
		}
		_ = sink
	}
}

// TestDecideConcurrent shares one Advisor across goroutines (each with
// its own scratch slice, as the API requires) under the race detector.
func TestDecideConcurrent(t *testing.T) {
	adv, err := advisor.New(advisor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := mostProgress()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed)
			scratch := randomCandidates(rng, 8)
			for i := 0; i < 2000; i++ {
				// Mutate the caller-owned scratch between calls, as a
				// scheduler refreshing progress values would.
				j := rng.Intn(len(scratch))
				scratch[j].Progress = float64(rng.Intn(5)) / 4
				d := adv.Decide(advisor.Request{Candidates: scratch})
				want, _ := ref.SelectVictim(scratch)
				if scratch[d.Victim] != want {
					t.Errorf("goroutine %d iter %d: victim mismatch", seed, i)
					return
				}
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
}

// TestNewValidation pins the config contract.
func TestNewValidation(t *testing.T) {
	bad := []advisor.Config{
		{},                          // no policy
		{Policy: advisor.Policy(7)}, // out of range
		{Policy: advisor.MostProgress, Primitive: core.Primitive(9)},
		{Policy: advisor.MostProgress, KillBelow: 0.9, WaitAbove: 0.1}, // inverted
		{Policy: advisor.MostProgress, KillBelow: -0.1, WaitAbove: 0.95},
		{Policy: advisor.MostProgress, KillBelow: 0.05, WaitAbove: 1.5},
		{Policy: advisor.MostProgress, KillBelow: 0.05, WaitAbove: 0.95, PressureKillBelow: 2},
		{Policy: advisor.MostProgress, Primitive: core.Kill, PressureKillBelow: 0.3}, // override needs thresholds
	}
	for _, cfg := range bad {
		if a, err := advisor.New(cfg); err == nil || a.Valid() {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if a, err := advisor.New(advisor.DefaultConfig()); err != nil || !a.Valid() {
		t.Errorf("New(DefaultConfig()) = %v, %v", a.Valid(), err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Decide on a zero Advisor did not panic")
		}
	}()
	var zero advisor.Advisor
	zero.Decide(advisor.Request{Candidates: []advisor.Candidate{{ID: "x"}}})
}

// TestPolicyNamesRoundTrip keeps the label set in lockstep with the
// reference's.
func TestPolicyNamesRoundTrip(t *testing.T) {
	for _, p := range allPolicies {
		got, err := advisor.PolicyByName(p.String())
		if err != nil || got != p {
			t.Errorf("PolicyByName(%q) = %v, %v", p.String(), got, err)
		}
		if _, err := refPolicyByName(p.String()); err != nil {
			t.Errorf("the reference does not know label %q", p.String())
		}
	}
	if _, err := advisor.PolicyByName("round-robin"); err == nil {
		t.Error("PolicyByName accepted an unknown label")
	}
}
