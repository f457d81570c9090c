package advisor_test

// This file preserves the original interface-based victim-selection
// policies and threshold advisor as an executable reference model. The
// production Advisor replaced them with one allocation-free enum switch
// (see advisor.go); the differential tests in advisor_test.go drive
// both through randomized candidate sets and assert identical victims
// and primitives. Keep this model naive and obviously correct — it is
// the specification.

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"hadooppreempt/internal/advisor"
	"hadooppreempt/internal/core"
)

// refPolicy picks which task to preempt when a high-priority task needs
// a slot. §V-A discusses the space: Natjam suspends tasks closest to
// completion to even out job progress; minimizing paging overhead
// instead favours the smallest memory footprint.
type refPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// SelectVictim returns the task to preempt. ok is false when the
	// candidate set is empty.
	SelectVictim(candidates []advisor.Candidate) (victim advisor.Candidate, ok bool)
}

// policyFunc adapts a selection function.
type policyFunc struct {
	name string
	pick func([]advisor.Candidate) advisor.Candidate
}

func (p policyFunc) Name() string { return p.name }

func (p policyFunc) SelectVictim(cs []advisor.Candidate) (advisor.Candidate, bool) {
	if len(cs) == 0 {
		return advisor.Candidate{}, false
	}
	return p.pick(cs), true
}

// argBest returns the candidate maximizing better(a, b) == a preferred,
// breaking ties by ID for determinism.
func argBest(cs []advisor.Candidate, better func(a, b advisor.Candidate) bool) advisor.Candidate {
	best := cs[0]
	for _, c := range cs[1:] {
		if better(c, best) || (!better(best, c) && c.ID < best.ID) {
			best = c
		}
	}
	return best
}

// mostProgress prefers the task closest to completion (Natjam's
// SRT-style policy: keeps all of a job's tasks at similar completion
// levels, good for sojourn times).
func mostProgress() refPolicy {
	return policyFunc{name: "most-progress", pick: func(cs []advisor.Candidate) advisor.Candidate {
		return argBest(cs, func(a, b advisor.Candidate) bool { return a.Progress > b.Progress })
	}}
}

// leastProgress prefers the freshest task (least work wasted if the
// primitive is kill).
func leastProgress() refPolicy {
	return policyFunc{name: "least-progress", pick: func(cs []advisor.Candidate) advisor.Candidate {
		return argBest(cs, func(a, b advisor.Candidate) bool { return a.Progress < b.Progress })
	}}
}

// smallestMemory prefers the task with the smallest resident set,
// minimizing paging overhead for the suspend primitive — the strategy
// §V-A derives from the paper's Figure 4.
func smallestMemory() refPolicy {
	return policyFunc{name: "smallest-memory", pick: func(cs []advisor.Candidate) advisor.Candidate {
		return argBest(cs, func(a, b advisor.Candidate) bool { return a.ResidentBytes < b.ResidentBytes })
	}}
}

// largestMemory prefers the task with the largest resident set (frees
// the most memory for the incoming task; worst case for suspend
// overhead).
func largestMemory() refPolicy {
	return policyFunc{name: "largest-memory", pick: func(cs []advisor.Candidate) advisor.Candidate {
		return argBest(cs, func(a, b advisor.Candidate) bool { return a.ResidentBytes > b.ResidentBytes })
	}}
}

// oldest prefers the longest-running task.
func oldest() refPolicy {
	return policyFunc{name: "oldest", pick: func(cs []advisor.Candidate) advisor.Candidate {
		return argBest(cs, func(a, b advisor.Candidate) bool { return a.StartedAt < b.StartedAt })
	}}
}

// youngest prefers the most recently started task.
func youngest() refPolicy {
	return policyFunc{name: "youngest", pick: func(cs []advisor.Candidate) advisor.Candidate {
		return argBest(cs, func(a, b advisor.Candidate) bool { return a.StartedAt > b.StartedAt })
	}}
}

// refPolicyByName resolves a policy label.
func refPolicyByName(name string) (refPolicy, error) {
	switch name {
	case "most-progress":
		return mostProgress(), nil
	case "least-progress":
		return leastProgress(), nil
	case "smallest-memory":
		return smallestMemory(), nil
	case "largest-memory":
		return largestMemory(), nil
	case "oldest":
		return oldest(), nil
	case "youngest":
		return youngest(), nil
	default:
		return nil, fmt.Errorf("unknown eviction policy %q", name)
	}
}

// refAdvisor chooses a primitive per victim following §V-A: freshly
// started tasks are cheaper to kill (little work lost), tasks close to
// completion are cheaper to wait for, and everything in between is
// suspended.
type refAdvisor struct {
	// KillBelow kills victims with progress < KillBelow.
	KillBelow float64
	// WaitAbove waits for victims with progress > WaitAbove.
	WaitAbove float64
}

// defaultRefAdvisor returns thresholds matching the paper's qualitative
// guidance.
func defaultRefAdvisor() refAdvisor { return refAdvisor{KillBelow: 0.05, WaitAbove: 0.95} }

// Choose picks the primitive for a victim at the given progress.
func (a refAdvisor) Choose(progress float64) core.Primitive {
	switch {
	case progress < a.KillBelow:
		return core.Kill
	case progress > a.WaitAbove:
		return core.Wait
	default:
		return core.Suspend
	}
}

func allRefPolicies() []refPolicy {
	return []refPolicy{mostProgress(), leastProgress(), smallestMemory(), largestMemory(), oldest(), youngest()}
}

func candidates() []advisor.Candidate {
	return []advisor.Candidate{
		{ID: "a", Progress: 0.9, ResidentBytes: 100 << 20, StartedAt: 10 * time.Second},
		{ID: "b", Progress: 0.2, ResidentBytes: 2 << 30, StartedAt: 5 * time.Second},
		{ID: "c", Progress: 0.5, ResidentBytes: 500 << 20, StartedAt: 20 * time.Second},
	}
}

func TestPolicySelections(t *testing.T) {
	cases := []struct {
		policy refPolicy
		want   string
	}{
		{mostProgress(), "a"},
		{leastProgress(), "b"},
		{smallestMemory(), "a"},
		{largestMemory(), "b"},
		{oldest(), "b"},
		{youngest(), "c"},
	}
	for _, tc := range cases {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			v, ok := tc.policy.SelectVictim(candidates())
			if !ok {
				t.Fatal("no victim selected")
			}
			if v.ID != tc.want {
				t.Fatalf("victim = %s, want %s", v.ID, tc.want)
			}
		})
	}
}

func TestPolicyEmptyCandidates(t *testing.T) {
	for _, p := range allRefPolicies() {
		if _, ok := p.SelectVictim(nil); ok {
			t.Fatalf("%s selected a victim from empty set", p.Name())
		}
	}
}

func TestPolicyTiesBrokenByID(t *testing.T) {
	cs := []advisor.Candidate{
		{ID: "z", Progress: 0.5},
		{ID: "a", Progress: 0.5},
		{ID: "m", Progress: 0.5},
	}
	v, ok := mostProgress().SelectVictim(cs)
	if !ok || v.ID != "a" {
		t.Fatalf("tie not broken by smallest ID: got %q", v.ID)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"most-progress", "least-progress", "smallest-memory", "largest-memory", "oldest", "youngest"} {
		p, err := refPolicyByName(name)
		if err != nil {
			t.Fatalf("refPolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy name %q != %q", p.Name(), name)
		}
	}
	if _, err := refPolicyByName("nope"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestAdvisorThresholds(t *testing.T) {
	a := defaultRefAdvisor()
	if got := a.Choose(0.01); got != core.Kill {
		t.Fatalf("fresh task -> %v, want kill", got)
	}
	if got := a.Choose(0.5); got != core.Suspend {
		t.Fatalf("mid task -> %v, want suspend", got)
	}
	if got := a.Choose(0.99); got != core.Wait {
		t.Fatalf("nearly-done task -> %v, want wait", got)
	}
}

func TestAdvisorBoundaries(t *testing.T) {
	a := refAdvisor{KillBelow: 0.1, WaitAbove: 0.9}
	if a.Choose(0.1) != core.Suspend {
		t.Fatal("exactly KillBelow should suspend")
	}
	if a.Choose(0.9) != core.Suspend {
		t.Fatal("exactly WaitAbove should suspend")
	}
}

// Property: every policy returns one of the candidates, regardless of
// input.
func TestPropertyPolicyReturnsMember(t *testing.T) {
	policies := allRefPolicies()
	f := func(raw []struct {
		P uint8
		M uint32
		S uint16
	}) bool {
		if len(raw) == 0 {
			return true
		}
		cs := make([]advisor.Candidate, len(raw))
		ids := make(map[string]bool)
		for i, r := range raw {
			cs[i] = advisor.Candidate{
				ID:            string(rune('a' + i%26)),
				Progress:      float64(r.P) / 255,
				ResidentBytes: int64(r.M),
				StartedAt:     time.Duration(r.S) * time.Second,
			}
			ids[cs[i].ID] = true
		}
		for _, p := range policies {
			v, ok := p.SelectVictim(cs)
			if !ok || !ids[v.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
