// Package advisor is the serving-path form of the paper's §V-A
// preemption cost model: one allocation-free call that answers both
// questions a scheduler asks at every preemption decision — which task
// to evict (§V-A's victim-selection policies) and which primitive to
// evict it with (kill freshly started tasks, wait for nearly-done ones,
// suspend the rest), optionally modulated by memory pressure.
//
// The package exists so the exact code path a simulated scheduler runs
// is the one the benchmarks measure. It is engineered for a scheduler's
// hot path:
//
//   - Request and Decision are value types; Decide performs zero heap
//     allocations (enforced by a testing.AllocsPerRun regression test).
//   - The candidate slice is caller-owned scratch: Decide never retains,
//     mutates or copies it, so callers reuse one buffer across millions
//     of decisions.
//   - Advisor is an immutable value after New: no locks, no maps, safe
//     to share across any number of concurrent goroutines.
//
// The semantics are bit-compatible with the naive interface-based
// reference model kept in reference_test.go: for every policy, Decide
// picks the candidate the reference policy would pick (including the
// deterministic ID tie-break), and with threshold configuration it
// chooses the primitive the reference advisor would choose. A
// differential test over randomized candidate sets pins this, which is
// what keeps the simulation goldens byte-identical.
package advisor

import (
	"fmt"
	"time"

	"hadooppreempt/internal/core"
)

// Candidate describes one preemptable task.
type Candidate struct {
	// ID is the task (a stringified mapreduce.TaskID); policies treat it
	// as opaque except as the deterministic tie-break.
	ID string
	// Progress is the completed fraction in [0,1].
	Progress float64
	// ResidentBytes is the task's resident memory.
	ResidentBytes int64
	// StartedAt is when the current attempt launched.
	StartedAt time.Duration
}

// Policy selects the victim-ordering rule. The kinds mirror the
// reference model's policy constructors one to one; being an enum
// rather than an interface keeps Decide free of dynamic dispatch and
// heap traffic.
type Policy uint8

// Victim-selection policies (§V-A's design space).
const (
	// MostProgress prefers the task closest to completion (Natjam's
	// SRT-style policy).
	MostProgress Policy = iota + 1
	// LeastProgress prefers the freshest task (least work wasted under
	// kill).
	LeastProgress
	// SmallestMemory prefers the smallest resident set, minimizing
	// paging under suspend — the strategy §V-A derives from Figure 4.
	SmallestMemory
	// LargestMemory prefers the largest resident set (frees the most
	// memory; worst case for suspend overhead).
	LargestMemory
	// Oldest prefers the longest-running task.
	Oldest
	// Youngest prefers the most recently started task.
	Youngest
)

// String returns the policy's report label.
func (p Policy) String() string {
	switch p {
	case MostProgress:
		return "most-progress"
	case LeastProgress:
		return "least-progress"
	case SmallestMemory:
		return "smallest-memory"
	case LargestMemory:
		return "largest-memory"
	case Oldest:
		return "oldest"
	case Youngest:
		return "youngest"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyByName resolves a policy label (see String).
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "most-progress":
		return MostProgress, nil
	case "least-progress":
		return LeastProgress, nil
	case "smallest-memory":
		return SmallestMemory, nil
	case "largest-memory":
		return LargestMemory, nil
	case "oldest":
		return Oldest, nil
	case "youngest":
		return Youngest, nil
	default:
		return 0, fmt.Errorf("advisor: unknown eviction policy %q", name)
	}
}

// Config parameterizes an Advisor. It is copied at New time; the
// Advisor never observes later mutations.
type Config struct {
	// Policy is the victim-selection rule (required).
	Policy Policy

	// Primitive, when nonzero, forces every verdict to this primitive —
	// the configuration of a scheduler wired to a single-primitive
	// Preemptor (the fixed-primitive comparisons of §IV). When zero, the
	// §V-A cost model below picks the primitive per victim.
	Primitive core.Primitive

	// KillBelow kills victims with progress < KillBelow (little work
	// lost). Used only when Primitive is zero.
	KillBelow float64
	// WaitAbove waits for victims with progress > WaitAbove (they are
	// about to free the slot anyway). Used only when Primitive is zero.
	WaitAbove float64

	// PressureKillBelow enables the memory-pressure override: when the
	// chosen victim's resident bytes exceed Request.FreeBytes (suspending
	// it would force paging) and its progress is below this threshold, a
	// suspend verdict converts to kill — redoing that little work is
	// cheaper than swapping the task's state out and back in. Zero
	// disables the override; it never fires on forced-primitive
	// configurations.
	PressureKillBelow float64
}

// DefaultConfig returns the paper's qualitative thresholds (kill below
// 5% progress, wait above 95%) with the most-progress policy and no
// pressure override.
func DefaultConfig() Config {
	return Config{Policy: MostProgress, KillBelow: 0.05, WaitAbove: 0.95}
}

// Advisor is an immutable decision maker. The zero value is not valid;
// build one with New. Advisors are small values — copy them freely and
// share them across goroutines without synchronization.
type Advisor struct {
	cfg Config
	ok  bool
}

// New validates the configuration and returns an immutable Advisor.
func New(cfg Config) (Advisor, error) {
	if cfg.Policy < MostProgress || cfg.Policy > Youngest {
		return Advisor{}, fmt.Errorf("advisor: invalid policy %v", cfg.Policy)
	}
	if cfg.Primitive != 0 {
		switch cfg.Primitive {
		case core.Wait, core.Kill, core.Suspend, core.Checkpoint:
		default:
			return Advisor{}, fmt.Errorf("advisor: invalid primitive %v", cfg.Primitive)
		}
		if cfg.PressureKillBelow != 0 {
			return Advisor{}, fmt.Errorf("advisor: pressure override needs the threshold cost model, not a forced primitive")
		}
	} else {
		if cfg.KillBelow < 0 || cfg.WaitAbove > 1 || cfg.KillBelow > cfg.WaitAbove {
			return Advisor{}, fmt.Errorf("advisor: thresholds must satisfy 0 <= KillBelow <= WaitAbove <= 1 (got %v, %v)",
				cfg.KillBelow, cfg.WaitAbove)
		}
		if cfg.PressureKillBelow < 0 || cfg.PressureKillBelow > 1 {
			return Advisor{}, fmt.Errorf("advisor: PressureKillBelow must be in [0,1] (got %v)", cfg.PressureKillBelow)
		}
	}
	return Advisor{cfg: cfg, ok: true}, nil
}

// Valid reports whether the advisor was built by New.
func (a Advisor) Valid() bool { return a.ok }

// Config returns the advisor's (immutable) configuration.
func (a Advisor) Config() Config { return a.cfg }

// Request is one preemption decision's input. It is a value type; the
// candidate slice is caller-owned scratch that Decide never retains.
type Request struct {
	// Candidates are the preemptable tasks. Decide reads the slice and
	// never mutates or keeps it, so callers reuse one buffer across
	// decisions.
	Candidates []Candidate
	// FreeBytes is the node's free memory, consulted only by the
	// pressure override (Config.PressureKillBelow): a victim whose
	// resident bytes exceed it would have to page to be suspended.
	FreeBytes int64
}

// NoVictim is the Decision.Victim value when the candidate set is
// empty.
const NoVictim = -1

// Decision is one preemption decision's output, a value type.
type Decision struct {
	// Victim indexes Request.Candidates, or NoVictim when the set was
	// empty. Index-based identification keeps the response
	// allocation-free; callers hold the parallel task handles.
	Victim int
	// Primitive is how to evict the victim: the forced primitive, or the
	// §V-A cost-model verdict (Kill young, Wait for nearly-done, Suspend
	// the middle, possibly converted by the pressure override).
	Primitive core.Primitive
	// Pressured reports that the memory-pressure override converted a
	// suspend verdict to kill.
	Pressured bool
}

// Decide picks the victim and the primitive for one preemption
// decision. It performs no heap allocations and may be called
// concurrently on a shared Advisor.
func (a Advisor) Decide(req Request) Decision {
	if !a.ok {
		panic("advisor: Decide on a zero Advisor (use New)")
	}
	cs := req.Candidates
	if len(cs) == 0 {
		return Decision{Victim: NoVictim}
	}
	victim := 0
	for i := 1; i < len(cs); i++ {
		if a.better(&cs[i], &cs[victim]) ||
			(!a.better(&cs[victim], &cs[i]) && cs[i].ID < cs[victim].ID) {
			victim = i
		}
	}
	d := Decision{Victim: victim}
	if a.cfg.Primitive != 0 {
		d.Primitive = a.cfg.Primitive
		return d
	}
	switch progress := cs[victim].Progress; {
	case progress < a.cfg.KillBelow:
		d.Primitive = core.Kill
	case progress > a.cfg.WaitAbove:
		d.Primitive = core.Wait
	default:
		d.Primitive = core.Suspend
		if a.cfg.PressureKillBelow > 0 &&
			cs[victim].ResidentBytes > req.FreeBytes &&
			progress < a.cfg.PressureKillBelow {
			d.Primitive = core.Kill
			d.Pressured = true
		}
	}
	return d
}

// better reports whether x is preferred over y under the configured
// policy — the same orderings the reference model's policies
// implement. Pointer receivers on the candidates avoid copying the
// (string-bearing) struct per comparison.
func (a Advisor) better(x, y *Candidate) bool {
	switch a.cfg.Policy {
	case MostProgress:
		return x.Progress > y.Progress
	case LeastProgress:
		return x.Progress < y.Progress
	case SmallestMemory:
		return x.ResidentBytes < y.ResidentBytes
	case LargestMemory:
		return x.ResidentBytes > y.ResidentBytes
	case Oldest:
		return x.StartedAt < y.StartedAt
	default: // Youngest; New admits no other value
		return x.StartedAt > y.StartedAt
	}
}
