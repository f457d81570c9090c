package genload_test

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/genload"
	"hadooppreempt/internal/sim"
)

// TestGenerateProperties is the randomized-scenario property test: for
// arbitrary valid scenarios (the fuzzer side of the generator), the
// trace respects every structural invariant.
func TestGenerateProperties(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 300; trial++ {
		s := genload.Randomize(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: Randomize produced invalid scenario: %v", trial, err)
		}
		seed := rng.Uint64()
		specs, err := s.Generate(seed)
		if err != nil {
			t.Fatalf("trial %d: Generate: %v", trial, err)
		}
		if len(specs) != s.Jobs {
			t.Fatalf("trial %d: %d specs, want %d", trial, len(specs), s.Jobs)
		}
		names := make(map[string]bool)
		var prev time.Duration
		for i, sp := range specs {
			burst := i / s.BurstSize
			if sp.Conf.Pool != s.PoolName(burst) {
				t.Fatalf("trial %d job %d: pool %q, want %q", trial, i, sp.Conf.Pool, s.PoolName(burst))
			}
			if sp.InputBytes < s.MinInputBytes {
				t.Fatalf("trial %d job %d: input %d below floor %d", trial, i, sp.InputBytes, s.MinInputBytes)
			}
			if sp.Conf.ExtraMemoryBytes != 0 && sp.Conf.ExtraMemoryBytes != s.HeavyMemBytes {
				t.Fatalf("trial %d job %d: extra memory %d, want 0 or %d", trial, i, sp.Conf.ExtraMemoryBytes, s.HeavyMemBytes)
			}
			if s.HeavyFrac == 0 && sp.Conf.ExtraMemoryBytes != 0 {
				t.Fatalf("trial %d job %d: memory skew with HeavyFrac 0", trial, i)
			}
			if names[sp.Conf.Name] {
				t.Fatalf("trial %d job %d: duplicate name %q", trial, i, sp.Conf.Name)
			}
			names[sp.Conf.Name] = true
			if !strings.HasPrefix(sp.Conf.InputPath, "/genload/") {
				t.Fatalf("trial %d job %d: input path %q", trial, i, sp.Conf.InputPath)
			}
			// Within a burst, arrivals are strictly increasing.
			if i%s.BurstSize != 0 && sp.SubmitAt <= prev {
				t.Fatalf("trial %d job %d: arrival %v not after predecessor %v", trial, i, sp.SubmitAt, prev)
			}
			prev = sp.SubmitAt
		}
	}
}

// TestGenerateDeterministic pins seed determinism: equal (scenario,
// seed) pairs yield identical traces, different seeds differ.
func TestGenerateDeterministic(t *testing.T) {
	s := genload.Default()
	a, err := s.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same scenario and seed produced different traces")
	}
	c, err := s.Generate(43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenerateAxisStreams pins the per-axis stream contract: toggling
// the memory-skew knob must not move arrival times or input sizes.
func TestGenerateAxisStreams(t *testing.T) {
	uniform := genload.Default()
	skewed := uniform
	skewed.HeavyFrac = 0.5
	a, err := uniform.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := skewed.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	sawSkew := false
	for i := range a {
		if a[i].SubmitAt != b[i].SubmitAt {
			t.Fatalf("job %d: memory knob moved arrival %v -> %v", i, a[i].SubmitAt, b[i].SubmitAt)
		}
		if a[i].InputBytes != b[i].InputBytes {
			t.Fatalf("job %d: memory knob moved size %d -> %d", i, a[i].InputBytes, b[i].InputBytes)
		}
		if b[i].Conf.ExtraMemoryBytes > 0 {
			sawSkew = true
		}
	}
	if !sawSkew {
		t.Fatal("skewed scenario produced no heavy job (seed 7)")
	}
}

// TestDefaultShape pins the tuned default's preemption-forcing
// structure: multiple pools, task runtimes comfortably above the
// starvation timeout.
func TestDefaultShape(t *testing.T) {
	s := genload.Default()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Pools < 2 {
		t.Fatalf("default must span at least 2 pools for fair preemption, got %d", s.Pools)
	}
	minRuntime := time.Duration(float64(s.MinInputBytes) / s.MapParseRate * float64(time.Second))
	if minRuntime < 2*s.StarvationTimeout {
		t.Fatalf("shortest task runtime %v must exceed twice the starvation timeout %v, or victims finish before preemption fires",
			minRuntime, s.StarvationTimeout)
	}
	specs, err := s.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	pools := make(map[string]bool)
	for _, sp := range specs {
		pools[sp.Conf.Pool] = true
	}
	if len(pools) < 2 {
		t.Fatalf("default trace uses %d pool(s), want >= 2", len(pools))
	}
}

// TestValidateRejects covers each knob's guard.
func TestValidateRejects(t *testing.T) {
	mutations := []func(*genload.Scenario){
		func(s *genload.Scenario) { s.Jobs = 0 },
		func(s *genload.Scenario) { s.Pools = 0 },
		func(s *genload.Scenario) { s.BurstSize = 0 },
		func(s *genload.Scenario) { s.BurstGap = -time.Second },
		func(s *genload.Scenario) { s.MeanJitter = 0 },
		func(s *genload.Scenario) { s.SizeSigma = -1 },
		func(s *genload.Scenario) { s.MinInputBytes = 0 },
		func(s *genload.Scenario) { s.MapParseRate = 0 },
		func(s *genload.Scenario) { s.HeavyFrac = 1.5 },
		func(s *genload.Scenario) { s.HeavyFrac = 0.5; s.HeavyMemBytes = 0 },
		func(s *genload.Scenario) { s.StarvationTimeout = 0 },
		func(s *genload.Scenario) { s.MapParseRate = math.NaN() },
		func(s *genload.Scenario) { s.MapParseRate = math.Inf(1) },
		func(s *genload.Scenario) { s.SizeMu = math.NaN() },
		func(s *genload.Scenario) { s.SizeMu = math.Inf(1) },
		func(s *genload.Scenario) { s.SizeSigma = math.NaN() },
		func(s *genload.Scenario) { s.SizeSigma = math.Inf(1) },
		func(s *genload.Scenario) { s.HeavyFrac = math.NaN() },
	}
	for i, mutate := range mutations {
		s := genload.Default()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid scenario %+v", i, s)
		}
		if _, err := s.Generate(1); err == nil {
			t.Errorf("mutation %d: Generate accepted invalid scenario", i)
		}
	}
}
