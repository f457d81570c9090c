// Package genload generates seeded preemption scenarios: synthetic
// workloads shaped to exercise the schedulers' preemption paths, not
// just their happy paths. The SWIM-style generator in
// internal/workload draws a realistic job mix, but its jobs all land
// in one pool, so the fair scheduler — which only preempts on behalf
// of a starved pool — never fires in the canned sweeps. This package
// closes that gap: jobs arrive in pool-alternating bursts, sized and
// timed so an earlier burst's pool holds every slot when the next
// pool's burst lands, which starves it past the scenario's timeout and
// forces a preemption decision.
//
// Randomness is split into one sim.RNG stream per axis (arrival
// jitter, input sizes, memory skew), so turning one knob never shifts
// another axis's draws: a scenario with memory skew enabled sees the
// identical arrival times and input sizes as its uniform twin. That is
// what keeps seed-paired sweep comparisons pure and makes the
// generator usable as a fuzzer — Randomize draws arbitrary valid
// scenarios whose invariants a property test can check.
package genload

import (
	"fmt"
	"math"
	"time"

	"hadooppreempt/internal/mapreduce"
	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/workload"
)

// Scenario describes one generated preemption scenario.
type Scenario struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// Pools is how many fair-scheduler pools the bursts cycle through.
	// Bursts alternate pools round-robin, so with Pools >= 2 some pool is
	// always waiting behind another's running tasks — the structure fair
	// preemption needs. 1 collapses to single-pool (FIFO-like) load.
	Pools int
	// BurstSize is how many jobs arrive back to back in one burst; 1
	// degenerates to a steady Poisson arrival process.
	BurstSize int
	// BurstGap separates consecutive bursts' start times.
	BurstGap time.Duration
	// MeanJitter is the mean of the exponential jitter between jobs
	// inside a burst (and the mean inter-arrival gap when BurstSize is 1).
	MeanJitter time.Duration
	// SizeMu and SizeSigma parameterize the log-normal input size
	// distribution; MinInputBytes floors the draw.
	SizeMu        float64
	SizeSigma     float64
	MinInputBytes int64
	// MapParseRate is the mappers' throughput (bytes/s). Together with
	// the sizes it sets task runtimes; keep runtimes above
	// StarvationTimeout or the victim finishes before preemption fires.
	MapParseRate float64
	// HeavyFrac is the probability that a job carries HeavyMemBytes of
	// extra per-task state — the memory skew that differentiates the
	// smallest/largest-memory eviction policies. Zero disables the skew.
	HeavyFrac     float64
	HeavyMemBytes int64
	// StarvationTimeout is the preemption timeout the scenario is tuned
	// for (fair's pool-starvation timeout, HFSP's preemption delay). The
	// sweep passes it through to the scheduler it boots.
	StarvationTimeout time.Duration
}

// Default returns the tuned default scenario: two pools, bursts of
// four ~108 MB jobs (one 512 MB-block map task each, ~27 s at 4 MB/s)
// every 10 s, and a 5 s starvation timeout. The tuning is deliberate:
// the burst gap sits well below the ~24 s minimum task runtime, so on
// the sweep's 2x2-slot cluster burst b's pool still holds all four
// slots when burst b+1's pool arrives, which starves it past the
// timeout while the victims have runtime left — the fair scheduler
// demonstrably preempts (a regression test pins this).
func Default() Scenario {
	return Scenario{
		Jobs:              8,
		Pools:             2,
		BurstSize:         4,
		BurstGap:          10 * time.Second,
		MeanJitter:        500 * time.Millisecond,
		SizeMu:            18.5, // ~108 MB median
		SizeSigma:         0.3,
		MinInputBytes:     96 << 20,
		MapParseRate:      4e6,
		HeavyFrac:         0,
		HeavyMemBytes:     1 << 30,
		StarvationTimeout: 5 * time.Second,
	}
}

// Validate reports the first invalid knob.
func (s Scenario) Validate() error {
	switch {
	case s.Jobs <= 0:
		return fmt.Errorf("genload: Jobs must be positive (got %d)", s.Jobs)
	case s.Pools <= 0:
		return fmt.Errorf("genload: Pools must be positive (got %d)", s.Pools)
	case s.BurstSize <= 0:
		return fmt.Errorf("genload: BurstSize must be positive (got %d)", s.BurstSize)
	case s.BurstGap < 0:
		return fmt.Errorf("genload: BurstGap must be non-negative (got %v)", s.BurstGap)
	case s.MeanJitter <= 0:
		return fmt.Errorf("genload: MeanJitter must be positive (got %v)", s.MeanJitter)
	// NaN fails every comparison, so each test states what is valid: a
	// NaN size would floor every job to MinInputBytes, a NaN HeavyFrac turn
	// the skew off.
	case math.IsNaN(s.SizeMu) || math.IsInf(s.SizeMu, 0):
		return fmt.Errorf("genload: SizeMu must be finite (got %v)", s.SizeMu)
	case !(s.SizeSigma >= 0) || math.IsInf(s.SizeSigma, 1):
		return fmt.Errorf("genload: SizeSigma must be finite and non-negative (got %v)", s.SizeSigma)
	case s.MinInputBytes <= 0:
		return fmt.Errorf("genload: MinInputBytes must be positive (got %d)", s.MinInputBytes)
	case !(s.MapParseRate > 0) || math.IsInf(s.MapParseRate, 1):
		return fmt.Errorf("genload: MapParseRate must be positive and finite (got %v)", s.MapParseRate)
	case !(s.HeavyFrac >= 0 && s.HeavyFrac <= 1):
		return fmt.Errorf("genload: HeavyFrac must be in [0,1] (got %v)", s.HeavyFrac)
	case s.HeavyFrac > 0 && s.HeavyMemBytes <= 0:
		return fmt.Errorf("genload: HeavyFrac > 0 needs positive HeavyMemBytes")
	case s.StarvationTimeout <= 0:
		return fmt.Errorf("genload: StarvationTimeout must be positive (got %v)", s.StarvationTimeout)
	}
	return nil
}

// PoolName returns the pool label of burst index b.
func (s Scenario) PoolName(b int) string {
	return fmt.Sprintf("pool%d", b%s.Pools)
}

// Generate samples the scenario's workload. Equal (scenario, seed)
// pairs yield identical traces. Each randomness axis draws from its
// own substream of the seed — "arrival", "size", "mem" — so changing
// one knob (say, enabling memory skew) never shifts the other axes'
// draws.
func (s Scenario) Generate(seed uint64) ([]workload.JobSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(seed)
	arrival := root.Stream("genload/arrival")
	size := root.Stream("genload/size")
	mem := root.Stream("genload/mem")

	specs := make([]workload.JobSpec, 0, s.Jobs)
	var offset time.Duration
	for i := 0; i < s.Jobs; i++ {
		burst := i / s.BurstSize
		// Jitter accumulates within a burst so its jobs stay ordered but
		// not simultaneous; each burst restarts from its own base. A
		// steady process (BurstSize 1) degenerates to Poisson arrivals at
		// the burst cadence plus jitter.
		if i%s.BurstSize == 0 {
			offset = 0
		}
		offset += time.Duration(arrival.ExpFloat64() * float64(s.MeanJitter))
		at := time.Duration(burst)*s.BurstGap + offset
		bytes := int64(size.LogNormal(s.SizeMu, s.SizeSigma))
		if bytes < s.MinInputBytes {
			bytes = s.MinInputBytes
		}
		var extra int64
		if s.HeavyFrac > 0 && mem.Float64() < s.HeavyFrac {
			extra = s.HeavyMemBytes
		}
		pool := s.PoolName(burst)
		name := fmt.Sprintf("gen-%s-%03d", pool, i)
		specs = append(specs, workload.JobSpec{
			SubmitAt:   at,
			Class:      pool,
			InputBytes: bytes,
			Conf: mapreduce.JobConf{
				Name:             name,
				InputPath:        "/genload/" + name,
				Pool:             pool,
				MapParseRate:     s.MapParseRate,
				ExtraMemoryBytes: extra,
			},
		})
	}
	return specs, nil
}

// Randomize draws an arbitrary valid scenario — the fuzzer side of the
// generator. The ranges are wide enough to cover degenerate shapes
// (single pool, steady arrivals, no skew, heavy skew) while every
// returned scenario passes Validate.
func Randomize(rng *sim.RNG) Scenario {
	s := Scenario{
		Jobs:              1 + rng.Intn(16),
		Pools:             1 + rng.Intn(4),
		BurstSize:         1 + rng.Intn(6),
		BurstGap:          time.Duration(rng.Intn(91)) * time.Second,
		MeanJitter:        time.Duration(1+rng.Intn(5000)) * time.Millisecond,
		SizeMu:            rng.Uniform(17, 21),
		SizeSigma:         rng.Uniform(0, 1),
		MinInputBytes:     int64(1+rng.Intn(256)) << 20,
		MapParseRate:      rng.Uniform(1e6, 16e6),
		HeavyFrac:         rng.Float64(),
		HeavyMemBytes:     int64(1+rng.Intn(4)) << 30,
		StarvationTimeout: time.Duration(1+rng.Intn(30)) * time.Second,
	}
	if rng.Float64() < 0.3 {
		s.HeavyFrac = 0
	}
	return s
}
