// Package chaos is a seeded, deterministic fault-injection layer for
// the distributed sweep path. A Plan derives one RNG stream per
// injection site from a single seed, so a fault schedule that breaks a
// run is a replayable artifact: re-running with the same seed injects
// the same faults at the same sites, in the same order per site.
//
// Faults are injected at the three trust boundaries of the distributed
// engine:
//
//   - HTTP transport: Transport wraps a worker's http.RoundTripper and
//     Middleware wraps the coordinator's handler. Either side can drop
//     a request before it is processed, drop the response after it was
//     processed (forcing at-least-once delivery), deliver a request
//     twice, truncate a response mid-body, or delay it.
//   - Checkpoint I/O: CheckpointWriter wraps the coordinator's atomic
//     checkpoint writer and can fail before writing, tear the temp
//     file mid-write, or "die" between the temp write and the rename —
//     always leaving the previous checkpoint intact, exactly like a
//     crash against a correct atomic writer.
//   - Cell execution: WrapBackend makes deterministically chosen grid
//     cells panic or error for their first CellFailures attempts
//     before succeeding (or forever, for poison-cell schedules).
//
// The harness contract under chaos: as long as the schedule stays
// within the coordinator's per-lease failure budget, the merged output
// is byte-identical to a faultless single-process run — transport
// faults are absorbed by retries and idempotent result handling,
// checkpoint faults by atomicity, and cell faults by lease re-issue.
// Schedules beyond the budget abort cleanly with the offending cell's
// coordinates in the error.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"hadooppreempt/internal/sim"
)

// Config declares a fault schedule. All probabilities are per event in
// [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed derives every injection site's RNG stream. Equal seeds and
	// equal per-site event sequences inject identical faults.
	Seed uint64

	// Transport faults, drawn once per request passing a Transport or
	// Middleware site. At most one of the four fault kinds fires per
	// request; Delay is drawn independently and may combine with any.
	DropRequest  float64 // request lost before the server processes it
	DropResponse float64 // request processed, response lost (at-least-once)
	Duplicate    float64 // request delivered and processed twice
	Truncate     float64 // response body cut mid-byte
	Delay        float64 // request delayed by up to MaxDelay
	MaxDelay     time.Duration

	// CheckpointFail is the probability one atomic checkpoint write
	// fails (mode drawn among fail-open, torn temp file, and lost
	// rename). The destination file always keeps its previous content.
	CheckpointFail float64

	// CellPanic and CellError mark grid cells as faulty, with the named
	// failure mode. Faultiness is a pure function of (Seed, cell index),
	// so the same cells fail no matter which worker runs them.
	CellPanic float64
	CellError float64
	// CellFailures is how many attempts of a faulty cell fail before it
	// succeeds (counted per Plan, i.e. per process). PoisonForever makes
	// faulty cells fail on every attempt — the over-budget schedule.
	CellFailures int

	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// PoisonForever is a CellFailures value that never lets a faulty cell
// succeed, driving the coordinator's lease failure budget to abort.
const PoisonForever = int(^uint(0) >> 1)

// Plan is an active fault schedule: per-site RNG streams plus the
// cell attempt ledger. One Plan serves one process; methods are safe
// for concurrent use.
type Plan struct {
	cfg Config

	mu       sync.Mutex
	root     *sim.RNG
	sites    map[string]*sim.RNG
	attempts map[int]int
}

// New builds a plan for the schedule. MaxDelay defaults to 20ms and
// CellFailures to 1 (a faulty cell fails once, then succeeds).
func New(cfg Config) *Plan {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	if cfg.CellFailures == 0 {
		cfg.CellFailures = 1
	}
	return &Plan{
		cfg:      cfg,
		root:     sim.NewRNG(cfg.Seed),
		sites:    make(map[string]*sim.RNG),
		attempts: make(map[int]int),
	}
}

// Seed returns the plan's seed, for replay diagnostics.
func (p *Plan) Seed() uint64 { return p.cfg.Seed }

func (p *Plan) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// site returns the injection site's RNG stream, creating it on first
// use. Callers hold mu.
func (p *Plan) site(label string) *sim.RNG {
	rng, ok := p.sites[label]
	if !ok {
		rng = p.root.Stream(label)
		p.sites[label] = rng
	}
	return rng
}

// transportFault is one request's drawn fate.
type transportFault int

const (
	faultNone transportFault = iota
	faultDropRequest
	faultDropResponse
	faultDuplicate
	faultTruncate
)

func (f transportFault) String() string {
	switch f {
	case faultDropRequest:
		return "drop-request"
	case faultDropResponse:
		return "drop-response"
	case faultDuplicate:
		return "duplicate"
	case faultTruncate:
		return "truncate-response"
	}
	return "none"
}

// drawTransport draws one request's fault and delay from the site's
// stream. The draw order per site is fixed (delay, then fault), so a
// site's schedule depends only on the seed and how many requests have
// passed through it.
func (p *Plan) drawTransport(site string) (transportFault, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rng := p.site("transport/" + site)
	var delay time.Duration
	if p.cfg.Delay > 0 && rng.Float64() < p.cfg.Delay {
		delay = time.Duration(1 + rng.Int63n(int64(p.cfg.MaxDelay)))
	}
	r := rng.Float64()
	for _, c := range []struct {
		prob  float64
		fault transportFault
	}{
		{p.cfg.DropRequest, faultDropRequest},
		{p.cfg.DropResponse, faultDropResponse},
		{p.cfg.Duplicate, faultDuplicate},
		{p.cfg.Truncate, faultTruncate},
	} {
		if r < c.prob {
			return c.fault, delay
		}
		r -= c.prob
	}
	return faultNone, delay
}

// ParseSpec parses a -chaos flag value: comma-separated key=value
// pairs. Keys (all optional): seed, drop, drop-resp, dup, trunc, delay
// (probabilities in [0,1]), delay-max (duration), ckpt (checkpoint
// fault probability), cell-err, cell-panic (cell fault probabilities),
// cell-fails (attempts a faulty cell fails; "poison" = forever).
//
//	seed=7,drop=0.1,dup=0.15,trunc=0.05,delay=0.1,delay-max=20ms,ckpt=0.3,cell-err=0.1,cell-fails=1
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, value, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: %q is not key=value", field)
		}
		prob := func(dst *float64) error {
			v, err := strconv.ParseFloat(value, 64)
			// Written so that NaN, which fails every comparison, is refused.
			if err != nil || !(v >= 0 && v <= 1) {
				return fmt.Errorf("chaos: %s=%q is not a probability in [0,1]", key, value)
			}
			*dst = v
			return nil
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(value, 10, 64)
			if err != nil {
				err = fmt.Errorf("chaos: seed=%q is not an unsigned integer", value)
			}
		case "drop":
			err = prob(&cfg.DropRequest)
		case "drop-resp":
			err = prob(&cfg.DropResponse)
		case "dup":
			err = prob(&cfg.Duplicate)
		case "trunc":
			err = prob(&cfg.Truncate)
		case "delay":
			err = prob(&cfg.Delay)
		case "delay-max":
			cfg.MaxDelay, err = time.ParseDuration(value)
			if err == nil && cfg.MaxDelay <= 0 {
				err = fmt.Errorf("chaos: delay-max=%q is not positive", value)
			}
		case "ckpt":
			err = prob(&cfg.CheckpointFail)
		case "cell-err":
			err = prob(&cfg.CellError)
		case "cell-panic":
			err = prob(&cfg.CellPanic)
		case "cell-fails":
			if value == "poison" {
				cfg.CellFailures = PoisonForever
			} else {
				cfg.CellFailures, err = strconv.Atoi(value)
				if err != nil || cfg.CellFailures < 1 {
					err = fmt.Errorf("chaos: cell-fails=%q is not a positive count or \"poison\"", value)
				}
			}
		default:
			err = fmt.Errorf("chaos: unknown key %q (want seed, drop, drop-resp, dup, trunc, delay, delay-max, ckpt, cell-err, cell-panic or cell-fails)", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}
