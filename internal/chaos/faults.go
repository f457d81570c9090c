package chaos

import (
	"fmt"
	"os"

	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/sweep"
)

// WrapBackend returns the backend with the plan's cell faults layered
// over Cell. Which cells are faulty — and whether they panic or error —
// is a pure function of (plan seed, cell index), so the same cells
// misbehave no matter which worker or lease executes them. A faulty
// cell fails its first CellFailures attempts in this process, then runs
// clean; successful attempts never touch the recorder state, so an
// in-budget chaotic run produces bytes identical to a faultless one.
func (p *Plan) WrapBackend(b sweep.Backend) sweep.Backend {
	return &faultyBackend{plan: p, inner: b}
}

type faultyBackend struct {
	plan  *Plan
	inner sweep.Backend
}

func (b *faultyBackend) Name() string              { return b.inner.Name() }
func (b *faultyBackend) Grid() (sweep.Grid, error) { return b.inner.Grid() }

// Fingerprint forwards the inner backend's content fingerprint (see
// sweep.BackendFingerprint): injecting faults never changes what the
// backend would compute, so it must not change its identity either.
func (b *faultyBackend) Fingerprint() string { return sweep.BackendFingerprint(b.inner) }

// CacheVolatile forwards the inner backend's volatility (see
// sweep.Volatile): injected faults never change what a successful cell
// reports, so wrapping must not change whether results are cacheable.
func (b *faultyBackend) CacheVolatile() bool { return sweep.IsVolatile(b.inner) }

func (b *faultyBackend) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	mode := b.plan.cellFault(pt.Index)
	if mode != cellClean && b.plan.takeCellFailure(pt.Index) {
		b.plan.logf("chaos[cell]: %s cell %d (%s)", mode, pt.Index, pt.Key())
		if mode == cellPanic {
			panic(fmt.Sprintf("chaos: injected panic in cell %d (%s)", pt.Index, pt.Key()))
		}
		return fmt.Errorf("chaos: injected error in cell %d (%s)", pt.Index, pt.Key())
	}
	return b.inner.Cell(pt, rec)
}

type cellFaultMode int

const (
	cellClean cellFaultMode = iota
	cellPanic
	cellError
)

func (m cellFaultMode) String() string {
	switch m {
	case cellPanic:
		return "panic"
	case cellError:
		return "error"
	}
	return "clean"
}

// cellFault decides a cell's failure mode from the seed alone — no
// shared stream, so the verdict is independent of execution order.
func (p *Plan) cellFault(index int) cellFaultMode {
	if p.cfg.CellPanic <= 0 && p.cfg.CellError <= 0 {
		return cellClean
	}
	rng := sim.NewRNG(p.cfg.Seed).Stream(fmt.Sprintf("cell/%d", index))
	r := rng.Float64()
	switch {
	case r < p.cfg.CellPanic:
		return cellPanic
	case r < p.cfg.CellPanic+p.cfg.CellError:
		return cellError
	}
	return cellClean
}

// takeCellFailure consumes one of the cell's budgeted failures,
// reporting whether this attempt should fail.
func (p *Plan) takeCellFailure(index int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.attempts[index] >= p.cfg.CellFailures {
		return false
	}
	p.attempts[index]++
	return true
}

// FaultyCells lists the grid cells the plan marks faulty, for
// diagnostics and tests.
func (p *Plan) FaultyCells(n int) []int {
	var cells []int
	for i := 0; i < n; i++ {
		if p.cellFault(i) != cellClean {
			cells = append(cells, i)
		}
	}
	return cells
}

// CheckpointWriter wraps an atomic write-file function (write temp,
// rename over dst) with checkpoint I/O faults. Each call draws from the
// plan's "checkpoint" stream; a faulting call fails in one of three
// ways — before writing anything, after a torn half-write of the temp
// file, or after writing the temp file but before the rename (a crash
// in the commit window). All three leave dst's previous content intact,
// which is exactly the contract an atomic writer must keep: the
// coordinator continues on a stale-but-valid checkpoint.
func (p *Plan) CheckpointWriter(write func(path string, data []byte) error) func(path string, data []byte) error {
	return func(path string, data []byte) error {
		mode := func() int {
			p.mu.Lock()
			defer p.mu.Unlock()
			rng := p.site("checkpoint")
			if p.cfg.CheckpointFail <= 0 || rng.Float64() >= p.cfg.CheckpointFail {
				return 0
			}
			return 1 + rng.Intn(3)
		}()
		switch mode {
		case 1: // fail before writing
			p.logf("chaos[checkpoint]: write failed before any I/O")
			return fmt.Errorf("chaos: injected checkpoint write failure")
		case 2: // torn temp file
			p.logf("chaos[checkpoint]: torn write of temp file")
			os.WriteFile(path+".tmp", data[:len(data)/2], 0o644)
			return fmt.Errorf("chaos: injected torn checkpoint write")
		case 3: // temp written, rename lost
			p.logf("chaos[checkpoint]: crash between write and rename")
			os.WriteFile(path+".tmp", data, 0o644)
			return fmt.Errorf("chaos: injected crash before checkpoint rename")
		}
		return write(path, data)
	}
}
