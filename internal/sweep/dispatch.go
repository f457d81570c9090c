package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// In-process execution. Every local entry point — RunCollapsed,
// RunBackend, a -shard slice, a distributed worker's leased batch —
// ends in RunCells: one bounded worker pool that runs the chosen cells
// with their coordinate-derived seeds and streams each result into the
// collapse engine. Placement (which process runs which cells) is the
// caller's business; the distributed coordinator (internal/coord)
// merely hands workers cell lists to pass here, so local, sharded and
// multi-machine sweeps share every determinism guarantee.

// runLocal executes the grid in this process: the cells opts.Shard
// selects (every cell when it is unset) run through RunCells, each
// answered from sc — the cell cache bound to the sweep's identity, or
// nil — when it holds a verified entry. The result carries the shard,
// so it merges with its siblings (see Merge).
func runLocal(g Grid, run CellFunc, sc *SweepCache, opts Options, collapse []string) (*Collapsed, error) {
	var cells []int
	if opts.Shard != (Shard{}) {
		if err := opts.Shard.validate(); err != nil {
			return nil, err
		}
		size := g.Size()
		cells = make([]int, 0, size/max(opts.Shard.Count, 1)+1)
		for i := 0; i < size; i++ {
			if opts.Shard.owns(i) {
				cells = append(cells, i)
			}
		}
	}
	c, err := RunCells(g, sc.WrapCell(run), opts.Seed, opts.Parallel, cells, collapse...)
	if err != nil {
		return nil, err
	}
	c.Shard = opts.Shard
	return c, nil
}

// RunCells executes the given grid cell indices through a worker pool
// of parallel goroutines, folding outcomes into group aggregates as
// cells complete. A nil cells slice runs the whole grid; an explicit
// slice runs exactly those cells (each at most once), which is how the
// distributed worker executes a leased batch. Every group of the grid
// is present in the result even if none of its cells ran, so partial
// results align for merging (see Merge and Accumulator).
//
// Each worker goroutine owns one reusable Recorder and claims the next
// cell from a shared atomic cursor over cells. The first error in grid
// order — not completion order — wins; remaining cells still run.
func RunCells(g Grid, run CellFunc, seed uint64, parallel int, cells []int, collapse ...string) (*Collapsed, error) {
	points, err := g.Points(seed)
	if err != nil {
		return nil, err
	}
	if cells == nil {
		cells = make([]int, len(points))
		for i := range cells {
			cells[i] = i
		}
	} else {
		seen := make(map[int]bool, len(cells))
		for _, i := range cells {
			if i < 0 || i >= len(points) {
				return nil, fmt.Errorf("sweep: cell %d outside grid of %d cells", i, len(points))
			}
			if seen[i] {
				return nil, fmt.Errorf("sweep: cell %d dispatched twice", i)
			}
			seen[i] = true
		}
	}
	c := newCollapsed(&g, seed, collapse)
	errs := make([]error, len(points))
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := min(max(parallel, 1), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &Recorder{}
			for {
				k := int(cursor.Add(1) - 1)
				if k >= len(cells) {
					return
				}
				i := cells[k]
				rec.reset()
				if err := runCell(run, points[i], rec); err != nil {
					errs[i] = fmt.Errorf("sweep: cell %q: %w", points[i].Key(), err)
					continue
				}
				mu.Lock()
				c.fold(points[i], rec)
				mu.Unlock()
				// Claiming a cell never blocks, so without this yield a
				// worker stays off the scheduler for the whole sweep and
				// the GC's mark workers wait for forced preemption. On
				// the allocation-heavy cluster grids the mark phases then
				// lasted 5x longer, cells ran under the write barrier
				// and paid more assists, and the grids ran ~15% slower.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.finalize()
	return c, nil
}

// runCell executes one cell, converting a panic in the cell function
// into a structured error. Backends run arbitrary engine code (replay
// parsers, process supervisors — or injected chaos), and a panicking
// cell must surface as that cell's failure, not kill the whole worker
// process mid-lease.
func runCell(run CellFunc, p Point, rec *Recorder) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return run(p, rec)
}
