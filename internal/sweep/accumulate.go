package sweep

import (
	"fmt"
	"io"
	"slices"
)

// Accumulator is the one fold that combines partial results of a
// sweep: -merge of shard files (Merge), the distributed coordinator's
// lease uploads, its checkpoint restore and its cell-cache replay all
// end here. Parts are absorbed into a single running aggregate as they
// arrive, so memory is bounded by the sweep's group structure and
// sample volume — O(groups + cells x metrics) — rather than by the
// number of parts.
//
// Because group aggregates retain raw sample multisets and Summarize
// orders samples before computing anything, absorb order never affects
// the finalized result: any set of disjoint parts covering the grid
// renders byte-identically to a single-process run, for every encoder.
// The running state serializes with WriteShard, which is what makes a
// coordinator checkpoint both durable and exact — a restarted
// coordinator resumes from the deserialized aggregate and still
// produces the single-process bytes.
type Accumulator struct {
	c   *Collapsed
	ran int
}

// NewAccumulator builds an empty running aggregate for the grid: every
// group present, no cells absorbed.
func NewAccumulator(g Grid, seed uint64, collapse ...string) (*Accumulator, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &Accumulator{c: newCollapsed(&g, seed, collapse)}, nil
}

// accumulatorLike builds an empty running aggregate with the sweep
// structure of part — seed, grid size, axes and groups — for callers
// that hold results but no Grid (shard files carry none).
func accumulatorLike(part *Collapsed) *Accumulator {
	c := &Collapsed{
		Seed:          part.Seed,
		CollapsedAxes: part.CollapsedAxes,
		GroupAxes:     part.GroupAxes,
		Groups:        make([]*Group, len(part.Groups)),
		cells:         part.cells,
		ids:           make(map[string]int),
	}
	for i, g := range part.Groups {
		c.Groups[i] = &Group{Key: g.Key, Labels: g.Labels, firstIndex: g.firstIndex}
	}
	return &Accumulator{c: c}
}

// Absorb folds one partial result of the sweep into the running
// aggregate. A static shard slice is rejected: shard sets combine
// through Merge, which checks the i/n partition first. Otherwise the
// part must describe the same sweep (seed, grid size, axis sets, group
// identities) and must not re-run a group's first cell the aggregate
// already holds; Absorb validates all of that before it mutates
// anything. Callers that hand out the cell partition own true
// disjointness: a Collapsed does not record which cells it ran, so an
// overlap balanced by an equal-sized gap within one group goes
// unnoticed (the coordinator checks every lease result's per-group
// counts).
func (a *Accumulator) Absorb(part *Collapsed) error {
	if part.Shard.Count > 1 {
		return fmt.Errorf("sweep: absorb of shard slice %s (use Merge)", part.Shard)
	}
	return a.absorb(part)
}

// absorb is Absorb without the shard-slice check.
func (a *Accumulator) absorb(part *Collapsed) error {
	c := a.c
	switch {
	case part.Seed != c.Seed:
		return fmt.Errorf("sweep: part ran seed %d, want %d", part.Seed, c.Seed)
	case part.cells != c.cells:
		return fmt.Errorf("sweep: part grid has %d cells, want %d", part.cells, c.cells)
	case !slices.Equal(part.CollapsedAxes, c.CollapsedAxes) || !slices.Equal(part.GroupAxes, c.GroupAxes):
		return fmt.Errorf("sweep: part collapses different axes")
	case len(part.Groups) != len(c.Groups):
		return fmt.Errorf("sweep: part has %d groups, want %d", len(part.Groups), len(c.Groups))
	}
	ran := 0
	for gi, pg := range part.Groups {
		g := c.Groups[gi]
		if pg.Key != g.Key || pg.firstIndex != g.firstIndex {
			return fmt.Errorf("sweep: part group %d is %q, want %q", gi, pg.Key, g.Key)
		}
		if pg.hasFirst && g.hasFirst {
			return fmt.Errorf("sweep: group %d first cell present twice (overlapping parts)", gi)
		}
		ran += pg.Count
	}
	for gi, pg := range part.Groups {
		g := c.Groups[gi]
		g.Count += pg.Count
		for id, samples := range pg.samples {
			if len(samples) == 0 {
				continue
			}
			name := part.names[id]
			oid, ok := c.ids[name]
			if !ok {
				oid = len(c.names)
				c.ids[name] = oid
				c.names = append(c.names, name)
			}
			for oid >= len(g.samples) {
				g.samples = append(g.samples, nil)
			}
			g.samples[oid] = append(g.samples[oid], samples...)
		}
		if pg.hasFirst {
			g.hasFirst = true
		}
	}
	a.ran += ran
	return nil
}

// GroupCounts returns the per-group cell-run counts absorbed so far, in
// group (grid) order.
func (a *Accumulator) GroupCounts() []int {
	counts := make([]int, len(a.c.Groups))
	for i, g := range a.c.Groups {
		counts[i] = g.Count
	}
	return counts
}

// GroupOfCell maps a grid cell index to the index of the group the
// cell folds into. It needs the grid geometry, so it is only available
// on accumulators built by NewAccumulator; out-of-range cell indices
// report ok=false.
func (a *Accumulator) GroupOfCell(cell int) (gi int, ok bool) {
	c := a.c
	if len(c.cellStride) == 0 || cell < 0 || cell >= c.cells {
		return 0, false
	}
	prev := c.cells
	for d, s := range c.cellStride {
		size := prev / s
		gi += (cell / s) % size * c.groupStride[d]
		prev = s
	}
	return gi, true
}

// WriteState serializes the running aggregate — raw samples included —
// in the shard-file format, so a coordinator checkpoint can persist it
// and a restarted coordinator can restore it with ReadShard + Absorb.
func (a *Accumulator) WriteState(w io.Writer) error {
	return a.c.WriteShard(w)
}

// Merged validates that the absorbed parts cover every grid cell
// exactly once in aggregate, finalizes the summaries and returns the
// full result — byte-identical, for every encoder, to a single-process
// run of the sweep. The accumulator must not be used afterwards.
func (a *Accumulator) Merged() (*Collapsed, error) {
	if a.ran != a.c.cells {
		return nil, fmt.Errorf("sweep: accumulated parts cover %d cell runs of a %d-cell grid", a.ran, a.c.cells)
	}
	a.c.finalize()
	return a.c, nil
}
