package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// synthCell is a deterministic stand-in for a simulation: it derives
// its measurements purely from the cell seed and coordinates.
func synthCell(pt Point, rec *Recorder) error {
	rng := pt.RNG()
	base := pt.Float("r") + 100*float64(len(pt.Label("prim")))
	rec.Observe("sojourn_s", base+rng.Float64())
	rec.Observe("makespan_s", 2*base+rng.Float64())
	return nil
}

// encodeAll renders a collapsed result in every format.
func encodeAll(t *testing.T, c *Collapsed) string {
	t.Helper()
	var out bytes.Buffer
	for _, format := range []string{"csv", "json", "table"} {
		if err := c.Write(&out, format); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

// TestRunCollapsedGroups checks group structure: grid order, labels,
// counts, first-cell extras and typed access through First.
func TestRunCollapsedGroups(t *testing.T) {
	g := NewGrid(Strings("variant", "a", "b"), Reps(4))
	cell := func(pt Point, rec *Recorder) error {
		v := float64(pt.Int(RepAxis))
		if pt.Label("variant") == "b" {
			v *= 2
		}
		rec.Observe("x", v)
		rec.Label("tag", "first-of-"+pt.Label("variant"))
		return nil
	}
	col, err := RunCollapsed(g, cell, Options{Parallel: 2, Seed: 1}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(col.Groups))
	}
	a, b := col.Groups[0], col.Groups[1]
	if a.Key != "variant=a" || b.Key != "variant=b" {
		t.Fatalf("group keys = %q, %q", a.Key, b.Key)
	}
	if a.Count != 4 || b.Count != 4 {
		t.Fatalf("counts = %d, %d, want 4, 4", a.Count, b.Count)
	}
	if got := a.Metrics["x"]; got.Mean != 1.5 || got.Min != 0 || got.Max != 3 {
		t.Fatalf("variant a summary = %+v", got)
	}
	if got := b.Metrics["x"].Mean; got != 3.0 {
		t.Fatalf("variant b mean = %v, want 3", got)
	}
	if a.Extra["tag"] != "first-of-a" || b.Extra["tag"] != "first-of-b" {
		t.Fatalf("extras = %v, %v", a.Extra, b.Extra)
	}
	if a.First.Label("variant") != "a" || b.First.Label("variant") != "b" {
		t.Fatal("First point does not carry the group's coordinates")
	}
}

// TestRunCollapsedErrorNamesFirstFailingCell mirrors the Run error
// contract on the streaming path.
func TestRunCollapsedErrorNamesFirstFailingCell(t *testing.T) {
	cell := func(pt Point, rec *Recorder) error {
		if pt.Label("prim") == "kill" {
			return fmt.Errorf("boom at r=%v", pt.Float("r"))
		}
		return nil
	}
	_, err := RunCollapsed(testGrid(1), cell, Options{Parallel: 4, Seed: 1}, RepAxis)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), `cell "prim=kill r=10 rep=0"`) {
		t.Fatalf("error %q does not name the first failing cell", err)
	}
}

// allocCell derives measurements from the seed bits alone, so the
// allocation measurement sees pure harness overhead rather than
// scenario cost.
func allocCell(pt Point, rec *Recorder) error {
	v := float64(pt.Seed >> 12)
	rec.Observe("sojourn_s", v)
	rec.Observe("makespan_s", 2*v)
	return nil
}

// TestStreamingCollapseAllocRatio is the perf acceptance criterion:
// on a synthetic grid (where harness overhead, not simulation,
// dominates) the streaming path must allocate at most a third of the
// 3.45 allocs/cell the retired materialize-then-collapse path measured
// on this grid — an absolute ceiling of 1.15. It measures about 0.44.
func TestStreamingCollapseAllocRatio(t *testing.T) {
	const legacyPerCell = 3.45
	g := func() Grid { return testGrid(100) }
	cells := float64(g().Size())
	perCell := testing.AllocsPerRun(10, func() {
		if _, err := RunCollapsed(g(), allocCell, Options{Seed: 1}, RepAxis); err != nil {
			panic(err)
		}
	}) / cells
	t.Logf("allocs/cell: %.2f (%.1fx under the materializing path's %.2f)",
		perCell, legacyPerCell/perCell, legacyPerCell)
	if perCell*3 > legacyPerCell {
		t.Fatalf("streaming path allocates %.2f/cell, want <= %.2f (a third of %.2f)",
			perCell, legacyPerCell/3, legacyPerCell)
	}
}
