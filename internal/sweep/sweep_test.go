package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testGrid(reps int) Grid {
	return NewGrid(
		Strings("prim", "wait", "kill", "susp"),
		Floats("r", 10, 50, 90),
		Reps(reps),
	).Pair("prim")
}

func TestGridEnumeration(t *testing.T) {
	g := testGrid(2)
	if g.Size() != 3*3*2 {
		t.Fatalf("size = %d, want 18", g.Size())
	}
	points, err := g.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 18 {
		t.Fatalf("points = %d, want 18", len(points))
	}
	// Row-major: last axis (rep) varies fastest, first axis slowest.
	if got := points[0].Key(); got != "prim=wait r=10 rep=0" {
		t.Fatalf("first key = %q", got)
	}
	if got := points[1].Key(); got != "prim=wait r=10 rep=1" {
		t.Fatalf("second key = %q", got)
	}
	if got := points[17].Key(); got != "prim=susp r=90 rep=1" {
		t.Fatalf("last key = %q", got)
	}
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
	}
}

func TestGridValidation(t *testing.T) {
	cases := []Grid{
		{},
		NewGrid(Axis{Name: "empty"}),
		NewGrid(Strings("a", "x"), Strings("a", "y")),
		NewGrid(Strings("a", "x", "x")),
		NewGrid(Strings("a", "x")).Pair("nope"),
	}
	for i, g := range cases {
		if _, err := g.Points(1); err == nil {
			t.Fatalf("case %d: invalid grid accepted", i)
		}
	}
}

func TestSeedPairing(t *testing.T) {
	points, err := testGrid(2).Points(1)
	if err != nil {
		t.Fatal(err)
	}
	bySuffix := make(map[string][]uint64)
	for _, p := range points {
		bySuffix[p.KeyWithout("prim")] = append(bySuffix[p.KeyWithout("prim")], p.Seed)
	}
	// All primitives at the same (r, rep) share a seed.
	for key, seeds := range bySuffix {
		for _, s := range seeds {
			if s != seeds[0] {
				t.Fatalf("paired cell %q has diverging seeds %v", key, seeds)
			}
		}
	}
	// Different (r, rep) cells get different seeds.
	seen := make(map[uint64]string)
	for key, seeds := range bySuffix {
		if prev, dup := seen[seeds[0]]; dup {
			t.Fatalf("cells %q and %q share seed %d", prev, key, seeds[0])
		}
		seen[seeds[0]] = key
	}
}

func TestSeedsIgnoreAxisOrderOfOtherCells(t *testing.T) {
	// A cell's seed depends only on its own coordinates and the base
	// seed — growing the grid must not reshuffle existing cells' seeds.
	small, err := NewGrid(Strings("p", "a"), Floats("r", 1, 2)).Points(9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewGrid(Strings("p", "a", "b"), Floats("r", 1, 2, 3)).Points(9)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string]uint64)
	for _, p := range big {
		seeds[p.Key()] = p.Seed
	}
	for _, p := range small {
		if seeds[p.Key()] != p.Seed {
			t.Fatalf("cell %q changed seed when the grid grew", p.Key())
		}
	}
}

// TestDeterministicAcrossParallelism is the harness's core guarantee:
// the same grid and seed produce identical aggregates and identical
// encoded output at any worker pool size.
func TestDeterministicAcrossParallelism(t *testing.T) {
	outputs := make(map[int]string)
	for _, parallel := range []int{1, 4, 16} {
		col, err := RunCollapsed(testGrid(3), synthCell, Options{Parallel: parallel, Seed: 7}, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := col.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		outputs[parallel] = csv.String() + js.String()
	}
	if outputs[1] != outputs[4] || outputs[1] != outputs[16] {
		t.Fatal("output differs across parallelism levels")
	}
}

func TestWorkerPoolBounds(t *testing.T) {
	const parallel = 3
	var active, peak, total int64
	var mu sync.Mutex
	cell := func(pt Point, rec *Recorder) error {
		n := atomic.AddInt64(&active, 1)
		defer atomic.AddInt64(&active, -1)
		atomic.AddInt64(&total, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil
	}
	if _, err := RunCollapsed(testGrid(2), cell, Options{Parallel: parallel, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if total != 18 {
		t.Fatalf("ran %d cells, want 18", total)
	}
	if peak > parallel {
		t.Fatalf("observed %d concurrent cells, pool bound is %d", peak, parallel)
	}
	if peak < 2 {
		t.Fatalf("observed %d concurrent cells, expected the pool to actually run in parallel", peak)
	}
}

// TestRunErrorNamesFirstFailingCell: a shard reports the first failing
// cell it owns, in grid order rather than completion order.
func TestRunErrorNamesFirstFailingCell(t *testing.T) {
	cell := func(pt Point, rec *Recorder) error {
		if pt.Label("prim") == "kill" {
			return fmt.Errorf("boom at r=%v", pt.Float("r"))
		}
		return nil
	}
	b := FuncBackend{G: testGrid(2), Run: cell}
	// The kill cells are 6..11; shard 1/2 owns the odd ones, 7, 9 and 11.
	_, err := RunBackend(b, Options{Parallel: 4, Seed: 1, Shard: Shard{Index: 1, Count: 2}}, RepAxis)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), `cell "prim=kill r=10 rep=1"`) {
		t.Fatalf("error %q does not name the shard's first failing cell", err)
	}
}

func TestCollapseAggregates(t *testing.T) {
	g := NewGrid(Strings("variant", "a", "b"), Reps(4))
	cell := func(pt Point, rec *Recorder) error {
		// variant a reports its rep index, variant b twice that.
		v := float64(pt.Int(RepAxis))
		if pt.Label("variant") == "b" {
			v *= 2
		}
		rec.Observe("x", v)
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
	// reps 0..3: mean 1.5 for a, 3.0 for b.
	if got := a.Metrics["x"]; got.Mean != 1.5 || got.Min != 0 || got.Max != 3 {
		t.Fatalf("variant a summary = %+v", got)
	}
	if got := b.Metrics["x"].Mean; got != 3.0 {
		t.Fatalf("variant b mean = %v, want 3", got)
	}
	if !reflect.DeepEqual(a.Labels, map[string]string{"variant": "a"}) {
		t.Fatalf("labels = %v", a.Labels)
	}
}

func TestCollapseNothingYieldsOneGroupPerCell(t *testing.T) {
	g := testGrid(1)
	col, err := RunCollapsed(g, synthCell, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != g.Size() {
		t.Fatalf("groups = %d, want %d", len(col.Groups), g.Size())
	}
	for i, grp := range col.Groups {
		if grp.Count != 1 || grp.First.Index != i {
			t.Fatalf("group %d holds %d cells, first %d; want exactly cell %d", i, grp.Count, grp.First.Index, i)
		}
	}
}

func TestWriteCSVShape(t *testing.T) {
	col, err := RunCollapsed(testGrid(2), synthCell, Options{Seed: 1}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "prim,r,metric,count,mean,std,min,p50,p95,max" {
		t.Fatalf("header = %q", lines[0])
	}
	// 9 groups x 2 metrics + header.
	if len(lines) != 1+9*2 {
		t.Fatalf("rows = %d, want 19", len(lines))
	}
	if !strings.HasPrefix(lines[1], "wait,10,makespan_s,2,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestWriteJSONIncludesOutcomeLabels(t *testing.T) {
	g := NewGrid(Strings("policy", "small", "large"))
	cell := func(pt Point, rec *Recorder) error {
		rec.Observe("x", 1)
		rec.Label("victim", "victim-of-"+pt.Label("policy"))
		return nil
	}
	col, err := RunCollapsed(g, cell, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"victim": "victim-of-small"`, `"policy": "large"`, `"seed": 1`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %q:\n%s", want, buf.String())
		}
	}
}

func TestWriteTableAligned(t *testing.T) {
	col, err := RunCollapsed(testGrid(1), synthCell, Options{Seed: 1}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+9 {
		t.Fatalf("rows = %d, want 10", len(lines))
	}
	if !strings.Contains(lines[0], "prim") || !strings.Contains(lines[0], "sojourn_s") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestPointAccessors(t *testing.T) {
	points, err := NewGrid(Strings("s", "x"), Floats("f", 2.5), Ints("i", 7)).Points(1)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.Value("s").(string) != "x" || p.Label("s") != "x" {
		t.Fatal("string axis accessor broken")
	}
	if p.Float("f") != 2.5 || p.Label("f") != "2.5" {
		t.Fatal("float axis accessor broken")
	}
	if p.Int("i") != 7 || p.Float("i") != 7 {
		t.Fatal("int axis accessor broken")
	}
	for _, fn := range []func(){
		func() { p.Value("nope") },
		func() { p.Int("f") },
		func() { p.Float("s") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
