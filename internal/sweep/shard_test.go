package sweep

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/sim"
)

// randomGrid builds a random 1-4 axis grid (sizes 1-4, occasionally a
// paired axis) from the trial's generator.
func randomGrid(rng *sim.RNG) Grid {
	axes := 1 + rng.Intn(4)
	g := Grid{}
	for a := 0; a < axes; a++ {
		name := fmt.Sprintf("ax%d", a)
		size := 1 + rng.Intn(4)
		ax := Axis{Name: name}
		for v := 0; v < size; v++ {
			ax.Values = append(ax.Values, Value{Label: fmt.Sprintf("v%d", v), V: v})
		}
		g.Axes = append(g.Axes, ax)
	}
	if rng.Intn(3) == 0 {
		g = g.Pair(g.Axes[rng.Intn(len(g.Axes))].Name)
	}
	return g
}

// randomCollapse picks a random (possibly empty) subset of axes to
// collapse.
func randomCollapse(rng *sim.RNG, g Grid) []string {
	var out []string
	for _, a := range g.Axes {
		if rng.Intn(2) == 0 {
			out = append(out, a.Name)
		}
	}
	return out
}

// propertyCell derives measurements purely from the cell's seed and
// coordinates, so every shard run reproduces them. Some cells skip the
// second metric, to exercise sparse metrics.
func propertyCell(pt Point, rec *Recorder) error {
	rng := pt.RNG()
	rec.Observe("m0", float64(pt.Index)+rng.Float64())
	if pt.Seed%3 != 0 {
		rec.Observe("m1", rng.Float64()*1e9)
	}
	return nil
}

// TestShardMergePropertyByteIdentical is the sharding contract, tested
// over random grids: for any grid, collapse set and shard count, the
// shards — serialized through the shard-file form and merged in any
// permutation — render byte-identically to the unsharded sweep in
// every encoder.
func TestShardMergePropertyByteIdentical(t *testing.T) {
	rng := sim.NewRNG(20260728)
	for trial := 0; trial < 40; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		seed := rng.Uint64()
		n := 1 + rng.Intn(4)
		full, err := RunCollapsed(g, propertyCell, Options{Parallel: 4, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeAll(t, full)
		shards := make([]*Collapsed, n)
		for i := 0; i < n; i++ {
			sh := Shard{Index: i, Count: n}
			col, err := RunCollapsed(g, propertyCell, Options{Parallel: 2, Seed: seed, Shard: sh}, collapse...)
			if err != nil {
				t.Fatal(err)
			}
			if col.Shard != sh {
				t.Fatalf("trial %d: shard result carries shard %s, want %s", trial, col.Shard, sh)
			}
			var file bytes.Buffer
			if err := col.WriteShard(&file); err != nil {
				t.Fatal(err)
			}
			if shards[i], err = ReadShard(&file); err != nil {
				t.Fatal(err)
			}
		}
		perm := rng.Perm(n)
		ordered := make([]*Collapsed, n)
		for i, p := range perm {
			ordered[i] = shards[p]
		}
		merged, err := Merge(ordered...)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeAll(t, merged); got != want {
			t.Fatalf("trial %d (axes=%d collapse=%v shards=%d perm=%v): merged output differs\nwant:\n%s\ngot:\n%s",
				trial, len(g.Axes), collapse, n, perm, want, got)
		}
	}
}

// TestMergeValidation rejects merges that are not exactly the full
// shard set of one sweep.
func TestMergeValidation(t *testing.T) {
	g := testGrid(2)
	shard := func(i, n int, seed uint64) *Collapsed {
		col, err := RunCollapsed(g, synthCell, Options{Seed: seed, Shard: Shard{Index: i, Count: n}}, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	if _, err := Merge(); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := Merge(shard(0, 3, 1)); err == nil {
		t.Fatal("lone shard of 3 accepted")
	}
	if _, err := Merge(shard(0, 3, 1), shard(1, 3, 1)); err == nil {
		t.Fatal("incomplete shard set accepted")
	}
	if _, err := Merge(shard(0, 2, 1), shard(0, 2, 1)); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := Merge(shard(0, 2, 1), shard(1, 2, 2)); err == nil {
		t.Fatal("mixed-seed shards accepted")
	}
	if _, err := Merge(shard(0, 2, 1), shard(1, 2, 1)); err != nil {
		t.Fatalf("valid shard set rejected: %v", err)
	}
}

// validShardBytes serializes one real shard of the test grid.
func validShardBytes(t *testing.T) []byte {
	t.Helper()
	col, err := RunCollapsed(testGrid(2), synthCell,
		Options{Seed: 1, Shard: Shard{Index: 0, Count: 2}}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteShard(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadShardRejectsMalformedFiles checks malformed input — hand-
// crafted corruption and mutations of a real shard file — fails with
// an error, never a panic and never a silent mis-merge.
func TestReadShardRejectsMalformedFiles(t *testing.T) {
	valid := validShardBytes(t)
	cases := map[string]string{
		"empty":            ``,
		"not json":         `{`,
		"truncated":        string(valid[:len(valid)/2]),
		"trailing data":    string(valid) + string(valid),
		"trailing bracket": string(valid) + "]",
		"wrong version":    `{"version":99}`,
		"no cells":         `{"version":1,"cells":0,"metrics":[],"groups":[]}`,
		"negative cells":   `{"version":1,"cells":-4,"metrics":[],"groups":[]}`,
		"bad shard spec":   `{"version":1,"cells":2,"shard":{"index":5,"count":2},"metrics":[],"groups":[]}`,
		"duplicate metric": `{"version":1,"cells":2,"metrics":["m0","m0"],"groups":[]}`,
		"duplicate group": `{"version":1,"cells":2,"metrics":[],"groups":[` +
			`{"key":"k","count":1,"samples":[]},{"key":"k","count":1,"samples":[]}]}`,
		"excess samples": `{"version":1,"cells":2,"metrics":["m0"],"groups":[{"key":"k","count":1,"samples":[[1],[2]]}]}`,
		"negative count": `{"version":1,"cells":2,"metrics":[],"groups":[{"key":"k","count":-1,"samples":[]}]}`,
		"samples without cells": `{"version":1,"cells":2,"metrics":["m0"],"groups":[` +
			`{"key":"k","count":0,"samples":[[1]]}]}`,
		"first out of range": `{"version":1,"cells":2,"metrics":[],"groups":[` +
			`{"key":"k","count":1,"first":7,"samples":[]}]}`,
	}
	for name, raw := range cases {
		if _, err := ReadShard(strings.NewReader(raw)); err == nil {
			t.Fatalf("%s: malformed shard file accepted", name)
		}
	}
	if _, err := ReadShard(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid shard file rejected: %v", err)
	}
}

// TestMergeRejectsTamperedShards: shard files that individually parse
// but disagree structurally must fail the merge, not mis-merge.
func TestMergeRejectsTamperedShards(t *testing.T) {
	g := testGrid(2)
	shard := func(i, n int) *Collapsed {
		col, err := RunCollapsed(g, synthCell, Options{Seed: 1, Shard: Shard{Index: i, Count: n}}, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.WriteShard(&buf); err != nil {
			t.Fatal(err)
		}
		rt, err := ReadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	// A shard of a different grid shape (extra repetition) aligned into
	// the same shard count.
	otherGrid, err := RunCollapsed(testGrid(3), synthCell,
		Options{Seed: 1, Shard: Shard{Index: 1, Count: 2}}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(shard(0, 2), otherGrid); err == nil {
		t.Fatal("shards of different grids merged")
	}
	// Both halves claiming the same slice (duplicate-group content for
	// every group that ran): rejected by the shard-set check.
	if _, err := Merge(shard(0, 2), shard(0, 2)); err == nil {
		t.Fatal("duplicate slice merged")
	}
	// Same sweep sliced under different collapse sets.
	collapsed, err := RunCollapsed(g, synthCell, Options{Seed: 1, Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(shard(0, 2), collapsed); err == nil {
		t.Fatal("mixed collapse sets merged")
	}
}

// TestMergeRejectsShortShardSet: a complete i/n shard set that is one
// cell short — shard 1 re-run without one of its cells, as an edited or
// cut-down shard file reads — fails the merge instead of rendering
// aggregates over fewer cells than the grid has.
func TestMergeRejectsShortShardSet(t *testing.T) {
	g := testGrid(2)
	shard0, err := RunCollapsed(g, synthCell, Options{Seed: 1, Shard: Shard{Index: 0, Count: 2}}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	one := Shard{Index: 1, Count: 2}
	var cells []int
	for i := 0; i < g.Size(); i++ {
		if one.owns(i) {
			cells = append(cells, i)
		}
	}
	short, err := RunCells(g, synthCell, 1, 1, cells[:len(cells)-1], RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	short.Shard = one
	_, err = Merge(shard0, short)
	if err == nil {
		t.Fatal("shard set one cell short merged")
	}
	if want := fmt.Sprintf("%d cell runs of a %d-cell grid", g.Size()-1, g.Size()); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the shortfall %q", err, want)
	}
}

// TestShardBytesIndependentOfParallelism: a shard file is the same
// bytes at any worker count. Each cell sleeps longer the earlier it
// comes in the grid, so a wide pool completes cells out of grid order
// and the folded sample rows arrive permuted.
func TestShardBytesIndependentOfParallelism(t *testing.T) {
	g := NewGrid(Strings("mode", "a", "b"), Reps(8))
	run := func(pt Point, rec *Recorder) error {
		time.Sleep(time.Duration(g.Size()-pt.Index) * time.Millisecond)
		rec.Observe("index", float64(pt.Index))
		rec.Observe("draw", pt.RNG().Float64())
		return nil
	}
	var want []byte
	for _, parallel := range []int{1, 4, 16} {
		col, err := RunCollapsed(g, run, Options{Parallel: parallel, Seed: 3}, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.WriteShard(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("-parallel %d shard file differs from -parallel 1:\n%s\nwant:\n%s", parallel, buf.Bytes(), want)
		}
	}
}

// FuzzReadShard feeds arbitrary bytes to the shard-file decoder. A
// decoded shard must re-encode to a fixpoint after one round, and
// merging it — alone, or with the seed grid's sibling shard when it
// claims to be half of a 2-way split — must not panic; a merge that
// succeeds must render through every encoder without panicking.
// Encoders may still return errors: a fuzzed sample set can overflow a
// mean to ±Inf, which JSON cannot carry.
func FuzzReadShard(f *testing.F) {
	g := NewGrid(Strings("mode", "a", "b"), Ints("x", 1, 2), Reps(2))
	siblings := make(map[Shard]*Collapsed)
	for _, sh := range []Shard{{}, {Index: 0, Count: 2}, {Index: 1, Count: 2}} {
		col, err := RunCollapsed(g, propertyCell, Options{Seed: 5, Shard: sh}, RepAxis)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.WriteShard(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if siblings[sh], err = ReadShard(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := ReadShard(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := c.WriteShard(&once); err != nil {
			t.Fatalf("re-encoding a decoded shard: %v", err)
		}
		again, err := ReadShard(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded shard does not decode: %v", err)
		}
		if err := again.WriteShard(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
		shards := []*Collapsed{c}
		if c.Shard.Count == 2 {
			shards = append(shards, siblings[Shard{Index: 1 - c.Shard.Index, Count: 2}])
		}
		merged, err := Merge(shards...)
		if err != nil {
			return
		}
		for _, format := range []string{"csv", "json", "table", "series"} {
			_ = merged.Write(io.Discard, format)
		}
	})
}

// TestShardSpec covers parsing and cell ownership.
func TestShardSpec(t *testing.T) {
	s, err := ParseShard("1/3")
	if err != nil || s.Index != 1 || s.Count != 3 {
		t.Fatalf("ParseShard(1/3) = %v, %v", s, err)
	}
	for _, bad := range []string{"", "3", "3/1", "-1/2", "a/b", "1/-2", "1/0", "0/0", "1/1"} {
		if _, err := ParseShard(bad); err == nil {
			t.Fatalf("ParseShard(%q) accepted", bad)
		}
	}
	if _, err := ParseShard("0/1"); err != nil {
		t.Fatalf("ParseShard(0/1) rejected: %v", err)
	}
	var whole Shard
	owned := 0
	for i := 0; i < 9; i++ {
		if whole.owns(i) {
			owned++
		}
	}
	if owned != 9 {
		t.Fatal("zero shard must own every cell")
	}
	for i := 0; i < 9; i++ {
		owners := 0
		for k := 0; k < 3; k++ {
			if (Shard{Index: k, Count: 3}).owns(i) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("cell %d owned by %d of 3 shards", i, owners)
		}
	}
}
