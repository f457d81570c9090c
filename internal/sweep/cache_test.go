package sweep

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hadooppreempt/internal/sim"
)

// countingBackend wraps the property cell with an execution counter, so
// tests can tell replayed cells from re-executed ones.
func countingBackend(g Grid, executed *atomic.Int64) FuncBackend {
	return FuncBackend{
		Engine: "prop",
		G:      g,
		Run: func(p Point, rec *Recorder) error {
			executed.Add(1)
			return propertyCell(p, rec)
		},
	}
}

// TestCachePropertyByteIdentical is the cache contract, tested over
// random grids: a cold cached run renders byte-identically to an
// uncached run in every format, and a warm rerun — at any parallelism
// or shard split — replays every cell from cache and still renders the
// same bytes.
func TestCachePropertyByteIdentical(t *testing.T) {
	rng := sim.NewRNG(20260807)
	for trial := 0; trial < 12; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		seed := rng.Uint64()
		var uncachedRuns, coldRuns, warmRuns atomic.Int64
		plain, err := RunBackend(countingBackend(g, &uncachedRuns),
			Options{Parallel: 2, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeAll(t, plain)
		cells := int64(plain.cells)

		cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunBackend(countingBackend(g, &coldRuns),
			Options{Parallel: 2, Seed: seed, Cache: cache}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeAll(t, cold); got != want {
			t.Fatalf("trial %d: cold cached output differs\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		if coldRuns.Load() != cells {
			t.Fatalf("trial %d: cold run executed %d of %d cells", trial, coldRuns.Load(), cells)
		}
		if cc := cache.Counters(); cc.Hits != 0 || cc.Misses != cells || cc.Writes != cells {
			t.Fatalf("trial %d: cold counters = %+v, want %d misses and writes", trial, cc, cells)
		}

		// Warm reruns at both parallelism levels replay every cell.
		for _, parallel := range []int{1, 4} {
			warm, err := RunBackend(countingBackend(g, &warmRuns),
				Options{Parallel: parallel, Seed: seed, Cache: cache}, collapse...)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeAll(t, warm); got != want {
				t.Fatalf("trial %d parallel %d: warm output differs", trial, parallel)
			}
		}
		if warmRuns.Load() != 0 {
			t.Fatalf("trial %d: warm reruns executed %d cells", trial, warmRuns.Load())
		}

		// A warm sharded run merges back to the same bytes without
		// executing anything either.
		n := 2 + rng.Intn(3)
		shards := make([]*Collapsed, n)
		for i := 0; i < n; i++ {
			shards[i], err = RunBackend(countingBackend(g, &warmRuns),
				Options{Parallel: 2, Seed: seed, Cache: cache, Shard: Shard{Index: i, Count: n}},
				collapse...)
			if err != nil {
				t.Fatal(err)
			}
		}
		merged, err := Merge(shards...)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeAll(t, merged); got != want {
			t.Fatalf("trial %d: warm sharded merge differs", trial)
		}
		if warmRuns.Load() != 0 {
			t.Fatalf("trial %d: warm shards executed %d cells", trial, warmRuns.Load())
		}
	}
}

// cacheEntryFiles lists every entry file under the cache root.
func cacheEntryFiles(t testing.TB, cache *Cache) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(cache.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasPrefix(filepath.Base(path), "cell-") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCacheCorruptEntriesAreSilentMisses damages stored entries in
// every representative way — truncation, bit flips, a wrong version, an
// empty file — and checks a warm rerun still produces byte-identical
// output by re-executing exactly the damaged cells.
func TestCacheCorruptEntriesAreSilentMisses(t *testing.T) {
	g := NewGrid(Strings("mode", "a", "b"), Floats("x", 1, 2), Reps(2))
	seed := uint64(9)
	var runs atomic.Int64
	b := countingBackend(g, &runs)
	plain, err := RunBackend(b, Options{Seed: seed}, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, plain)

	corrupt := map[string]func(raw []byte) []byte{
		"truncated":     func(raw []byte) []byte { return raw[:len(raw)/2] },
		"bit flip":      func(raw []byte) []byte { raw[len(raw)/2] ^= 0x40; return raw },
		"empty":         func([]byte) []byte { return nil },
		"wrong version": func([]byte) []byte { return []byte(`{"version":99,"key":"","cell":0,"sum":"","payload":{}}`) },
		"trailing data": func(raw []byte) []byte { return append(raw, raw...) },
	}
	damaged := 0
	for name, mutate := range corrupt {
		cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunBackend(b, Options{Seed: seed, Cache: cache}, RepAxis); err != nil {
			t.Fatal(err)
		}
		files := cacheEntryFiles(t, cache)
		if len(files) != plain.cells {
			t.Fatalf("%s: cold run wrote %d entries, want %d", name, len(files), plain.cells)
		}
		// Damage two entries, leave the rest verified.
		for _, path := range files[:2] {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		runs.Store(0)
		warm, err := RunBackend(b, Options{Seed: seed, Cache: cache}, RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeAll(t, warm); got != want {
			t.Fatalf("%s: warm output differs after corruption", name)
		}
		if runs.Load() != 2 {
			t.Fatalf("%s: re-executed %d cells, want exactly the 2 damaged", name, runs.Load())
		}
		damaged++
	}
	if damaged != len(corrupt) {
		t.Fatal("not every corruption case ran")
	}
}

// FuzzCacheEntry feeds SweepCache.Load arbitrary bytes as a cell's entry
// file. The seeds are the entries a cached run writes and the damaged
// ones TestCacheCorruptEntriesAreSilentMisses rejects. Load must never
// panic; an entry it accepts must hold one value per name, and must
// survive Store then Load unchanged.
func FuzzCacheEntry(f *testing.F) {
	g := NewGrid(Strings("mode", "a", "b"), Floats("x", 1, 2), Reps(2))
	const seed = 9
	cache, err := NewCache(filepath.Join(f.TempDir(), "cache"))
	if err != nil {
		f.Fatal(err)
	}
	var runs atomic.Int64
	if _, err := RunBackend(countingBackend(g, &runs), Options{Seed: seed, Cache: cache}, RepAxis); err != nil {
		f.Fatal(err)
	}
	sc := cache.Sweep("prop", "", g, seed)
	for _, path := range cacheEntryFiles(f, cache) {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(0), raw)
		f.Add(uint8(1), raw[:len(raw)/2])
		f.Add(uint8(2), append(raw, raw...))
	}
	f.Add(uint8(0), []byte(`{"version":99,"key":"","cell":0,"sum":"","payload":{}}`))
	f.Fuzz(func(t *testing.T, cell uint8, raw []byte) {
		i := int(cell) % g.Size()
		if err := os.WriteFile(sc.entryPath(i), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var rec, again Recorder
		if !sc.Load(i, &rec) {
			return
		}
		if len(rec.names) != len(rec.vals) {
			t.Fatalf("accepted an entry with %d names and %d values", len(rec.names), len(rec.vals))
		}
		sc.Store(i, &rec)
		if !sc.Load(i, &again) {
			t.Fatal("an accepted entry, stored again, does not load")
		}
		if !slices.Equal(again.names, rec.names) || !slices.Equal(again.vals, rec.vals) {
			t.Fatalf("an accepted entry changed through Store and Load:\n%v %v\n%v %v", rec.names, rec.vals, again.names, again.vals)
		}
	})
}

// TestCacheKeyspaceIsolation: sweeps differing in grid, backend
// fingerprint or seed never observe each other's entries.
func TestCacheKeyspaceIsolation(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	g1 := NewGrid(Strings("mode", "a", "b"), Reps(2))
	g2 := NewGrid(Strings("mode", "a", "b", "c"), Reps(2))
	fill := func(sc *SweepCache, g Grid, tag float64) {
		points, err := g.Points(7)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			rec := &Recorder{}
			rec.Observe("m", float64(p.Index))
			rec.Observe("src", tag)
			sc.Store(p.Index, rec)
		}
	}
	sc1 := cache.Sweep("sim", "fp-one", g1, 7)
	sc2 := cache.Sweep("sim", "fp-one", g2, 7)
	scFP := cache.Sweep("sim", "fp-two", g1, 7)
	scSeed := cache.Sweep("sim", "fp-one", g1, 8)
	fill(sc1, g1, 1)

	for name, sc := range map[string]*SweepCache{"other grid": sc2, "other fingerprint": scFP, "other seed": scSeed} {
		rec := &Recorder{}
		if sc.Load(0, rec) {
			t.Fatalf("%s: hit an entry of a different sweep identity", name)
		}
	}
	rec := &Recorder{}
	if !sc1.Load(0, rec) {
		t.Fatal("own entry missed")
	}
	if len(rec.vals) != 2 || rec.names[1] != "src" || rec.vals[1] != 1 {
		t.Fatalf("own entry payload = %v %v, want the stored src mark", rec.names, rec.vals)
	}

	// Even with colliding directories the stored key would reject the
	// foreign entry; simulate by copying an entry file across keyspaces.
	src := sc1.entryPath(1)
	dst := scFP.entryPath(1)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if scFP.Load(1, &Recorder{}) {
		t.Fatal("entry copied across keyspaces accepted: key check failed")
	}
}

// TestCacheConcurrentSameKeyWriters hammers one keyspace from many
// goroutines — every cell written and read concurrently — and requires
// every load that succeeds to return the one true payload.
func TestCacheConcurrentSameKeyWriters(t *testing.T) {
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(Strings("mode", "a"), Reps(4))
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := cache.Sweep("sim", "fp", g, 3)
			for cell := 0; cell < 4; cell++ {
				rec := &Recorder{}
				rec.Observe("m", float64(cell)*10)
				sc.Store(cell, rec)
				got := &Recorder{}
				if sc.Load(cell, got) {
					if len(got.vals) != 1 || got.vals[0] != float64(cell)*10 {
						t.Errorf("cell %d: concurrent load returned %v", cell, got.vals)
					}
				}
			}
		}()
	}
	wg.Wait()
	sc := cache.Sweep("sim", "fp", g, 3)
	for cell := 0; cell < 4; cell++ {
		rec := &Recorder{}
		if !sc.Load(cell, rec) {
			t.Fatalf("cell %d unreadable after concurrent writes", cell)
		}
	}
	// No temp files may survive the races.
	for _, f := range cacheEntryFiles(t, cache) {
		if strings.Contains(f, ".tmp") {
			t.Fatalf("leftover temp file %s", f)
		}
	}
}

// volatileBackend marks its cells non-reproducible, like the real-
// process backend.
type volatileBackend struct {
	FuncBackend
}

func (volatileBackend) CacheVolatile() bool { return true }

// TestCacheVolatileBackendBypasses: a volatile backend executes every
// cell on every run, writes no entries, and the counters say so.
func TestCacheVolatileBackendBypasses(t *testing.T) {
	g := NewGrid(Strings("mode", "a", "b"), Reps(2))
	var runs atomic.Int64
	b := volatileBackend{countingBackend(g, &runs)}
	if !IsVolatile(b) {
		t.Fatal("volatile backend not detected")
	}
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := RunBackend(b, Options{Seed: 1, Cache: cache}, RepAxis); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 8 {
		t.Fatalf("volatile backend executed %d cells, want 8 (no replay)", runs.Load())
	}
	cc := cache.Counters()
	if cc.Bypassed != 8 || cc.Hits != 0 || cc.Writes != 0 {
		t.Fatalf("counters = %+v, want 8 bypassed and nothing else", cc)
	}
	if files := cacheEntryFiles(t, cache); len(files) != 0 {
		t.Fatalf("volatile backend wrote %d entries", len(files))
	}
}

// TestCacheReplay: a fully cached lease replays to the same Collapsed a
// RunCells would produce; one missing cell makes the whole replay
// refuse.
func TestCacheReplay(t *testing.T) {
	g := NewGrid(Strings("mode", "a", "b"), Floats("x", 1, 2), Reps(2))
	seed := uint64(5)
	cache, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	b := FuncBackend{Engine: "prop", G: g, Run: propertyCell}
	if _, err := RunBackend(b, Options{Seed: seed, Cache: cache}, RepAxis); err != nil {
		t.Fatal(err)
	}
	sc := cache.Sweep("prop", "", g, seed)
	cells := []int{0, 3, 5}
	direct, err := RunCells(g, propertyCell, seed, 1, cells, RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	replayed, ok := sc.Replay(g, cells, RepAxis)
	if !ok {
		t.Fatal("fully cached replay refused")
	}
	var got, want strings.Builder
	if err := replayed.WriteShard(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteShard(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("replayed shard differs from executed shard")
	}
	if err := os.Remove(sc.entryPath(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Replay(g, cells, RepAxis); ok {
		t.Fatal("replay with a missing cell accepted")
	}
	if _, ok := sc.Replay(g, []int{0, direct.cells * 10}, RepAxis); ok {
		t.Fatal("replay with an out-of-range cell accepted")
	}
}

// TestCacheNilSafety: nil caches and nil bindings run cells unwrapped.
func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	if c.Dir() != "" {
		t.Fatal("nil cache has a dir")
	}
	if cc := c.Counters(); cc != (CacheCounters{}) {
		t.Fatal("nil cache has counters")
	}
	if sc := c.Sweep("sim", "", NewGrid(Reps(1)), 1); sc != nil {
		t.Fatal("nil cache produced a binding")
	}
	if sc := c.BypassSweep(); sc != nil {
		t.Fatal("nil cache produced a bypass binding")
	}
	var sc *SweepCache
	ran := false
	run := sc.WrapCell(func(p Point, rec *Recorder) error { ran = true; return nil })
	if err := run(Point{}, &Recorder{}); err != nil || !ran {
		t.Fatal("nil binding did not pass the cell through")
	}
	if sc.Load(0, &Recorder{}) {
		t.Fatal("nil binding hit")
	}
	sc.Store(0, &Recorder{})
	if _, ok := sc.Replay(NewGrid(Reps(1)), nil); ok {
		t.Fatal("nil binding replayed")
	}
	if _, err := NewCache(""); err == nil {
		t.Fatal("empty cache dir accepted")
	}
}
