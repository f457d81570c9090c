package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"hadooppreempt/internal/atomicio"
)

// The cell-result cache memoizes finished cells on disk, keyed by
// everything that determines a cell's bytes: the grid structure
// fingerprint, the backend's name and content fingerprint, the sweep
// base seed and the cell index. Because cell seeds derive from grid
// coordinates (see Grid.Points), a cell's result is a pure function of
// that key, so replaying cached entries — at any parallelism, shard
// split or worker placement — produces output byte-identical to
// re-executing the cells.
//
// The cache is safe against every failure mode short of a wrong entry
// under a right key: entries are written atomically (unique temp file +
// rename), carry a version and a content checksum, and any anomaly on
// read — missing file, truncation, bit flips, version or key mismatch —
// is a silent miss that falls back to execution, never an error.

// cacheVersion guards the entry layout; bump it when the payload or
// envelope changes so stale entries read as misses, not garbage.
const cacheVersion = 1

// Cache is a persistent content-addressed store of cell results rooted
// at one directory. One Cache may serve many sweeps (each gets its own
// subdirectory derived from its identity) and many processes at once:
// writers never tear entries and readers never trust unverified bytes.
// A nil *Cache is valid and caches nothing.
type Cache struct {
	dir string

	hits     atomic.Int64
	misses   atomic.Int64
	bypassed atomic.Int64
	writes   atomic.Int64
}

// NewCache opens (creating if needed) the cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// CacheCounters snapshots a cache's lookup statistics.
type CacheCounters struct {
	// Hits counts lookups answered from a verified entry.
	Hits int64 `json:"hits"`
	// Misses counts lookups that fell back to execution — absent
	// entries and entries rejected as corrupt, truncated or mismatched.
	Misses int64 `json:"misses"`
	// Bypassed counts cells that skipped the cache entirely because the
	// backend declared itself volatile (see Volatile).
	Bypassed int64 `json:"bypassed"`
	// Writes counts entries stored after a miss.
	Writes int64 `json:"writes"`
}

// Counters snapshots the cache's lookup statistics (zero for nil).
func (c *Cache) Counters() CacheCounters {
	if c == nil {
		return CacheCounters{}
	}
	return CacheCounters{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Bypassed: c.bypassed.Load(),
		Writes:   c.writes.Load(),
	}
}

// Volatile lets a backend opt out of caching. Backends whose cells are
// not pure functions of their seed — the real-process backend measures
// wall-clock time — must report true, or a warm rerun would replay
// stale measurements as if they were fresh.
type Volatile interface {
	CacheVolatile() bool
}

// IsVolatile reports whether the backend declares its cell results
// non-reproducible (see Volatile). Wrappers that forward an inner
// backend's cells should forward this too.
func IsVolatile(b any) bool {
	v, ok := b.(Volatile)
	return ok && v.CacheVolatile()
}

// Sweep binds the cache to one sweep identity: the backend's name and
// content fingerprint plus the grid's structure fingerprint and base
// seed. Entries live under a subdirectory derived from that identity,
// so sweeps never observe each other's cells — a different trace file,
// scenario, seed or axis layout lands in a different keyspace. A nil
// cache (or a grid that fails validation) yields a nil *SweepCache,
// which is valid and caches nothing.
func (c *Cache) Sweep(backend, backendFP string, g Grid, seed uint64) *SweepCache {
	if c == nil {
		return nil
	}
	if err := g.validate(); err != nil {
		return nil
	}
	key := cacheKey(backend, backendFP, g.Fingerprint(), seed)
	sum := sha256.Sum256([]byte(key))
	return &SweepCache{
		cache: c,
		dir:   filepath.Join(c.dir, hex.EncodeToString(sum[:])[:24]),
		key:   key,
		seed:  seed,
	}
}

// BypassSweep returns a binding that runs every cell and counts it as
// bypassed — the wiring for volatile backends, so operators can see a
// configured cache deliberately standing aside rather than silently
// missing.
func (c *Cache) BypassSweep() *SweepCache {
	if c == nil {
		return nil
	}
	return &SweepCache{cache: c, bypass: true}
}

// cacheKey is the full human-readable identity of one sweep's keyspace;
// it is stored in every entry and verified on read, so even a hash
// collision between two sweeps' directories could not cross-feed them.
func cacheKey(backend, backendFP, gridFP string, seed uint64) string {
	return "v" + strconv.Itoa(cacheVersion) +
		"\nbackend " + backend +
		"\nbackend_fp " + backendFP +
		"\ngrid " + gridFP +
		"\nseed " + strconv.FormatUint(seed, 10)
}

// SweepCache is a Cache bound to one sweep's identity. The zero of its
// pointer type (nil) is valid and caches nothing, so call sites wire it
// unconditionally.
type SweepCache struct {
	cache  *Cache
	dir    string
	key    string
	seed   uint64
	bypass bool
}

// cacheEntry is the on-disk envelope of one cell result. Sum is the
// hex sha256 of Payload, so bit flips and truncation inside the payload
// are detected; Key and Cell re-state the identity, so a file copied or
// renamed across keyspaces is rejected.
type cacheEntry struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Cell    int             `json:"cell"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// cachePayload is the serialized Recorder: exactly what a cell reported,
// in report order, so replaying it through the fold is indistinguishable
// from re-running the cell.
type cachePayload struct {
	Names []string  `json:"names,omitempty"`
	Vals  []float64 `json:"vals,omitempty"`
}

// entryPath names the cell's entry file.
func (sc *SweepCache) entryPath(cell int) string {
	return filepath.Join(sc.dir, "cell-"+strconv.Itoa(cell)+".json")
}

// Load fills rec with the cell's cached result and reports whether a
// verified entry was found. Any anomaly — missing file, truncated or
// corrupt JSON, checksum, version, key or cell mismatch — is a miss.
func (sc *SweepCache) Load(cell int, rec *Recorder) bool {
	if sc == nil {
		return false
	}
	if sc.bypass {
		sc.cache.bypassed.Add(1)
		return false
	}
	raw, err := os.ReadFile(sc.entryPath(cell))
	if err != nil {
		sc.cache.misses.Add(1)
		return false
	}
	var e cacheEntry
	if err := atomicio.DecodeStrict(raw, &e, "entry"); err != nil ||
		e.Version != cacheVersion || e.Key != sc.key || e.Cell != cell ||
		atomicio.Checksum(e.Payload) != e.Sum {
		sc.cache.misses.Add(1)
		return false
	}
	var p cachePayload
	if err := atomicio.DecodeStrict(e.Payload, &p, "entry"); err != nil || len(p.Names) != len(p.Vals) {
		sc.cache.misses.Add(1)
		return false
	}
	rec.names = append(rec.names, p.Names...)
	rec.vals = append(rec.vals, p.Vals...)
	sc.cache.hits.Add(1)
	return true
}

// Store persists the cell's result. Failures are deliberately silent:
// the cache is an accelerator, and a full disk or permission problem
// must never fail a sweep that just computed a perfectly good result.
func (sc *SweepCache) Store(cell int, rec *Recorder) {
	if sc == nil || sc.bypass {
		return
	}
	payload, err := json.Marshal(cachePayload{Names: rec.names, Vals: rec.vals})
	if err != nil {
		return
	}
	raw, err := json.Marshal(cacheEntry{
		Version: cacheVersion,
		Key:     sc.key,
		Cell:    cell,
		Sum:     atomicio.Checksum(payload),
		Payload: payload,
	})
	if err != nil {
		return
	}
	if err := os.MkdirAll(sc.dir, 0o755); err != nil {
		return
	}
	if atomicio.WriteFileAtomic(sc.entryPath(cell), append(raw, '\n')) == nil {
		sc.cache.writes.Add(1)
	}
}

// WrapCell layers the cache around a cell function: a verified entry
// answers the cell without executing it, a miss executes and stores. A
// nil receiver returns run unchanged; a bypass binding executes every
// cell and counts it.
func (sc *SweepCache) WrapCell(run CellFunc) CellFunc {
	if sc == nil {
		return run
	}
	return func(p Point, rec *Recorder) error {
		if sc.Load(p.Index, rec) {
			return nil
		}
		if err := run(p, rec); err != nil {
			return err
		}
		sc.Store(p.Index, rec)
		return nil
	}
}

// Replay builds the Collapsed a RunCells over exactly the given cells
// would produce, entirely from verified cache entries, collapsing the
// named axes. It reports ok=false — leaving nothing half-absorbed — if
// any cell lacks a verified entry. The distributed coordinator uses it
// to retire whole leases before issuing them to workers.
func (sc *SweepCache) Replay(g Grid, cells []int, collapse ...string) (*Collapsed, bool) {
	if sc == nil || sc.bypass {
		return nil, false
	}
	points, err := g.Points(sc.seed)
	if err != nil {
		return nil, false
	}
	c := newCollapsed(&g, sc.seed, collapse)
	rec := &Recorder{}
	for _, i := range cells {
		if i < 0 || i >= len(points) {
			return nil, false
		}
		rec.reset()
		if !sc.Load(i, rec) {
			return nil, false
		}
		c.fold(points[i], rec)
	}
	c.finalize()
	return c, true
}
