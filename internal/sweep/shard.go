package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Cross-process sharding: cell seeds derive from grid coordinates, so
// slicing a grid across processes is pure partitioning — a shard runs
// its cells with the exact seeds they have in the full sweep, writes
// its partial aggregates (raw sample multisets, so percentiles merge
// exactly) to a shard file, and Merge combines any permutation of the
// shard files into a result byte-identical to a single-process run.

// Shard selects the i-th of n seed-stable slices of a grid. Cells are
// assigned round-robin by grid index, which balances repetitions across
// shards. The zero value selects the whole grid.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// NewShard returns the i-th of n shards, validating the pair.
func NewShard(i, n int) (Shard, error) {
	s := Shard{Index: i, Count: n}
	if err := s.validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// ParseShard parses an "i/n" specification, e.g. "0/3".
func ParseShard(spec string) (Shard, error) {
	i, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard %q: want i/n", spec)
	}
	idx, err1 := strconv.Atoi(i)
	cnt, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("sweep: shard %q: want integer i/n", spec)
	}
	if cnt < 1 {
		return Shard{}, fmt.Errorf("sweep: shard %q: need at least one shard", spec)
	}
	return NewShard(idx, cnt)
}

// String renders the "i/n" form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

func (s Shard) validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("sweep: negative shard %s", s)
	}
	if s.Index >= s.Count && s.Index > 0 {
		return fmt.Errorf("sweep: shard index %d out of range of %d shards", s.Index, s.Count)
	}
	return nil
}

// owns reports whether the shard runs the given grid cell.
func (s Shard) owns(cell int) bool {
	return s.Count <= 1 || cell%s.Count == s.Index
}

// shardFile is the serialized form of a Collapsed result. It carries
// the raw sample multisets rather than summaries: order statistics do
// not merge, sample sets do. Float values round-trip exactly through
// JSON (Go emits the shortest representation that parses back to the
// same float64), so merged output is byte-identical to an unsharded
// run.
type shardFile struct {
	Version   int          `json:"version"`
	Seed      uint64       `json:"seed"`
	Cells     int          `json:"cells"`
	Collapse  []string     `json:"collapse,omitempty"`
	GroupAxes []string     `json:"group_axes"`
	Shard     Shard        `json:"shard"`
	Metrics   []string     `json:"metrics"`
	Groups    []shardGroup `json:"groups"`
}

const shardFileVersion = 1

type shardGroup struct {
	Key      string            `json:"key"`
	Labels   map[string]string `json:"labels"`
	Count    int               `json:"count"`
	First    int               `json:"first"`
	HasFirst bool              `json:"has_first,omitempty"`
	// Samples is indexed like Metrics; groups missing a metric carry
	// null/short rows.
	Samples [][]float64 `json:"samples"`
}

// WriteShard serializes the result — raw samples included — so another
// process can merge it with its sibling shards.
func (c *Collapsed) WriteShard(w io.Writer) error {
	f := shardFile{
		Version:   shardFileVersion,
		Seed:      c.Seed,
		Cells:     c.cells,
		Collapse:  c.CollapsedAxes,
		GroupAxes: c.GroupAxes,
		Shard:     c.Shard,
		Metrics:   c.names,
		Groups:    make([]shardGroup, len(c.Groups)),
	}
	for i, g := range c.Groups {
		f.Groups[i] = shardGroup{
			Key:      g.Key,
			Labels:   g.Labels,
			Count:    g.Count,
			First:    g.firstIndex,
			HasFirst: g.hasFirst,
			Samples:  g.samples,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ReadShard deserializes a shard file written by WriteShard. Truncated
// or corrupt input — short streams, trailing garbage, duplicate group
// keys, sample rows without cells, out-of-range first-cell indices —
// fails with an error rather than silently mis-merging downstream.
func ReadShard(r io.Reader) (*Collapsed, error) {
	var f shardFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("sweep: shard file: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("sweep: shard file: trailing data after result (two shards in one file?)")
	}
	if f.Version != shardFileVersion {
		return nil, fmt.Errorf("sweep: shard file version %d, want %d", f.Version, shardFileVersion)
	}
	if f.Cells < 1 {
		return nil, fmt.Errorf("sweep: shard file: grid of %d cells", f.Cells)
	}
	if err := f.Shard.validate(); err != nil {
		return nil, err
	}
	c := &Collapsed{
		Seed:          f.Seed,
		CollapsedAxes: f.Collapse,
		GroupAxes:     f.GroupAxes,
		Shard:         f.Shard,
		cells:         f.Cells,
		names:         f.Metrics,
		ids:           make(map[string]int, len(f.Metrics)),
	}
	for id, n := range f.Metrics {
		if _, ok := c.ids[n]; ok {
			return nil, fmt.Errorf("sweep: shard file: metric %q listed twice", n)
		}
		c.ids[n] = id
	}
	c.Groups = make([]*Group, len(f.Groups))
	keys := make(map[string]bool, len(f.Groups))
	for i, g := range f.Groups {
		if keys[g.Key] {
			return nil, fmt.Errorf("sweep: shard file: duplicate group %q", g.Key)
		}
		keys[g.Key] = true
		if len(g.Samples) > len(f.Metrics) {
			return nil, fmt.Errorf("sweep: shard file: group %d has %d sample rows for %d metrics",
				i, len(g.Samples), len(f.Metrics))
		}
		if g.Count < 0 {
			return nil, fmt.Errorf("sweep: shard file: group %d has negative count", i)
		}
		if g.Count == 0 {
			for _, row := range g.Samples {
				if len(row) > 0 {
					return nil, fmt.Errorf("sweep: shard file: group %d has samples but ran no cells", i)
				}
			}
		}
		if g.First < 0 || g.First >= f.Cells {
			return nil, fmt.Errorf("sweep: shard file: group %d first cell %d outside grid of %d cells",
				i, g.First, f.Cells)
		}
		c.Groups[i] = &Group{
			Key:        g.Key,
			Labels:     g.Labels,
			Count:      g.Count,
			firstIndex: g.First,
			hasFirst:   g.HasFirst,
			samples:    g.Samples,
		}
	}
	c.finalize()
	return c, nil
}

// Merge combines the shards of one sweep into the full result. It
// accepts the shards in any order and produces the byte-identical
// output of a single-process run for every encoder. All shards of the
// split must be present exactly once; a lone result must be unsharded.
// The shards then fold through an Accumulator, which rejects shards of
// different sweeps, overlapping slices and — since shard files can be
// edited or truncated — a set that does not cover every grid cell.
func Merge(shards ...*Collapsed) (*Collapsed, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sweep: merge of no shards")
	}
	seen := make([]bool, len(shards))
	for _, s := range shards {
		if max(s.Shard.Count, 1) != len(shards) {
			return nil, fmt.Errorf("sweep: shard %s in a merge of %d files", s.Shard, len(shards))
		}
		if seen[s.Shard.Index] {
			return nil, fmt.Errorf("sweep: shard %s present twice", s.Shard)
		}
		seen[s.Shard.Index] = true
	}
	acc := accumulatorLike(shards[0])
	for _, s := range shards {
		if err := acc.absorb(s); err != nil {
			return nil, fmt.Errorf("%w (shard %s)", err, s.Shard)
		}
	}
	return acc.Merged()
}
