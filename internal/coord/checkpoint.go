package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"hadooppreempt/internal/atomicio"
	"hadooppreempt/internal/sweep"
)

// checkpointVersion guards the on-disk format; bump it when the layout
// changes so a resume against an old file fails loudly.
const checkpointVersion = 1

// checkpointEnvelope wraps the state with a content checksum so a
// truncated or tampered file fails resume instead of silently
// corrupting a sweep.
type checkpointEnvelope struct {
	Version int             `json:"version"`
	Sum     string          `json:"sum"`
	State   json.RawMessage `json:"state"`
}

// checkpointState is everything a coordinator needs to resume:
// protocol and partition identity, the sweep queue's ledgers and
// running aggregates, and a boot counter that keeps worker ids of the
// next incarnation distinct from pre-crash ones still polling.
type checkpointState struct {
	Proto      int               `json:"proto"`
	LeaseCells int               `json:"lease_cells"`
	Boot       int               `json:"boot"`
	Sweeps     []checkpointSweep `json:"sweeps"`
}

// checkpointSweep is one queue entry: identity fields a resumed
// coordinator must re-derive identically, the ledger of accepted
// leases, and the running aggregate in shard-file encoding.
type checkpointSweep struct {
	Fingerprint string   `json:"fingerprint"`
	Backend     string   `json:"backend,omitempty"`
	BackendFP   string   `json:"backend_fp,omitempty"`
	Seed        uint64   `json:"seed"`
	Collapse    []string `json:"collapse,omitempty"`
	Cells       int      `json:"cells"`
	State       string   `json:"state"`
	Fail        string   `json:"fail,omitempty"`
	DoneLeases  []int    `json:"done_leases,omitempty"`
	// Aggregate is the sweep.WriteShard encoding of the running
	// aggregate over exactly the DoneLeases cells (raw samples
	// included), which is what makes resume byte-exact.
	Aggregate json.RawMessage `json:"aggregate"`
}

// saveCheckpoint persists the coordinator's state atomically (temp
// file + rename). Callers hold mu. Without a configured checkpoint
// path it is a no-op.
func (c *Coordinator) saveCheckpoint() {
	if c.cfg.Checkpoint == "" {
		return
	}
	st := checkpointState{
		Proto:      protocolVersion,
		LeaseCells: c.cfg.LeaseCells,
		Boot:       c.boot,
	}
	for _, s := range c.sweeps {
		cs := checkpointSweep{
			Fingerprint: s.fp,
			Backend:     s.backend,
			BackendFP:   s.backFP,
			Seed:        s.seed,
			Collapse:    s.collapse,
			Cells:       s.cells,
			State:       s.state,
		}
		if s.failed != nil {
			cs.Fail = s.failed.Error()
		}
		for _, l := range s.leases {
			if l.done {
				cs.DoneLeases = append(cs.DoneLeases, l.id)
			}
		}
		agg := s.aggBytes
		if agg == nil {
			var buf bytes.Buffer
			if err := s.acc.WriteState(&buf); err != nil {
				c.logf("checkpoint: serializing sweep %d aggregate: %v", s.index, err)
				return
			}
			agg = buf.Bytes()
		}
		cs.Aggregate = json.RawMessage(agg)
		st.Sweeps = append(st.Sweeps, cs)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		c.logf("checkpoint: encode: %v", err)
		return
	}
	env, err := json.Marshal(checkpointEnvelope{
		Version: checkpointVersion,
		Sum:     atomicio.Checksum(raw),
		State:   raw,
	})
	if err != nil {
		c.logf("checkpoint: encode: %v", err)
		return
	}
	write := c.cfg.WriteCheckpoint
	if write == nil {
		write = WriteFileDurable
	}
	if err := write(c.cfg.Checkpoint, append(env, '\n')); err != nil {
		// Non-fatal by design: the atomic writer guarantees the previous
		// checkpoint file is still intact, so the coordinator runs on
		// with a stale-but-valid ledger (a resume replays a little more
		// work, never wrong work).
		c.logf("checkpoint: %v", err)
		return
	}
	c.logf("checkpoint saved to %s", filepath.Base(c.cfg.Checkpoint))
}

// WriteFileDurable atomically replaces path with data (temp file +
// fsync + rename + directory fsync; see atomicio.WriteFileDurable).
// Without the syncs a crash right after the coordinator acked an upload
// could lose the checkpoint that justified the ack — the rename would
// exist only in the page cache. It is the default checkpoint writer
// (see Config.WriteCheckpoint) and the inner writer a chaos wrapper
// should delegate to.
func WriteFileDurable(path string, data []byte) error {
	return atomicio.WriteFileDurable(path, data)
}

// Restore loads a checkpoint written by a previous incarnation of this
// coordinator and applies it to the enqueued sweeps: accepted leases
// stay done, their aggregate is re-absorbed, and only the remaining
// leases will be issued — so the finished sweep's output is
// byte-identical to an uninterrupted run. The same sweeps must have
// been enqueued first (in the same order, with the same LeaseCells
// partition); Restore rejects a checkpoint whose identity fingerprints
// disagree. Call it before Serve.
func (c *Coordinator) Restore(path string) error {
	if path == "" {
		return fmt.Errorf("coord: resume requested without a checkpoint path")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("coord: resume: %w", err)
	}
	var env checkpointEnvelope
	if err := atomicio.DecodeStrict(raw, &env, "checkpoint"); err != nil {
		return fmt.Errorf("coord: resume %s: truncated or corrupt checkpoint: %v", path, err)
	}
	if env.Version != checkpointVersion {
		return fmt.Errorf("coord: resume %s: checkpoint version %d, want %d", path, env.Version, checkpointVersion)
	}
	if atomicio.Checksum(env.State) != env.Sum {
		return fmt.Errorf("coord: resume %s: checkpoint checksum mismatch (file tampered or torn)", path)
	}
	var st checkpointState
	if err := atomicio.DecodeStrict(env.State, &st, "checkpoint"); err != nil {
		return fmt.Errorf("coord: resume %s: corrupt checkpoint state: %v", path, err)
	}
	if st.Proto != protocolVersion {
		return fmt.Errorf("coord: resume %s: checkpoint from protocol %d, want %d", path, st.Proto, protocolVersion)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serving {
		return fmt.Errorf("coord: Restore after Serve")
	}
	if c.restored {
		return fmt.Errorf("coord: Restore called twice")
	}
	if st.LeaseCells != c.cfg.LeaseCells {
		return fmt.Errorf("coord: resume %s: checkpoint partitioned %d cells per lease, this coordinator %d",
			path, st.LeaseCells, c.cfg.LeaseCells)
	}
	if len(st.Sweeps) != len(c.sweeps) {
		return fmt.Errorf("coord: resume %s: checkpoint has %d sweeps, %d enqueued", path, len(st.Sweeps), len(c.sweeps))
	}
	for i, cs := range st.Sweeps {
		s := c.sweeps[i]
		switch {
		case cs.Fingerprint != s.fp:
			return fmt.Errorf("coord: resume %s: sweep %d grid fingerprint mismatch — checkpoint describes a different sweep", path, i)
		case cs.Cells != s.cells:
			return fmt.Errorf("coord: resume %s: sweep %d has %d cells, checkpoint %d", path, i, s.cells, cs.Cells)
		case cs.Seed != s.seed:
			return fmt.Errorf("coord: resume %s: sweep %d seed %d, checkpoint %d", path, i, s.seed, cs.Seed)
		case !slices.Equal(cs.Collapse, s.collapse):
			return fmt.Errorf("coord: resume %s: sweep %d collapses different axes than checkpoint", path, i)
		case cs.Backend != s.backend || cs.BackendFP != s.backFP:
			return fmt.Errorf("coord: resume %s: sweep %d backend fingerprint mismatch", path, i)
		}
	}
	for i, cs := range st.Sweeps {
		if err := c.restoreSweep(c.sweeps[i], cs); err != nil {
			return fmt.Errorf("coord: resume %s: sweep %d: %w", path, i, err)
		}
	}
	c.boot = st.Boot + 1
	c.restored = true
	c.logf("restored from %s (incarnation %d)", path, c.boot)
	return nil
}

// restoreSweep applies one checkpointed sweep's ledger and aggregate.
// Callers hold mu.
func (c *Coordinator) restoreSweep(s *sweepState, cs checkpointSweep) error {
	col, err := sweep.ReadShard(bytes.NewReader(cs.Aggregate))
	if err != nil {
		return fmt.Errorf("corrupt aggregate: %v", err)
	}
	if err := s.acc.Absorb(col); err != nil {
		return fmt.Errorf("aggregate does not match the enqueued sweep: %v", err)
	}
	got := s.acc.GroupCounts()
	done := make(map[int]bool, len(cs.DoneLeases))
	expected := make([]int, len(got))
	for _, id := range cs.DoneLeases {
		if id < 0 || id >= len(s.leases) {
			return fmt.Errorf("ledger lease %d out of range (grid has %d leases)", id, len(s.leases))
		}
		if done[id] {
			return fmt.Errorf("ledger lists lease %d twice", id)
		}
		done[id] = true
		for gi, n := range s.leases[id].expected {
			expected[gi] += n
		}
	}
	if !slices.Equal(got, expected) {
		return fmt.Errorf("aggregate cell counts disagree with the lease ledger (file tampered or from a different run)")
	}
	pending := s.pending[:0]
	for _, l := range s.leases {
		if done[l.id] {
			l.done = true
			l.queued = false
			s.remaining--
			s.cellsDone += len(l.cells)
		} else {
			pending = append(pending, l.id)
		}
	}
	s.pending = pending
	switch cs.State {
	case sweepFailed:
		s.failed = fmt.Errorf("coord: %s", cs.Fail)
		s.state = sweepFailed
		s.finish.Do(func() { close(s.done) })
	case sweepDone:
		if s.remaining != 0 {
			return fmt.Errorf("checkpoint marks the sweep done with %d leases missing", s.remaining)
		}
		c.completeSweep(s)
		s.finish.Do(func() { close(s.done) })
	case sweepActive, sweepQueued:
		if s.remaining == 0 {
			// Every lease was durable before the crash; the sweep just
			// never got to record its completion.
			c.completeSweep(s)
			s.finish.Do(func() { close(s.done) })
		}
	default:
		return fmt.Errorf("unknown sweep state %q", cs.State)
	}
	c.logf("sweep %d restored: %d/%d leases done", s.index, len(done), len(s.leases))
	return nil
}
