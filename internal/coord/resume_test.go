package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hadooppreempt/internal/atomicio"
	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/sweep"
)

// TestCoordinatorKillResumeProperty is the coordinator-loss mirror of
// the worker-loss parity property: for random grids, collapse sets and
// kill points, a coordinator killed cold after k accepted uploads (no
// drain, no graceful shutdown — only what the checkpoint made durable)
// and restored from its checkpoint finishes the sweep byte-identically
// to a single-process run, without re-running the leases that were
// already durable.
func TestCoordinatorKillResumeProperty(t *testing.T) {
	rng := sim.NewRNG(20260807)
	for trial := 0; trial < 10; trial++ {
		g := randomGrid(rng)
		collapse := randomCollapse(rng, g)
		seed := rng.Uint64()
		want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 4, Seed: seed}, collapse...)
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), "coord.ckpt")
		cfg := Config{
			Addr:       "127.0.0.1:0",
			LeaseCells: 1 + rng.Intn(3),
			LeaseTTL:   time.Minute,
			DoneGrace:  200 * time.Millisecond,
			Checkpoint: ckpt,
		}
		c1 := New(cfg)
		if err := c1.Start(g, seed, collapse...); err != nil {
			t.Fatal(err)
		}
		// Upload k leases through the first incarnation, then kill it
		// cold. The kill point ranges over the whole sweep, including
		// "before any upload" and "after the last one".
		leases := (g.Size() + cfg.LeaseCells - 1) / cfg.LeaseCells
		kill := rng.Intn(leases + 1)
		rc := newRawClient(t, c1, g)
		for k := 0; k < kill; k++ {
			lr := rc.lease()
			if lr.Status != statusLease {
				t.Fatalf("trial %d: upload %d got %q, want a lease", trial, k, lr.Status)
			}
			rc.upload(g, lr, 2)
		}
		c1.Close()

		c2, err := resume(cfg, g, seed, collapse...)
		if err != nil {
			t.Fatalf("trial %d (kill=%d/%d): resume: %v", trial, kill, leases, err)
		}
		st := c2.Status()
		if st.Sweeps[0].LeasesDone != kill {
			t.Fatalf("trial %d: resumed with %d leases done, checkpoint had %d",
				trial, st.Sweeps[0].LeasesDone, kill)
		}
		if err := RunWorker(context.Background(), WorkerConfig{
			Addr: c2.Addr(), Backend: &testBackend{g: g}, Parallel: 2,
		}); err != nil {
			t.Fatalf("trial %d: worker after resume: %v", trial, err)
		}
		got, err := c2.Wait(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c2.Drain()
		if encodeAll(t, got) != encodeAll(t, want) {
			t.Fatalf("trial %d (cells=%d kill=%d/%d): resumed output differs from single-process",
				trial, g.Size(), kill, leases)
		}
	}
}

// partialCheckpoint runs a coordinator through part of a sweep and
// kills it, returning the checkpoint path and the sweep parameters.
func partialCheckpoint(t testing.TB, dir string) (string, sweep.Grid, uint64) {
	t.Helper()
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(4))
	ckpt := filepath.Join(dir, "coord.ckpt")
	c := New(Config{
		Addr: "127.0.0.1:0", LeaseCells: 2, LeaseTTL: time.Minute, Checkpoint: ckpt,
	})
	if err := c.Start(g, 11, "rep"); err != nil {
		t.Fatal(err)
	}
	rc := newRawClient(t, c, g)
	lr := rc.lease()
	if lr.Status != statusLease {
		t.Fatalf("got %q, want a lease", lr.Status)
	}
	rc.upload(g, lr, 1)
	c.Close()
	return ckpt, g, 11
}

// resume restarts a coordinator from cfg.Checkpoint the way hadoopsim
// -serve -resume does: enqueue the sweep under the Config's backend
// identity, restore, then serve.
func resume(cfg Config, g sweep.Grid, seed uint64, collapse ...string) (*Coordinator, error) {
	c := New(cfg)
	if _, err := c.Enqueue(Sweep{
		Grid: g, Seed: seed, Collapse: collapse,
		BackendName: cfg.BackendName, BackendFP: cfg.BackendFP,
	}); err != nil {
		return nil, err
	}
	if err := c.Restore(cfg.Checkpoint); err != nil {
		return nil, err
	}
	return c, c.Serve()
}

// resumeWith builds a fresh coordinator over the same sweep and tries
// to restore the given checkpoint file.
func resumeWith(t *testing.T, ckpt string, g sweep.Grid, seed uint64, leaseCells int) error {
	t.Helper()
	c := New(Config{Addr: "127.0.0.1:0", LeaseCells: leaseCells, LeaseTTL: time.Minute})
	if _, err := c.Enqueue(Sweep{Grid: g, Seed: seed, Collapse: []string{"rep"}}); err != nil {
		t.Fatal(err)
	}
	return c.Restore(ckpt)
}

// TestCheckpointRobustness: truncated, tampered and mismatched
// checkpoint files fail resume with clear errors instead of silently
// corrupting the sweep — the coordinator-state mirror of the shard
// hardening suite.
func TestCheckpointRobustness(t *testing.T) {
	dir := t.TempDir()
	ckpt, g, seed := partialCheckpoint(t, dir)
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// The untouched checkpoint restores cleanly.
	if err := resumeWith(t, ckpt, g, seed, 2); err != nil {
		t.Fatalf("pristine checkpoint failed resume: %v", err)
	}

	// Truncated file: a torn write must not half-parse.
	err = resumeWith(t, mutate("trunc.ckpt", raw[:len(raw)/2]), g, seed, 2)
	if err == nil || !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("truncated checkpoint: %v", err)
	}

	// Tampered state bytes: valid JSON, wrong checksum.
	tampered := bytes.Replace(raw, []byte(`"boot":0`), []byte(`"boot":7`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found in checkpoint")
	}
	err = resumeWith(t, mutate("tamper.ckpt", tampered), g, seed, 2)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("tampered checkpoint: %v", err)
	}

	// Unknown envelope version.
	var env checkpointEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env.Version = 99
	reversioned, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	err = resumeWith(t, mutate("version.ckpt", reversioned), g, seed, 2)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future-version checkpoint: %v", err)
	}

	// A correctly re-signed checkpoint whose lease ledger disagrees
	// with its aggregate — the deep cross-check, past the checksum.
	var st checkpointState
	if err := json.Unmarshal(env.State, &st); err != nil {
		t.Fatal(err)
	}
	st.Sweeps[0].DoneLeases = append(st.Sweeps[0].DoneLeases, 1)
	forged := resign(t, st)
	err = resumeWith(t, mutate("ledger.ckpt", forged), g, seed, 2)
	if err == nil || !strings.Contains(err.Error(), "disagree with the lease ledger") {
		t.Fatalf("ledger-forged checkpoint: %v", err)
	}

	// Grid fingerprint mismatch: the checkpoint describes another sweep.
	other := sweep.NewGrid(sweep.Strings("a", "x", "z"), sweep.Reps(4))
	err = resumeWith(t, ckpt, other, seed, 2)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign-grid resume: %v", err)
	}

	// Lease partition mismatch: lease ids would not line up.
	err = resumeWith(t, ckpt, g, seed, 3)
	if err == nil || !strings.Contains(err.Error(), "cells per lease") {
		t.Fatalf("repartitioned resume: %v", err)
	}

	// Resume without a checkpoint path.
	if err := resumeWith(t, "", g, seed, 2); err == nil || !strings.Contains(err.Error(), "checkpoint path") {
		t.Fatalf("resume without path: %v", err)
	}

	// Missing file.
	if err := resumeWith(t, filepath.Join(dir, "absent.ckpt"), g, seed, 2); err == nil {
		t.Fatal("resume from a missing file succeeded")
	}
}

// FuzzRestore feeds Restore arbitrary checkpoint files, and arbitrary
// states under a valid envelope and checksum (sign), for the sweep that
// partialCheckpoint leaves half done. The seeds are that checkpoint and
// the damaged and forged variants TestCheckpointRobustness rejects.
// Restore must never panic, and a checkpoint it accepts, saved again by
// the restored coordinator, must restore again to the same ledger and
// aggregate.
func FuzzRestore(f *testing.F) {
	ckpt, g, seed := partialCheckpoint(f, f.TempDir())
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		f.Fatal(err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		f.Fatal(err)
	}
	var st checkpointState
	if err := json.Unmarshal(env.State, &st); err != nil {
		f.Fatal(err)
	}
	f.Add(raw, false)
	f.Add(raw[:len(raw)/2], false)
	f.Add(bytes.Replace(raw, []byte(`"boot":0`), []byte(`"boot":7`), 1), false)
	f.Add([]byte(env.State), true)
	st.Sweeps[0].DoneLeases = append(st.Sweeps[0].DoneLeases, 1)
	forged, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forged, true)

	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.ckpt"), filepath.Join(dir, "out.ckpt")
	restore := func(path string) (*Coordinator, error) {
		c := New(Config{
			Addr: "127.0.0.1:0", LeaseCells: 2, LeaseTTL: time.Minute,
			Checkpoint: out, WriteCheckpoint: atomicio.WriteFileAtomic,
		})
		if _, err := c.Enqueue(Sweep{Grid: g, Seed: seed, Collapse: []string{"rep"}}); err != nil {
			return nil, err
		}
		return c, c.Restore(path)
	}
	// saved re-saves c's checkpoint and returns its sweeps.
	saved := func(t *testing.T, c *Coordinator) []checkpointSweep {
		c.mu.Lock()
		c.saveCheckpoint()
		c.mu.Unlock()
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var env checkpointEnvelope
		var st checkpointState
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(env.State, &st); err != nil {
			t.Fatal(err)
		}
		return st.Sweeps
	}
	f.Fuzz(func(t *testing.T, data []byte, sign bool) {
		if sign {
			// The envelope holds its state compacted, as saveCheckpoint
			// writes it; sign what it will hold.
			var state bytes.Buffer
			if json.Compact(&state, data) != nil {
				return // not a JSON value
			}
			var err error
			if data, err = json.Marshal(checkpointEnvelope{
				Version: checkpointVersion, Sum: atomicio.Checksum(state.Bytes()), State: state.Bytes(),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := restore(in)
		if err != nil {
			return
		}
		first := saved(t, c)
		again, err := restore(out)
		if err != nil {
			t.Fatalf("an accepted checkpoint, saved again, does not restore: %v", err)
		}
		if second := saved(t, again); !reflect.DeepEqual(first, second) {
			t.Fatalf("a re-saved checkpoint restores differently:\n%+v\n%+v", first, second)
		}
	})
}

// resign re-marshals a mutated checkpoint state with a fresh valid
// checksum, modeling corruption beyond what the checksum can catch.
func resign(t *testing.T, st checkpointState) []byte {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(checkpointEnvelope{
		Version: checkpointVersion,
		Sum:     atomicio.Checksum(raw),
		State:   raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestCoordinatorMemoryOGroups asserts the incremental-merge memory
// bound: the coordinator's aggregate state depends only on the sweep's
// group structure and sample volume, never on how many leases the grid
// was cut into. A 64-cell sweep collapsed to one group is run once as
// 64 single-cell leases and once as a single 64-cell lease; the
// checkpointed aggregates must be byte-identical, and the whole
// checkpoint may differ only by the lease ledger.
func TestCoordinatorMemoryOGroups(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(32))
	aggregates := make([][]byte, 0, 2)
	outputs := make([]string, 0, 2)
	leases := []int{1, g.Size()}
	for _, leaseCells := range leases {
		ckpt := filepath.Join(t.TempDir(), "coord.ckpt")
		c := New(Config{
			Addr: "127.0.0.1:0", LeaseCells: leaseCells, LeaseTTL: time.Minute,
			DoneGrace: 100 * time.Millisecond, Checkpoint: ckpt,
		})
		if err := c.Start(g, 17, "rep", "a"); err != nil {
			t.Fatal(err)
		}
		if err := RunWorker(context.Background(), WorkerConfig{
			Addr: c.Addr(), Backend: &testBackend{g: g}, Parallel: 2,
		}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c.Drain()
		raw, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var env checkpointEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		var st checkpointState
		if err := json.Unmarshal(env.State, &st); err != nil {
			t.Fatal(err)
		}
		if n := len(st.Sweeps[0].DoneLeases); n != (g.Size()+leaseCells-1)/leaseCells {
			t.Fatalf("LeaseCells=%d: ledger has %d leases", leaseCells, n)
		}
		aggregates = append(aggregates, st.Sweeps[0].Aggregate)
		outputs = append(outputs, encodeAll(t, got))
	}
	// The two aggregates hold the same sample multiset (possibly in a
	// different raw order), so their serialized size is exactly equal:
	// state is O(groups + samples), with zero bytes per extra lease.
	if len(aggregates[0]) != len(aggregates[1]) {
		t.Fatalf("aggregate state depends on lease count: %d bytes with %d leases vs %d bytes with 1 lease",
			len(aggregates[0]), g.Size(), len(aggregates[1]))
	}
	// And they are semantically identical: each restores to the same
	// finalized result.
	restored := make([]string, 2)
	for i, agg := range aggregates {
		col, err := sweep.ReadShard(bytes.NewReader(agg))
		if err != nil {
			t.Fatal(err)
		}
		acc, err := sweep.NewAccumulator(g, 17, "rep", "a")
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Absorb(col); err != nil {
			t.Fatal(err)
		}
		merged, err := acc.Merged()
		if err != nil {
			t.Fatal(err)
		}
		restored[i] = encodeAll(t, merged)
	}
	if restored[0] != restored[1] {
		t.Fatal("checkpointed aggregates restore to different results")
	}
	if outputs[0] != outputs[1] || outputs[0] != restored[0] {
		t.Fatal("merged output depends on lease partition")
	}
}

// TestMultiSweepQueue: one server, two queued sweeps over different
// grids. Workers for the second sweep poll while the first runs, then
// are admitted when it activates; both results match their
// single-process references.
func TestMultiSweepQueue(t *testing.T) {
	g0 := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(3))
	g1 := sweep.NewGrid(sweep.Strings("b", "p", "q", "r"), sweep.Reps(2))
	want0, err := sweep.RunBackend(&testBackend{g: g0}, sweep.Options{Parallel: 2, Seed: 21}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	want1, err := sweep.RunBackend(&testBackend{g: g1}, sweep.Options{Parallel: 2, Seed: 22}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Addr: "127.0.0.1:0", LeaseCells: 2, LeaseTTL: time.Minute, DoneGrace: 200 * time.Millisecond})
	if _, err := c.Enqueue(Sweep{Grid: g0, Seed: 21, Collapse: []string{"rep"}}); err != nil {
		t.Fatal(err)
	}
	if idx, err := c.Enqueue(Sweep{Grid: g1, Seed: 22, Collapse: []string{"rep"}}); err != nil || idx != 1 {
		t.Fatalf("second sweep enqueued as %d (%v), want 1", idx, err)
	}
	if err := c.Serve(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// The second sweep's worker starts first: it must poll in "queued"
	// state until sweep 0 finishes, then run sweep 1.
	w1done := make(chan error, 1)
	go func() {
		w1done <- RunWorker(context.Background(), WorkerConfig{
			Addr: c.Addr(), Backend: &testBackend{g: g1}, Parallel: 2, JoinWindow: 10 * time.Second,
		})
	}()
	time.Sleep(50 * time.Millisecond)
	if err := RunWorker(context.Background(), WorkerConfig{
		Addr: c.Addr(), Backend: &testBackend{g: g0}, Parallel: 2,
	}); err != nil {
		t.Fatal(err)
	}
	got0, err := c.WaitSweep(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-w1done; err != nil {
		t.Fatal(err)
	}
	got1, err := c.WaitSweep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if encodeAll(t, got0) != encodeAll(t, want0) {
		t.Fatal("sweep 0 output differs from single-process")
	}
	if encodeAll(t, got1) != encodeAll(t, want1) {
		t.Fatal("sweep 1 output differs from single-process")
	}
}

// TestStatusEndpoint exercises GET /v1/status mid-sweep and after
// completion: cell and lease progress, per-worker attribution, ETA
// transitions.
func TestStatusEndpoint(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(4))
	c := startCoordinator(t, Config{LeaseCells: 2, LeaseTTL: time.Minute}, g, 13, "rep")
	rc := newRawClient(t, c, g)
	lr := rc.lease()
	if lr.Status != statusLease {
		t.Fatalf("got %q, want a lease", lr.Status)
	}
	rc.upload(g, lr, 1)
	st, err := FetchStatus(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sweeps) != 1 {
		t.Fatalf("status lists %d sweeps, want 1", len(st.Sweeps))
	}
	ss := st.Sweeps[0]
	if ss.State != sweepActive || ss.Cells != g.Size() || ss.CellsDone != len(lr.Cells) ||
		ss.Leases != g.Size()/2 || ss.LeasesDone != 1 || ss.LeasesOutstanding != 0 ||
		ss.LeasesQueued != g.Size()/2-1 {
		t.Fatalf("mid-sweep status %+v", ss)
	}
	if ss.EtaMS < 0 {
		t.Fatalf("ETA unknown with %d cells done: %+v", ss.CellsDone, ss)
	}
	if len(st.Workers) != 1 || st.Workers[0].CellsDone != len(lr.Cells) {
		t.Fatalf("mid-sweep workers %+v", st.Workers)
	}
	if err := RunWorker(context.Background(), WorkerConfig{
		Addr: c.Addr(), Backend: &testBackend{g: g}, Parallel: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err = FetchStatus(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ss = st.Sweeps[0]
	if ss.State != sweepDone || ss.CellsDone != g.Size() || ss.LeasesDone != ss.Leases || ss.EtaMS != 0 {
		t.Fatalf("post-sweep status %+v", ss)
	}
}

// TestWorkerSurvivesCoordinatorRestart: a live worker keeps retrying
// with bounded backoff while its coordinator is down, then finishes
// the sweep against the resumed incarnation on the same address — no
// worker restart required, output still byte-identical.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(8))
	want, err := sweep.RunBackend(&testBackend{g: g}, sweep.Options{Parallel: 2, Seed: 31}, "rep")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "coord.ckpt")
	cfg := Config{
		Addr: "127.0.0.1:0", LeaseCells: 1, LeaseTTL: time.Minute,
		DoneGrace: 200 * time.Millisecond, Checkpoint: ckpt,
	}
	c1 := New(cfg)
	if err := c1.Start(g, 31, "rep"); err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr()
	// retrying fires once the worker has actually hit the outage and
	// entered its backoff loop — the signal the restart should wait for
	// instead of sleeping a guessed duration.
	retrying := make(chan struct{})
	var once sync.Once
	wdone := make(chan error, 1)
	go func() {
		wdone <- RunWorker(context.Background(), WorkerConfig{
			Addr:    addr,
			Backend: &testBackend{g: g, delay: 5 * time.Millisecond},
			// Parallel 1 + per-cell delay keeps the worker mid-sweep
			// long enough to observe the outage.
			Parallel:    1,
			RetryWindow: 30 * time.Second,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, "retrying") {
					once.Do(func() { close(retrying) })
				}
			},
		})
	}()
	// Kill the coordinator once at least one lease is durable but the
	// sweep is not done.
	for {
		st := c1.Status()
		if done := st.Sweeps[0].LeasesDone; done >= 1 && done < st.Sweeps[0].Leases {
			break
		}
		if st.Sweeps[0].State != sweepActive {
			t.Fatalf("sweep left active state early: %+v", st.Sweeps[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
	c1.Close()
	// Restart only after the worker has observed the outage and begun
	// backing off.
	select {
	case <-retrying:
	case err := <-wdone:
		t.Fatalf("worker exited before observing the outage: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("worker never reported the outage")
	}
	cfg.Addr = addr
	c2, err := resume(cfg, g, 31, "rep")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	if err := <-wdone; err != nil {
		t.Fatalf("worker did not survive the restart: %v", err)
	}
	got, err := c2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2.Drain()
	if encodeAll(t, got) != encodeAll(t, want) {
		t.Fatal("output differs after coordinator restart under a live worker")
	}
}
