package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	hp "hadooppreempt"
	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/sweep"
	swim "hadooppreempt/internal/workload" // SWIM traces and their replay
)

const (
	// reps is the paper's repetition count, at which the goldens were
	// generated.
	reps = 20
	// pool is the worker pool of the one load-generating process: nproc
	// on the 2-vCPU machine the benchmark was sized on. A served sweep
	// splits it into two workers of one cell each.
	pool = 2
	// clusterJobs is the generated job count of a cluster-scale cell, as
	// hadoopsim uses it.
	clusterJobs = 12
	// Replay sizing. hfsp replay time grows faster than quadratically
	// with trace length, so the trace stays short enough for many passes
	// a run; timescale 10 keeps it saturated.
	replayJobs      = 250
	replayTimescale = 10
	replayWindow    = 64
	replayReps      = 2
	// leaseCells keeps a served sweep's leases small, so the twojob
	// sweep makes many lease and result round trips and checkpoint
	// writes (34 of each).
	leaseCells = 16
	// passTimeout bounds one served sweep, so a stuck coordinator or
	// worker ends the run instead of hanging it.
	passTimeout = 60 * time.Second
)

// A grid is one sweep of a pass, with the output it must produce.
type grid struct {
	name string
	// key names the output in digestsFile: the grid plus every
	// parameter its seed-1 output depends on.
	key string
	// golden is the committed seed-1 output, when one exists.
	golden string
	// jobs is the number of simulated jobs one cell runs.
	jobs int
	// served sends the sweep through an in-process coordinator and two
	// workers instead of the local pool.
	served bool
	build  func() (sweep.Backend, error)
}

// A workload is what one benchmark run measures.
type workload struct {
	name string
	// grids returns the sweeps of one pass. Set-up work they need (trace
	// synthesis) happens here and is traced under parent.
	grids func(seed uint64, tr *tracer, parent int64) ([]grid, error)
}

func simGrid(name string, jobs int, golden bool) grid {
	g := grid{
		name: name,
		key:  fmt.Sprintf("%s reps=%d jobs=%d seed=1", name, reps, clusterJobs),
		jobs: jobs,
		build: func() (sweep.Backend, error) {
			return hp.SimSweep(name, clusterJobs, reps)
		},
	}
	if golden {
		g.golden = fmt.Sprintf("goldens/grid_%s_reps%d.csv", name, reps)
	}
	return g
}

// Jobs per cell: a two-job cell runs tl and th; cluster cells run
// clusterJobs generated jobs; scenario cells run genload's default 8.
var (
	twojobGrid   = simGrid("twojob", 2, true)
	pressureGrid = simGrid("pressure", 2, true)
	clusterGrids = []grid{
		simGrid("cluster", clusterJobs, true),
		simGrid("evict", clusterJobs, false),
		simGrid("primitive", clusterJobs, false),
		simGrid("scenarios", hp.DefaultGenScenario().Jobs, false),
	}
	// servedTwojob is the benchmark's coordinator load: the twojob grid
	// served to two workers with small leases and checkpoints on. Its
	// cells are the cheapest, so the coordinator's share of the sweep is
	// the largest any grid gives it. It rides in cluster-grids rather
	// than in a workload of its own: served alone, its throughput swung
	// with the VM's scheduling and disk latency (see README.md).
	servedTwojob = func() grid {
		g := simGrid("twojob", 2, true)
		g.served = true
		return g
	}()
)

func fixed(gs ...grid) func(uint64, *tracer, int64) ([]grid, error) {
	return func(uint64, *tracer, int64) ([]grid, error) { return gs, nil }
}

var workloads = []*workload{
	{name: "paper-grids", grids: fixed(twojobGrid, pressureGrid)},
	{name: "cluster-grids", grids: fixed(append(slices.Clone(clusterGrids), servedTwojob)...)},
	{name: "replay-schedulers", grids: replayGrids},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// replayGrids synthesizes the SWIM trace and replays it under each
// scheduler, one trace shard and replayReps repetitions per sweep. The
// trace is the fixed-seed one hadoopsim -trace-gen builds: one trace's
// replay cost varies by up to 1.8x between synthesis seeds (hfsp's queue
// scans follow the trace's worst backlog), which no run length can
// steady. The workload seed drives each cell's cluster randomness.
func replayGrids(seed uint64, tr *tracer, parent int64) ([]grid, error) {
	var jobs []swim.TraceJob
	err := tr.timed(spanSynth, parent, func(int64) error {
		var err error
		jobs, err = hp.SynthesizeSWIMTrace(replayJobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	var gs []grid
	for _, sched := range []string{"fifo", "fair", "hfsp"} {
		cfg := swim.ReplayConfig{
			Jobs: jobs, Shards: 1, Reps: replayReps, Scheduler: sched,
			TimeScale: replayTimescale, Window: replayWindow,
		}
		gs = append(gs, grid{
			name: "replay-" + sched,
			key: fmt.Sprintf("replay-%s trace-gen=%d timescale=%d window=%d reps=%d seed=1",
				sched, replayJobs, replayTimescale, replayWindow, replayReps),
			jobs:  replayJobs,
			build: func() (sweep.Backend, error) { return swim.NewReplayBackend(cfg) },
		})
	}
	return gs, nil
}

// output is one sweep's CSV encoding; nil when the sweep failed.
type output struct {
	name string
	csv  []byte
}

// passResult is what one pass of a workload measured.
type passResult struct {
	// wall is the pass's timed region: every local sweep from the start
	// of its set-up to its encoded output, and every served sweep from
	// the coordinator's Start until Wait returns the merged result, plus
	// its encoding.
	wall time.Duration
	// setup is the wall time before the first cell ran, summed over the
	// pass's sweeps.
	setup time.Duration
	// cells and jobs completed.
	cells, jobs int
	// units attempted and failed: cells of local sweeps, leases of
	// served ones.
	units, unitErrs int
	outputs         []output
	// leases, steals and duplicates of the served sweeps' coordinators.
	leases, steals, duplicates int
	// peakRSS is the process's peak resident set size during the pass.
	peakRSS int64
	// mem is the Go runtime's allocation and GC activity during the
	// pass.
	mem memCounts
	err error
}

func (r *passResult) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// runPass runs one pass of the workload. A reference pass runs every
// sweep serially in process, served ones included, to give the outputs
// a pass must reproduce.
func runPass(w *workload, seed uint64, tr *tracer, dir string, reference bool) (r passResult) {
	passID := tr.newID()
	start := time.Now()
	defer func() {
		tr.add(span{id: passID, name: spanPass, start: start, end: time.Now()})
	}()
	grids, err := w.grids(seed, tr, passID)
	if err != nil {
		r.err = err
		return r
	}
	segStart := start
	for _, g := range grids {
		out := output{name: g.name}
		switch {
		case reference:
			out.csv = localSweep(&r, g, seed, tr, passID, 1, segStart)
		case g.served:
			out.csv = servedSweep(&r, g, seed, tr, passID, dir)
		default:
			out.csv = localSweep(&r, g, seed, tr, passID, pool, segStart)
		}
		r.outputs = append(r.outputs, out)
		segStart = time.Now()
	}
	return r
}

// localSweep runs g through the in-process pool and encodes its result
// as CSV, timed from segStart; nil when the sweep failed.
func localSweep(r *passResult, g grid, seed uint64, tr *tracer, passID int64, parallel int, segStart time.Time) []byte {
	defer func() { r.wall += time.Since(segStart) }()
	b, err := g.build()
	if err != nil {
		r.fail(err)
		return nil
	}
	sweepID := tr.newID()
	watch := &cellWatch{tr: tr, parent: sweepID}
	sweepStart := time.Now()
	col, err := sweep.RunBackend(probe{b, watch}, sweep.Options{Parallel: parallel, Seed: seed}, sweep.RepAxis)
	tr.add(span{id: sweepID, parent: passID, name: spanSweep, start: sweepStart, end: time.Now()})
	if first := watch.firstCell(); !first.IsZero() {
		r.setup += first.Sub(segStart)
	}
	cells, errs := int(watch.cells.Load()), int(watch.errs.Load())
	r.units += cells
	r.unitErrs += errs
	r.cells += cells - errs
	r.jobs += (cells - errs) * g.jobs
	if err != nil {
		r.fail(err)
		return nil
	}
	return encode(r, col, tr, passID)
}

// encode writes a sweep's CSV, timed as part of the pass.
func encode(r *passResult, col *sweep.Collapsed, tr *tracer, passID int64) []byte {
	var buf bytes.Buffer
	if err := tr.timed(spanEncode, passID, func(int64) error { return col.WriteCSV(&buf) }); err != nil {
		r.fail(err)
		return nil
	}
	return buf.Bytes()
}

// servedSweep serves g from an in-process coordinator to two in-process
// workers over loopback HTTP, with checkpointing on, and encodes the
// merged result as CSV; nil when the sweep failed. Workers start from
// OnListen, so they never wait out a join retry; they are retired and
// the coordinator closed after the timed region, so its shutdown grace
// never lands in it.
func servedSweep(r *passResult, g grid, seed uint64, tr *tracer, passID int64, dir string) []byte {
	b, err := g.build()
	if err != nil {
		r.fail(err)
		return nil
	}
	sg, err := b.Grid()
	if err != nil {
		r.fail(err)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	sweepID := tr.newID()
	watch := &cellWatch{tr: tr, parent: sweepID}
	const workers = pool
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	cfg := coord.Config{
		Addr:        "127.0.0.1:0",
		LeaseCells:  leaseCells,
		Checkpoint:  filepath.Join(dir, "sweep.ckpt"),
		BackendName: b.Name(),
		BackendFP:   coord.BackendFingerprint(b),
		Context:     ctx,
		OnListen: func(addr string) {
			for i := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					workerErrs[i] = runWorker(ctx, addr, g, watch, tr, sweepID)
				}()
			}
		},
	}
	if tr != nil {
		ck := newCkptTracer(tr, sweepID)
		cfg.Middleware = ck.middleware
		cfg.WriteCheckpoint = ck.write
	}
	var c *coord.Coordinator
	tr.timed(spanCoordNew, passID, func(int64) error { c = coord.New(cfg); return nil })
	t0 := time.Now()
	err = tr.timed(spanCoordStart, sweepID, func(int64) error { return c.Start(sg, seed, sweep.RepAxis) })
	var col *sweep.Collapsed
	if err == nil {
		err = tr.timed(spanCoordWait, sweepID, func(int64) error {
			var err error
			col, err = c.Wait(ctx)
			return err
		})
	}
	t1 := time.Now()
	tr.add(span{id: sweepID, parent: passID, name: spanServed, start: t0, end: t1})
	var csv []byte
	if err == nil {
		csv = encode(r, col, tr, passID)
	}
	r.wall += time.Since(t0)
	wg.Wait()
	c.Close()

	st := c.Stats()
	r.units += st.Leases
	r.unitErrs += st.Failures + st.Reissues
	for _, werr := range workerErrs {
		if werr != nil {
			r.unitErrs++
			if err == nil {
				err = werr
			}
		}
	}
	r.leases += st.Leases
	r.steals += st.Steals
	r.duplicates += st.Duplicates
	if first := watch.firstCell(); !first.IsZero() {
		r.setup += first.Sub(t0)
	}
	if err != nil {
		r.fail(err)
		return nil
	}
	r.cells += sg.Size()
	r.jobs += sg.Size() * g.jobs
	return csv
}

// runWorker is one in-process worker: it builds its own backend, as a
// worker process would, and talks to the coordinator through its own
// HTTP transport, traced when tr is set.
func runWorker(ctx context.Context, addr string, g grid, watch *cellWatch, tr *tracer, parent int64) error {
	b, err := g.build()
	if err != nil {
		return err
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = &tracedTransport{base: transport, tr: tr, parent: parent}
	}
	return coord.RunWorker(ctx, coord.WorkerConfig{
		Addr:     addr,
		Backend:  probe{b, watch},
		Parallel: 1,
		Client:   &http.Client{Timeout: 30 * time.Second, Transport: rt},
	})
}
