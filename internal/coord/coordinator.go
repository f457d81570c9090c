package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"hadooppreempt/internal/sweep"
)

// Config tunes a coordinator.
type Config struct {
	// Addr is the TCP listen address, e.g. ":9090" or "127.0.0.1:0".
	Addr string
	// LeaseCells is the number of grid cells per lease (default 8).
	// Smaller leases balance uneven cell costs better at the price of
	// more round trips. The value is part of the checkpoint identity: a
	// resumed coordinator must partition leases identically.
	LeaseCells int
	// LeaseTTL bounds how long a lease may stay outstanding without a
	// result before it is re-queued for another worker (default 30s).
	LeaseTTL time.Duration
	// MaxIssues caps how many workers may run one lease concurrently
	// via stealing (default 2: the original holder plus one thief).
	MaxIssues int
	// MaxLeaseFailures is the per-lease failure budget: how many worker
	// cell-error reports a lease absorbs (each one re-queues the lease
	// for another attempt) before the coordinator declares the lease
	// poisoned and aborts the sweep with the offending cell coordinates
	// and the worker's error (default 3).
	MaxLeaseFailures int
	// DoneGrace bounds how long Drain waits for workers to hear their
	// sweep is over before the server stops (default 2s).
	DoneGrace time.Duration
	// BackendName, when set, is the backend identity sweeps enqueued
	// via Start must match at join time.
	BackendName string
	// BackendFP, when set, is the backend content fingerprint for
	// sweeps enqueued via Start (see Fingerprinter).
	BackendFP string
	// Checkpoint, when set, is the path the coordinator persists its
	// state to — sweep fingerprints, the lease ledger and the running
	// aggregate — after every accepted upload, so a killed coordinator
	// can resume. Writes are atomic (temp file + rename).
	Checkpoint string
	// Cache, when set, is the persistent cell-result cache the
	// coordinator consults before issuing leases: a lease whose every
	// cell has a verified entry is absorbed directly (winner "cache")
	// and never reaches a worker. Consultation happens at Serve time,
	// after any Restore, so a resumed ledger is never double-absorbed.
	Cache *sweep.Cache
	// Context is not consulted: Wait and WaitSweep take their own.
	//
	// Deprecated: pass the context to Wait or WaitSweep.
	Context context.Context
	// Middleware, when set, wraps the coordinator's HTTP handler —
	// the hook the chaos harness uses to drop, duplicate, truncate or
	// delay requests at the server boundary.
	Middleware func(http.Handler) http.Handler
	// WriteCheckpoint, when set, replaces the atomic checkpoint writer
	// (temp file + fsync + rename). The chaos harness injects write
	// failures here; the coordinator treats a failed write as a
	// stale-but-valid checkpoint, never as a fatal error.
	WriteCheckpoint func(path string, data []byte) error
	// OnListen, when set, receives the bound listen address once the
	// server is up — the way to learn the port of an ":0" Addr.
	OnListen func(addr string)
	// Logf, when set, receives progress lines (joins, leases, steals,
	// re-issues, completions, checkpoints).
	Logf func(format string, args ...any)
}

// Stats counts scheduling events, for tests and operator logs. With a
// sweep queue, counters aggregate over every sweep.
type Stats struct {
	// Workers is the number of workers that joined.
	Workers int
	// Leases is the number of work units the grids were partitioned
	// into.
	Leases int
	// Reissues counts leases re-queued after their TTL expired with no
	// result (worker loss).
	Reissues int
	// Steals counts speculative duplicate issues of outstanding leases
	// to workers that drained the queue early.
	Steals int
	// Duplicates counts uploaded results discarded because another
	// worker completed the lease first.
	Duplicates int
	// Failures counts worker cell-error reports absorbed within the
	// lease failure budget (each one re-queued the lease).
	Failures int
	// Replays counts duplicated uploads re-acknowledged idempotently
	// because they came from the worker whose copy already won.
	Replays int
}

// Sweep declares one entry of the coordinator's queue: the grid to
// serve, its base seed and collapse axes, and the backend identity
// joining workers must prove.
type Sweep struct {
	Grid     sweep.Grid
	Seed     uint64
	Collapse []string
	// BackendName, when set, must match joining workers' backend name.
	BackendName string
	// BackendFP, when set, must match joining workers' backend content
	// fingerprint (see Fingerprinter).
	BackendFP string
}

// Sweep-state machine values (also serialized into checkpoints).
const (
	sweepQueued = "queued"
	sweepActive = "active"
	sweepDone   = "done"
	sweepFailed = "failed"
)

// lease is one work unit: a batch of grid cell indices. Accepted
// results are folded into the sweep's running aggregate immediately —
// a lease retains no result of its own.
type lease struct {
	id    int
	cells []int
	// expected holds the per-group cell counts a correct result must
	// report, precomputed from the grid geometry.
	expected map[int]int
	done     bool
	// issues holds the expiry times of the active issues of this lease
	// (one per worker currently running it).
	issues []time.Time
	queued bool
	// failures counts worker cell-error reports against this lease; the
	// sweep aborts when it exceeds Config.MaxLeaseFailures. reported
	// remembers which execution attempts already charged the budget, so
	// an error report re-delivered by at-least-once transport (retry
	// after a lost ack, duplication) counts once.
	failures int
	reported map[string]bool
	// winner is the worker whose upload completed the lease, the
	// idempotency key: a re-delivered upload from the winner is
	// re-acknowledged as accepted, anyone else's copy is a duplicate.
	winner string
}

// sweepState is one queue entry's runtime state.
type sweepState struct {
	index    int
	fp       string
	backend  string
	backFP   string
	seed     uint64
	collapse []string
	cells    int
	// grid is retained for cache replay: rebuilding a lease's cells
	// from cache entries needs the cells' coordinate-derived seeds.
	grid     sweep.Grid
	skeleton *sweep.Collapsed
	acc      *sweep.Accumulator
	leases   []*lease
	pending  []int
	// remaining counts leases without an accepted result.
	remaining int
	cellsDone int
	state     string
	merged    *sweep.Collapsed
	// aggBytes freezes the shard-encoded aggregate at completion time
	// (Merged consumes the accumulator), so later checkpoints can still
	// persist finished sweeps.
	aggBytes []byte
	failed   error
	stats    Stats
	started  time.Time
	finish   sync.Once
	done     chan struct{}
}

// terminal reports whether the sweep has finished, one way or another.
func (s *sweepState) terminal() bool {
	return s.state == sweepDone || s.state == sweepFailed
}

// workerInfo tracks one worker's progress for Drain and /v1/status.
// Workers register at join; workers of a previous coordinator
// incarnation (which joined before a crash) re-register lazily on
// their first request after a resume.
type workerInfo struct {
	sweep    int
	told     bool
	cells    int
	joinedAt time.Time
	lastAt   time.Time
}

// Coordinator serves lease-based work units for a queue of sweeps and
// folds the results as they arrive. Create with New, then either call
// Start/Wait/Drain for a single sweep or Enqueue/Serve/WaitSweep/Drain
// for a long-lived service.
type Coordinator struct {
	cfg Config
	// now is the scheduling clock (lease TTLs, worker liveness); tests
	// inject a fake to exercise expiry without real sleeps.
	now func() time.Time

	mu       sync.Mutex
	serving  bool
	restored bool
	boot     int
	sweeps   []*sweepState
	active   int
	workers  map[string]*workerInfo
	joined   int
	lastReq  time.Time
	ln       net.Listener
	srv      *http.Server
}

// New builds a coordinator; Enqueue and Serve (or Start) bind it to its
// sweeps.
func New(cfg Config) *Coordinator {
	if cfg.LeaseCells < 1 {
		cfg.LeaseCells = 8
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxIssues < 1 {
		cfg.MaxIssues = 2
	}
	if cfg.DoneGrace <= 0 {
		cfg.DoneGrace = 2 * time.Second
	}
	if cfg.MaxLeaseFailures < 1 {
		cfg.MaxLeaseFailures = 3
	}
	return &Coordinator{
		cfg:     cfg,
		now:     time.Now,
		workers: make(map[string]*workerInfo),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Enqueue appends a sweep to the queue, partitioning its grid into
// leases, and returns its queue index. Sweeps activate in order; the
// index is what WaitSweep takes and what workers are told at join.
func (c *Coordinator) Enqueue(sw Sweep) (int, error) {
	skel, err := sweep.Skeleton(sw.Grid, sw.Seed, sw.Collapse...)
	if err != nil {
		return 0, err
	}
	acc, err := sweep.NewAccumulator(sw.Grid, sw.Seed, sw.Collapse...)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &sweepState{
		index:    len(c.sweeps),
		fp:       sw.Grid.Fingerprint(),
		backend:  sw.BackendName,
		backFP:   sw.BackendFP,
		seed:     sw.Seed,
		collapse: append([]string(nil), sw.Collapse...),
		cells:    skel.Cells(),
		grid:     sw.Grid,
		skeleton: skel,
		acc:      acc,
		state:    sweepQueued,
		done:     make(chan struct{}),
	}
	for lo := 0; lo < s.cells; lo += c.cfg.LeaseCells {
		hi := min(lo+c.cfg.LeaseCells, s.cells)
		l := &lease{id: len(s.leases), expected: make(map[int]int)}
		for cell := lo; cell < hi; cell++ {
			l.cells = append(l.cells, cell)
			gi, _ := skel.GroupOfCell(cell)
			l.expected[gi]++
		}
		l.queued = true
		s.leases = append(s.leases, l)
		s.pending = append(s.pending, l.id)
	}
	s.remaining = len(s.leases)
	s.stats.Leases = len(s.leases)
	c.sweeps = append(c.sweeps, s)
	if c.serving {
		c.applyCache(s)
		c.advance()
	}
	c.logf("sweep %d enqueued: %d cells as %d leases of <=%d",
		s.index, s.cells, len(s.leases), c.cfg.LeaseCells)
	return s.index, nil
}

// advance promotes the first non-terminal sweep to active. Callers
// hold mu.
func (c *Coordinator) advance() {
	for c.active < len(c.sweeps) && c.sweeps[c.active].terminal() {
		c.active++
	}
	if c.active < len(c.sweeps) && c.sweeps[c.active].state == sweepQueued {
		s := c.sweeps[c.active]
		s.state = sweepActive
		s.started = c.now()
		c.logf("sweep %d active (%d cells, %d leases)", s.index, s.cells, len(s.leases))
	}
}

// Serve binds the listener and begins answering the protocol. It
// returns once the listener is bound (see Addr), so workers started
// afterwards cannot miss it. At least one sweep must be enqueued.
func (c *Coordinator) Serve() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serving {
		return fmt.Errorf("coord: coordinator already serving")
	}
	if len(c.sweeps) == 0 {
		return fmt.Errorf("coord: no sweeps enqueued")
	}
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("coord: listen %s: %w", c.cfg.Addr, err)
	}
	c.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/result", c.handleResult)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	var handler http.Handler = mux
	if c.cfg.Middleware != nil {
		handler = c.cfg.Middleware(handler)
	}
	// All protocol bodies are small JSON documents (the largest, a shard
	// upload, is bounded by the sweep's group structure), so slow or
	// stalled clients get firm deadlines rather than a goroutine each:
	// headers within 5s, whole request within 2m, idle keep-alives
	// recycled after 2m.
	c.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go c.srv.Serve(ln)
	c.serving = true
	c.lastReq = c.now()
	// Consult the cell cache before the first lease can be issued —
	// and after any Restore, which runs before Serve, so a lease the
	// ledger already absorbed is skipped rather than absorbed twice.
	// Handlers block on mu until Serve returns, so no worker can slip
	// in between restore, cache replay and the first checkpoint.
	for _, s := range c.sweeps {
		c.applyCache(s)
	}
	c.advance()
	// An immediate checkpoint makes -resume valid from any kill point,
	// even one before the first accepted upload. It also covers leases
	// just retired from cache, so a resumed coordinator need not
	// re-consult them.
	c.saveCheckpoint()
	c.logf("serving %d sweep(s) on %s", len(c.sweeps), ln.Addr())
	if c.cfg.OnListen != nil {
		c.cfg.OnListen(ln.Addr().String())
	}
	return nil
}

// Start is the single-sweep entry point: enqueue the grid under the
// Config's backend identity and serve.
func (c *Coordinator) Start(g sweep.Grid, seed uint64, collapse ...string) error {
	if _, err := c.Enqueue(Sweep{
		Grid: g, Seed: seed, Collapse: collapse,
		BackendName: c.cfg.BackendName, BackendFP: c.cfg.BackendFP,
	}); err != nil {
		return err
	}
	return c.Serve()
}

// Addr returns the bound listen address (useful with ":0").
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Stats returns a snapshot of the scheduling counters, aggregated over
// the sweep queue.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Stats{Workers: c.joined}
	for _, s := range c.sweeps {
		out.Leases += s.stats.Leases
		out.Reissues += s.stats.Reissues
		out.Steals += s.stats.Steals
		out.Duplicates += s.stats.Duplicates
		out.Failures += s.stats.Failures
		out.Replays += s.stats.Replays
	}
	return out
}

// Wait blocks until the first sweep of the queue has a result and
// returns its merged output; see WaitSweep.
func (c *Coordinator) Wait(ctx context.Context) (*sweep.Collapsed, error) {
	return c.WaitSweep(ctx, 0)
}

// WaitSweep blocks until the i-th enqueued sweep completes (or a
// worker reported a cell error, or ctx is cancelled) and returns its
// merged result, byte-identical to a single-process run. The server
// keeps answering "done" to stragglers until Drain or Close.
func (c *Coordinator) WaitSweep(ctx context.Context, i int) (*sweep.Collapsed, error) {
	c.mu.Lock()
	if i < 0 || i >= len(c.sweeps) {
		n := len(c.sweeps)
		c.mu.Unlock()
		return nil, fmt.Errorf("coord: sweep %d of a %d-sweep queue", i, n)
	}
	s := c.sweeps[i]
	c.mu.Unlock()
	select {
	case <-s.done:
	case <-ctx.Done():
		c.failSweep(s, fmt.Errorf("coord: %w", ctx.Err()))
		return nil, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.failed != nil {
		return nil, s.failed
	}
	return s.merged, nil
}

// Drain waits until every known worker has been told its sweep is over
// and requests have gone quiet (capped by DoneGrace), then stops the
// server — so short-lived coordinator processes don't vanish mid-poll
// and turn clean worker exits into connection errors. The quiet window
// covers workers of a pre-crash incarnation, which the resumed
// coordinator only learns about when they poll.
func (c *Coordinator) Drain() {
	quiet := min(c.cfg.DoneGrace/4, 250*time.Millisecond)
	deadline := time.Now().Add(c.cfg.DoneGrace)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		all := time.Since(c.lastReq) >= quiet
		for _, w := range c.workers {
			if !w.told {
				all = false
			}
		}
		c.mu.Unlock()
		if all {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.Close()
}

// Close stops the server immediately.
func (c *Coordinator) Close() {
	c.mu.Lock()
	srv := c.srv
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// fail stops every unfinished sweep with the given error.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	states := append([]*sweepState(nil), c.sweeps...)
	c.mu.Unlock()
	for _, s := range states {
		c.failSweep(s, err)
	}
}

// failSweep records a sweep's first fatal error and releases its
// waiters; subsequent lease requests for it answer abort.
func (c *Coordinator) failSweep(s *sweepState, err error) {
	c.mu.Lock()
	if !s.terminal() {
		s.failed = err
		s.state = sweepFailed
		c.advance()
		c.saveCheckpoint()
	}
	c.mu.Unlock()
	s.finish.Do(func() { close(s.done) })
}

// completeSweep finalizes the active sweep's aggregate. Callers hold
// mu; the done channel is closed by the caller after unlocking.
func (c *Coordinator) completeSweep(s *sweepState) {
	var frozen bytes.Buffer
	if err := s.acc.WriteState(&frozen); err == nil {
		s.aggBytes = frozen.Bytes()
	}
	merged, err := s.acc.Merged()
	if err != nil {
		// Unreachable when lease validation holds; surface it rather
		// than trust a wrong merge.
		s.failed = fmt.Errorf("coord: finalizing sweep %d: %w", s.index, err)
		s.state = sweepFailed
	} else {
		s.merged = merged
		s.state = sweepDone
	}
	c.advance()
	c.saveCheckpoint()
	c.logf("sweep %d %s", s.index, s.state)
}

// applyCache retires every lease of the sweep whose cells all have
// verified cell-cache entries: the replayed result is validated and
// absorbed exactly like a worker upload, with "cache" as the winner.
// Replay is all-or-nothing per lease — a single missing or corrupt
// entry leaves the whole lease for workers — and any validation or
// absorb anomaly demotes the replay to a miss rather than failing the
// sweep: the cache is an accelerator, never a correctness dependency.
// Callers hold mu.
func (c *Coordinator) applyCache(s *sweepState) {
	if c.cfg.Cache == nil || s.terminal() || s.remaining == 0 {
		return
	}
	sc := c.cfg.Cache.Sweep(s.backend, s.backFP, s.grid, s.seed)
	if sc == nil {
		return
	}
	retired := 0
	for _, l := range s.leases {
		if l.done {
			continue
		}
		col, ok := sc.Replay(s.grid, l.cells, s.collapse...)
		if !ok {
			continue
		}
		if err := validateLeaseResult(s, l, col); err != nil {
			c.logf("sweep %d lease %d cached result rejected: %v", s.index, l.id, err)
			continue
		}
		if err := s.acc.Absorb(col); err != nil {
			c.logf("sweep %d lease %d cached result rejected: %v", s.index, l.id, err)
			continue
		}
		l.done = true
		l.winner = "cache"
		l.issues = nil
		l.queued = false
		s.remaining--
		s.cellsDone += len(l.cells)
		retired++
	}
	if retired == 0 {
		return
	}
	pending := s.pending[:0]
	for _, id := range s.pending {
		if !s.leases[id].done {
			pending = append(pending, id)
		}
	}
	s.pending = pending
	c.logf("sweep %d: %d/%d leases retired from cache (%d/%d cells)",
		s.index, len(s.leases)-s.remaining, len(s.leases), s.cellsDone, s.cells)
	if s.remaining == 0 {
		c.completeSweep(s)
		s.finish.Do(func() { close(s.done) })
	}
}

// touch registers (or refreshes) a worker seen on the wire. Callers
// hold mu.
func (c *Coordinator) touch(worker string, sweepIdx int) *workerInfo {
	c.lastReq = c.now()
	if worker == "" {
		return nil
	}
	w, ok := c.workers[worker]
	if !ok {
		w = &workerInfo{sweep: sweepIdx, joinedAt: c.now()}
		c.workers[worker] = w
	}
	w.sweep = sweepIdx
	w.lastAt = c.now()
	return w
}

func respond(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func reject(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// matchSweep finds the queue entry a joining worker belongs to: the
// first non-terminal sweep whose identity the worker proves, falling
// back to a terminal match (so its workers hear done/abort through the
// normal lease path). Callers hold mu.
func (c *Coordinator) matchSweep(req joinRequest) *sweepState {
	var fallback *sweepState
	for _, s := range c.sweeps {
		if req.Fingerprint != s.fp || req.Cells != s.cells {
			continue
		}
		if s.backend != "" && req.Backend != s.backend {
			continue
		}
		if req.BackendFP != s.backFP {
			continue
		}
		if !s.terminal() {
			return s
		}
		if fallback == nil {
			fallback = s
		}
	}
	return fallback
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		reject(w, http.StatusBadRequest, "coord: join: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastReq = c.now()
	if req.Proto != protocolVersion {
		reject(w, http.StatusConflict, "coord: protocol %d, want %d", req.Proto, protocolVersion)
		return
	}
	s := c.matchSweep(req)
	if s == nil {
		// Diagnose against the sweep the worker most plausibly meant:
		// the active one (or the first, if the queue is spent).
		ref := c.sweeps[min(c.active, len(c.sweeps)-1)]
		switch {
		case req.Fingerprint != ref.fp:
			reject(w, http.StatusConflict,
				"coord: grid fingerprint matches no queued sweep: the worker enumerates a different sweep (check backend flags)")
		case req.Cells != ref.cells:
			reject(w, http.StatusConflict, "coord: worker grid has %d cells, coordinator %d", req.Cells, ref.cells)
		case ref.backend != "" && req.Backend != ref.backend:
			reject(w, http.StatusConflict, "coord: worker backend %q, coordinator %q", req.Backend, ref.backend)
		default:
			reject(w, http.StatusConflict,
				"coord: backend content fingerprint mismatch (e.g. a different trace file on the worker)")
		}
		return
	}
	if s.state == sweepQueued {
		respond(w, joinResponse{Status: joinQueued, Sweep: s.index, RetryMS: 500})
		return
	}
	c.joined++
	id := fmt.Sprintf("w%d", c.joined)
	if c.boot > 0 {
		// Keep resumed-incarnation ids distinct from pre-crash ones
		// still polling, so Drain and status never conflate them.
		id = fmt.Sprintf("w%d.%d", c.boot, c.joined)
	}
	c.touch(id, s.index)
	c.logf("worker %s joined sweep %d", id, s.index)
	respond(w, joinResponse{Status: joinOK, Worker: id, Sweep: s.index, Seed: s.seed, Collapse: s.collapse})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		reject(w, http.StatusBadRequest, "coord: lease: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Sweep < 0 || req.Sweep >= len(c.sweeps) {
		reject(w, http.StatusBadRequest, "coord: unknown sweep %d", req.Sweep)
		return
	}
	s := c.sweeps[req.Sweep]
	wi := c.touch(req.Worker, req.Sweep)
	switch {
	case s.state == sweepFailed:
		c.told(wi)
		respond(w, leaseResponse{Status: statusAbort, Error: s.failed.Error()})
		return
	case s.state == sweepDone:
		c.told(wi)
		respond(w, leaseResponse{Status: statusDone})
		return
	case s.state == sweepQueued:
		respond(w, leaseResponse{Status: statusWait, RetryMS: 500})
		return
	}
	c.reap(s, c.now())
	for len(s.pending) > 0 {
		l := s.leases[s.pending[0]]
		s.pending = s.pending[1:]
		if l.done || !l.queued {
			// Completed while waiting in the queue — e.g. a pre-crash
			// worker's upload landed after a resume re-queued the lease.
			continue
		}
		l.queued = false
		l.issues = append(l.issues, c.now().Add(c.cfg.LeaseTTL))
		c.logf("sweep %d lease %d (%d cells) -> %s", s.index, l.id, len(l.cells), req.Worker)
		respond(w, leaseResponse{Status: statusLease, Lease: l.id, Cells: l.cells})
		return
	}
	// The queue is dry but leases are still outstanding: steal — issue
	// a speculative duplicate of the least-duplicated, earliest-expiring
	// incomplete lease. The first uploaded result wins; both copies
	// compute identical bytes, so the race never affects output.
	var victim *lease
	for _, l := range s.leases {
		if l.done || len(l.issues) >= c.cfg.MaxIssues {
			continue
		}
		if victim == nil || len(l.issues) < len(victim.issues) ||
			(len(l.issues) == len(victim.issues) && l.issues[0].Before(victim.issues[0])) {
			victim = l
		}
	}
	if victim == nil {
		respond(w, leaseResponse{Status: statusWait, RetryMS: 200})
		return
	}
	victim.issues = append(victim.issues, c.now().Add(c.cfg.LeaseTTL))
	s.stats.Steals++
	c.logf("sweep %d lease %d stolen by %s (speculative duplicate %d)",
		s.index, victim.id, req.Worker, len(victim.issues))
	respond(w, leaseResponse{Status: statusLease, Lease: victim.id, Cells: victim.cells})
}

// reap drops expired issues and re-queues incomplete leases nobody is
// running anymore (worker loss). Callers hold mu.
func (c *Coordinator) reap(s *sweepState, now time.Time) {
	for _, l := range s.leases {
		if l.done {
			continue
		}
		live := l.issues[:0]
		for _, exp := range l.issues {
			if exp.After(now) {
				live = append(live, exp)
			}
		}
		expired := len(l.issues) - len(live)
		l.issues = live
		if expired > 0 && len(l.issues) == 0 && !l.queued {
			l.queued = true
			s.pending = append(s.pending, l.id)
			s.stats.Reissues++
			c.logf("sweep %d lease %d expired with no result, reissue", s.index, l.id)
		}
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		reject(w, http.StatusBadRequest, "coord: result: %v", err)
		return
	}
	c.mu.Lock()
	if req.Sweep < 0 || req.Sweep >= len(c.sweeps) {
		c.mu.Unlock()
		reject(w, http.StatusBadRequest, "coord: unknown sweep %d", req.Sweep)
		return
	}
	s := c.sweeps[req.Sweep]
	wi := c.touch(req.Worker, req.Sweep)
	if req.Lease < 0 || req.Lease >= len(s.leases) {
		c.mu.Unlock()
		reject(w, http.StatusBadRequest, "coord: unknown lease %d", req.Lease)
		return
	}
	l := s.leases[req.Lease]
	if req.Error != "" {
		if l.done || s.terminal() {
			// Another worker already completed this lease (steal or
			// reissue); a straggler's error for it is as irrelevant as
			// a straggler's duplicate result. Unless the sweep itself
			// has failed, the straggler should keep serving — its next
			// lease request will learn the sweep's real status — so a
			// benign discard must not read as a fatal verdict.
			c.logf("sweep %d lease %d late error from %s discarded", s.index, l.id, req.Worker)
			done := s.remaining == 0
			if done || s.terminal() {
				c.told(wi)
			}
			retry := s.failed == nil
			c.mu.Unlock()
			respond(w, resultResponse{Accepted: false, Done: done, Retry: retry})
			return
		}
		if req.Attempt != "" {
			if l.reported[req.Attempt] {
				// Re-delivered report of an attempt already charged:
				// repeat the in-budget verdict (had it exhausted the
				// budget, the sweep would be terminal and handled above).
				c.logf("sweep %d lease %d failure report %s re-delivered, same verdict", s.index, l.id, req.Attempt)
				c.mu.Unlock()
				respond(w, resultResponse{Accepted: false, Retry: true})
				return
			}
			if l.reported == nil {
				l.reported = make(map[string]bool)
			}
			l.reported[req.Attempt] = true
		}
		l.failures++
		if l.failures > c.cfg.MaxLeaseFailures {
			cells := append([]int(nil), l.cells...)
			c.mu.Unlock()
			c.failSweep(s, fmt.Errorf(
				"coord: sweep %d lease %d (cells %v) failed %d times, budget %d — poison cell; last worker %s: %s",
				s.index, req.Lease, cells, l.failures, c.cfg.MaxLeaseFailures, req.Worker, req.Error))
			respond(w, resultResponse{Accepted: false, Done: true})
			return
		}
		// Within budget: charge the failure, retire the reporting
		// worker's issue, and re-queue the lease for another attempt.
		// Which issue slot was the reporter's is unknowable (expiries
		// carry no worker identity), so retire the earliest — at worst a
		// thief's issue expires via TTL instead.
		s.stats.Failures++
		if len(l.issues) > 0 {
			l.issues = l.issues[1:]
		}
		if len(l.issues) == 0 && !l.queued {
			l.queued = true
			s.pending = append(s.pending, l.id)
		}
		c.logf("sweep %d lease %d failure %d/%d from %s, reissue: %s",
			s.index, l.id, l.failures, c.cfg.MaxLeaseFailures, req.Worker, req.Error)
		c.mu.Unlock()
		respond(w, resultResponse{Accepted: false, Retry: true})
		return
	}
	if s.terminal() || l.done {
		replay := l.done && req.Worker != "" && req.Worker == l.winner
		if replay {
			// At-least-once delivery: the winner's own upload arrived
			// again (dropped ack, duplicated request). It was already
			// absorbed exactly once; re-acknowledge it as accepted so
			// retries converge on the first verdict.
			s.stats.Replays++
			c.logf("sweep %d lease %d replay from winner %s re-acknowledged", s.index, l.id, req.Worker)
		} else if l.done {
			s.stats.Duplicates++
			c.logf("sweep %d lease %d duplicate from %s discarded", s.index, l.id, req.Worker)
		}
		done := s.remaining == 0
		if done || s.terminal() {
			c.told(wi)
		}
		c.mu.Unlock()
		respond(w, resultResponse{Accepted: replay, Done: done})
		return
	}
	col, err := sweep.ReadShard(bytes.NewReader(req.Shard))
	if err == nil {
		err = validateLeaseResult(s, l, col)
	}
	if err == nil {
		// The fold is the incremental merge: the upload is absorbed
		// into the running aggregate and never retained per lease, so
		// coordinator memory tracks groups and samples, not leases.
		err = s.acc.Absorb(col)
	}
	if err != nil {
		c.mu.Unlock()
		c.failSweep(s, fmt.Errorf("coord: worker %s, sweep %d lease %d: %v", req.Worker, s.index, req.Lease, err))
		respond(w, resultResponse{Accepted: false, Done: true})
		return
	}
	l.done = true
	l.winner = req.Worker
	l.issues = nil
	l.queued = false
	s.remaining--
	s.cellsDone += len(l.cells)
	if wi != nil {
		wi.cells += len(l.cells)
	}
	done := s.remaining == 0
	c.logf("sweep %d lease %d done by %s (%d/%d)",
		s.index, l.id, req.Worker, len(s.leases)-s.remaining, len(s.leases))
	if done {
		c.completeSweep(s)
		c.told(wi)
	} else {
		c.saveCheckpoint()
	}
	c.mu.Unlock()
	if done {
		s.finish.Do(func() { close(s.done) })
	}
	respond(w, resultResponse{Accepted: true, Done: done})
}

// validateLeaseResult checks an uploaded Collapsed describes this sweep
// and covers exactly the lease's cells. Callers hold mu.
func validateLeaseResult(s *sweepState, l *lease, col *sweep.Collapsed) error {
	if col.Seed != s.seed {
		return fmt.Errorf("result for seed %d, want %d", col.Seed, s.seed)
	}
	if col.Shard != (sweep.Shard{}) {
		return fmt.Errorf("result is a static shard slice %s, not a lease result", col.Shard)
	}
	if col.Cells() != s.cells {
		return fmt.Errorf("result grid has %d cells, want %d", col.Cells(), s.cells)
	}
	skel := s.skeleton
	if !slices.Equal(col.CollapsedAxes, skel.CollapsedAxes) || !slices.Equal(col.GroupAxes, skel.GroupAxes) {
		return fmt.Errorf("result collapses different axes")
	}
	if len(col.Groups) != len(skel.Groups) {
		return fmt.Errorf("result has %d groups, want %d", len(col.Groups), len(skel.Groups))
	}
	for gi, g := range col.Groups {
		if g.Key != skel.Groups[gi].Key {
			return fmt.Errorf("result group %d is %q, want %q", gi, g.Key, skel.Groups[gi].Key)
		}
		if g.Count != l.expected[gi] {
			return fmt.Errorf("result group %q ran %d cells, lease expects %d", g.Key, g.Count, l.expected[gi])
		}
	}
	return nil
}

// told marks a worker as having heard its sweep is over. Callers hold
// mu.
func (c *Coordinator) told(w *workerInfo) {
	if w != nil {
		w.told = true
	}
}
