package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hadooppreempt/internal/sim"
	"hadooppreempt/internal/sweep"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// Backend is the locally constructed execution backend. Its grid
	// must fingerprint-match the coordinator's; the coordinator's seed
	// and collapse axes govern.
	Backend sweep.Backend
	// Parallel bounds the worker's in-process pool per lease.
	Parallel int
	// Cache, when set, memoizes leased cell results persistently: a
	// verified entry answers the cell without executing it, misses are
	// stored. Keys include the backend identity the worker proves at
	// join time, so a warm worker produces byte-identical uploads.
	// Volatile backends (see sweep.Volatile) bypass it.
	Cache *sweep.Cache
	// JoinWindow bounds how long the worker retries the initial join
	// while the coordinator is still coming up (default 10s).
	JoinWindow time.Duration
	// RetryWindow bounds how long the worker retries transient
	// transport errors mid-sweep — connection refused while a crashed
	// coordinator restarts with -resume — before giving up (default
	// 15s). Backoff is bounded: RetryBase doubling to a 2s cap, with
	// deterministic per-worker jitter so a restarted coordinator is not
	// hit by every worker in lockstep.
	RetryWindow time.Duration
	// RetryBase is the initial retry backoff (default 100ms); tests and
	// chaos runs shrink it to keep fault-heavy schedules fast.
	RetryBase time.Duration
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// protocolError is a rejection the coordinator chose to send (join
// refused, unknown lease) as opposed to a transport failure; retry
// loops fail fast on it.
type protocolError struct {
	msg string
}

func (e *protocolError) Error() string { return e.msg }

// RunWorker joins the coordinator at cfg.Addr and executes leased cell
// batches through the backend until the coordinator reports the sweep
// is done. Lease results are uploaded as shard-encoded aggregates;
// whether this worker's copy of a stolen lease wins or is discarded
// never changes the merged output. A coordinator that goes briefly
// unreachable mid-sweep (killed and restarted with -resume) does not
// strand the worker: requests retry with bounded backoff for
// RetryWindow, and the restarted coordinator re-registers the worker
// on its next request.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Backend == nil {
		return fmt.Errorf("coord: worker needs a backend")
	}
	if cfg.JoinWindow <= 0 {
		cfg.JoinWindow = 10 * time.Second
	}
	if cfg.RetryWindow <= 0 {
		cfg.RetryWindow = 15 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g, err := cfg.Backend.Grid()
	if err != nil {
		return err
	}
	w := &worker{ctx: ctx, cfg: cfg, client: client, logf: logf, base: "http://" + cfg.Addr}
	join := joinRequest{
		Proto:       protocolVersion,
		Backend:     cfg.Backend.Name(),
		Fingerprint: g.Fingerprint(),
		BackendFP:   BackendFingerprint(cfg.Backend),
		Cells:       g.Size(),
	}
	var id joinResponse
	deadline := time.Now().Add(cfg.JoinWindow)
	for {
		err = post(ctx, client, w.base+"/v1/join", join, &id)
		if err == nil && id.Status == joinQueued {
			// The matching sweep is enqueued but not active yet; poll.
			logf("sweep %d queued, polling", id.Sweep)
			deadline = time.Now().Add(cfg.JoinWindow)
			err = fmt.Errorf("sweep %d queued", id.Sweep)
			if serr := sleep(ctx, retryHint(id.RetryMS, 500*time.Millisecond)); serr != nil {
				return serr
			}
			continue
		}
		if err == nil {
			break
		}
		var pe *protocolError
		if errors.As(err, &pe) {
			return fmt.Errorf("coord: join %s: %w", cfg.Addr, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coord: join %s: %w", cfg.Addr, err)
		}
		if err := sleep(ctx, cfg.RetryBase); err != nil {
			return err
		}
	}
	logf("joined %s as %s for sweep %d (seed %d)", cfg.Addr, id.Worker, id.Sweep, id.Seed)
	// Jitter stream: deterministic per (sweep seed, worker id), so two
	// workers never back off in lockstep yet a re-run of the same
	// schedule replays the same waits.
	w.jitter = sim.NewRNG(id.Seed).Stream("backoff/" + id.Worker)
	// Bind the cell cache to the identity just proven at join — the
	// backend name and fingerprints the coordinator verified, so a cached
	// entry can only ever answer the exact sweep it was recorded under.
	// The seed comes from the coordinator, so the binding waits until
	// here.
	runCell := cfg.Cache.ForBackend(cfg.Backend, g, id.Seed).WrapCell(cfg.Backend.Cell)
	attempts := 0
	for {
		var lr leaseResponse
		if err := w.post("/v1/lease", leaseRequest{Worker: id.Worker, Sweep: id.Sweep}, &lr); err != nil {
			return fmt.Errorf("coord: lease from %s: %w", cfg.Addr, err)
		}
		switch lr.Status {
		case statusDone:
			logf("sweep done, exiting")
			return nil
		case statusAbort:
			return fmt.Errorf("coord: sweep aborted: %s", lr.Error)
		case statusWait:
			if err := sleep(ctx, retryHint(lr.RetryMS, 200*time.Millisecond)); err != nil {
				return err
			}
		case statusLease:
			logf("lease %d: %d cells", lr.Lease, len(lr.Cells))
			// One attempt id per lease execution: re-sent copies of this
			// result (lost ack, duplicated request) are idempotent at
			// the coordinator, while a genuine re-execution is not.
			attempts++
			res := resultRequest{
				Worker: id.Worker, Sweep: id.Sweep, Lease: lr.Lease,
				Attempt: fmt.Sprintf("%s/%d/%d", id.Worker, lr.Lease, attempts),
			}
			col, err := sweep.RunCells(g, runCell, id.Seed, cfg.Parallel, lr.Cells, id.Collapse...)
			if err != nil {
				res.Error = err.Error()
				var rr resultResponse
				if perr := w.post("/v1/result", res, &rr); perr != nil {
					// Best effort before bailing — but say so: a silent
					// discard here would leave the coordinator to learn of
					// the loss only via the lease TTL.
					logf("lease %d: error report undelivered (%v), coordinator will reap via TTL", lr.Lease, perr)
					return err
				}
				if rr.Retry {
					// The coordinator absorbed the failure into the
					// lease's budget and re-queued it; keep serving.
					logf("lease %d failed within budget, reissued: %v", lr.Lease, err)
					continue
				}
				return err
			}
			var buf bytes.Buffer
			if err := col.WriteShard(&buf); err != nil {
				return err
			}
			res.Shard = buf.Bytes()
			var rr resultResponse
			if err := w.post("/v1/result", res, &rr); err != nil {
				return fmt.Errorf("coord: upload lease %d: %w", lr.Lease, err)
			}
			if !rr.Accepted {
				logf("lease %d result discarded (another worker won)", lr.Lease)
			}
			if rr.Done {
				logf("sweep done, exiting")
				return nil
			}
		default:
			return fmt.Errorf("coord: unknown lease status %q", lr.Status)
		}
	}
}

// worker bundles the per-run transport state so mid-sweep requests
// share one retry policy.
type worker struct {
	ctx    context.Context
	cfg    WorkerConfig
	client *http.Client
	logf   func(string, ...any)
	base   string
	jitter *sim.RNG
}

// post sends one mid-sweep request, retrying transient transport
// failures with bounded backoff (RetryBase doubling to a 2s cap) for up
// to cfg.RetryWindow — so a coordinator killed and restarted with
// -resume does not strand live workers. Each wait is jittered into
// [backoff/2, backoff] from the worker's deterministic stream, so a
// fleet that lost its coordinator simultaneously does not reconnect
// simultaneously. Protocol-level rejections fail fast.
func (w *worker) post(path string, in, out any) error {
	deadline := time.Now().Add(w.cfg.RetryWindow)
	backoff := w.cfg.RetryBase
	for {
		err := post(w.ctx, w.client, w.base+path, in, out)
		if err == nil {
			return nil
		}
		var pe *protocolError
		if errors.As(err, &pe) || time.Now().After(deadline) {
			return err
		}
		wait := backoff
		if w.jitter != nil && backoff > 1 {
			wait = backoff/2 + time.Duration(w.jitter.Int63n(int64(backoff/2)+1))
		}
		w.logf("coordinator unreachable (%v), retrying in %v", err, wait)
		if serr := sleep(w.ctx, wait); serr != nil {
			return serr
		}
		backoff = min(backoff*2, 2*time.Second)
	}
}

// retryHint converts a server retry hint to a duration, with a default
// for absent hints.
func retryHint(ms int, def time.Duration) time.Duration {
	if ms <= 0 {
		return def
	}
	return time.Duration(ms) * time.Millisecond
}

// post sends one JSON request and decodes the JSON response. Non-200
// statuses become protocolErrors carrying the server's error message.
func post(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(data, &er) != nil || er.Error == "" {
			er.Error = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		return &protocolError{msg: er.Error}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleep waits d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
