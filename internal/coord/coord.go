// Package coord turns the sweep harness into an elastic multi-machine
// grid service. A coordinator serves lease-based work units — batches of
// grid cell indices — over a small HTTP+JSON protocol, and workers run
// any sweep.Backend locally, streaming shard-encoded group aggregates
// back. Leases are re-issued when a worker goes silent past the lease
// TTL, and speculatively duplicated — "stolen" — when a worker drains
// the queue early, so uneven cell costs never leave capacity idle.
//
// The coordinator accepts the first result per lease, discards
// duplicates, and folds every accepted upload into one running
// aggregate immediately (sweep.Accumulator), so its memory is bounded
// by the sweep's group structure and sample volume, not by the lease
// count. Because cell seeds derive from grid coordinates (see
// sweep.Grid.Points) and aggregates retain raw sample multisets, the
// merged result is byte-identical to a single-process sweep regardless
// of worker count, join order, steals, re-issues — or the order uploads
// were folded in.
//
// A coordinator is durable and long-lived: it checkpoints its state
// (sweep identity fingerprints, the lease ledger, the running
// aggregate) to a file after every accepted upload, so a coordinator
// killed mid-sweep restarts (Enqueue the same sweeps, Restore, Serve)
// and finishes from its last durable lease, still byte-identical to the
// single-process run. It also queues multiple sweeps on one listener,
// activating them in order, and reports progress over GET /v1/status.
//
// Protocol (endpoints rooted at /v1; all POST JSON except status):
//
//	/v1/join    worker introduces itself; the coordinator matches the
//	            worker's grid (structure fingerprint, cell count,
//	            backend name and content fingerprint) against its sweep
//	            queue and replies with the sweep index, seed and
//	            collapse axes — or "queued" if the matching sweep has
//	            not started yet (the worker polls until it has).
//	/v1/lease   worker asks for work on its sweep; the coordinator
//	            replies with a lease (id + cell indices), wait (poll
//	            again shortly), done (sweep complete) or abort (another
//	            worker failed).
//	/v1/result  worker uploads a lease's result as a shard-encoded
//	            Collapsed (sweep.WriteShard bytes), or reports the cell
//	            error that stopped it.
//	/v1/status  GET: queue-wide progress — per-sweep cells done/total
//	            and lease ledger, per-worker throughput, ETA.
package coord

import (
	"encoding/json"

	"hadooppreempt/internal/sweep"
)

// protocolVersion guards against coordinator/worker skew; bump it when
// the wire format changes. Version 2 added sweep queue indices to every
// request and the queued join status. Version 3 added the retry verdict
// on result acks (per-lease failure budget) and idempotent replay
// acknowledgement of duplicated uploads.
const protocolVersion = 3

// Join-response statuses.
const (
	joinOK     = "ok"
	joinQueued = "queued"
)

// Lease-response statuses.
const (
	statusLease = "lease"
	statusWait  = "wait"
	statusDone  = "done"
	statusAbort = "abort"
)

// joinRequest introduces a worker to the coordinator.
type joinRequest struct {
	Proto int `json:"proto"`
	// Backend is the worker's execution engine name ("sim", "replay",
	// "real").
	Backend string `json:"backend"`
	// Fingerprint is the worker's sweep.Grid.Fingerprint: proof the
	// worker enumerates the same cells with the same seeds.
	Fingerprint string `json:"fingerprint"`
	// BackendFP is the backend's content fingerprint (see
	// Fingerprinter), covering data the grid structure cannot — e.g.
	// the replay trace. Empty when the backend does not implement it.
	BackendFP string `json:"backend_fp,omitempty"`
	// Cells is the worker's grid size, a cheap cross-check.
	Cells int `json:"cells"`
}

// joinResponse hands the worker its identity and the sweep parameters
// the coordinator governs — or tells it the matching sweep is still
// queued, in which case the worker polls join again after RetryMS.
type joinResponse struct {
	Status   string   `json:"status"`
	Worker   string   `json:"worker,omitempty"`
	Sweep    int      `json:"sweep"`
	Seed     uint64   `json:"seed"`
	Collapse []string `json:"collapse,omitempty"`
	RetryMS  int      `json:"retry_ms,omitempty"`
}

// leaseRequest asks for the next work unit of the worker's sweep.
type leaseRequest struct {
	Worker string `json:"worker"`
	Sweep  int    `json:"sweep"`
}

// leaseResponse is one of: a lease, a wait hint, done, or abort.
type leaseResponse struct {
	Status  string `json:"status"`
	Lease   int    `json:"lease,omitempty"`
	Cells   []int  `json:"cells,omitempty"`
	RetryMS int    `json:"retry_ms,omitempty"`
	Error   string `json:"error,omitempty"`
}

// resultRequest uploads a lease's outcome: either the shard-encoded
// Collapsed bytes or the error that stopped the worker.
type resultRequest struct {
	Worker string `json:"worker"`
	Sweep  int    `json:"sweep"`
	Lease  int    `json:"lease"`
	// Attempt identifies one lease execution, so a report re-delivered
	// by retries or duplication (at-least-once transport) is charged
	// against the lease failure budget exactly once.
	Attempt string          `json:"attempt,omitempty"`
	Error   string          `json:"error,omitempty"`
	Shard   json.RawMessage `json:"shard,omitempty"`
}

// resultResponse acknowledges an upload. Accepted is false for
// duplicates (a stolen lease's losing copy) — not an error; a replayed
// upload from the worker whose copy already won is re-acknowledged with
// Accepted true (at-least-once delivery must converge on the same ack).
// Done tells the worker its sweep is complete so it need not poll
// again. Retry acknowledges a reported cell error that stayed within
// the lease failure budget: the lease is re-queued and the worker
// should keep serving rather than bail.
type resultResponse struct {
	Accepted bool `json:"accepted"`
	Done     bool `json:"done"`
	Retry    bool `json:"retry,omitempty"`
}

// errorResponse carries a protocol-level rejection (join refused,
// unknown lease).
type errorResponse struct {
	Error string `json:"error"`
}

// Fingerprinter lets a backend contribute a content signature to the
// join compatibility check. Grid fingerprints cover structure only; a
// backend whose cells depend on external data — the replay backend's
// trace file — should implement Fingerprint over that data so workers
// holding a different copy are rejected instead of silently corrupting
// the merge.
type Fingerprinter interface {
	Fingerprint() string
}

// BackendFingerprint returns the backend's content fingerprint, or ""
// when the backend does not implement Fingerprinter. It delegates to
// the sweep package's reflection of the same contract, so join checks
// and cell-cache keys always agree on a backend's content identity.
func BackendFingerprint(b sweep.Backend) string {
	return sweep.BackendFingerprint(b)
}
