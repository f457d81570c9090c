package main

import (
	"bytes"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hadooppreempt/internal/coord"
	"hadooppreempt/internal/sweep"
)

// Spans are recorded from the benchmark's own code, around the calls it
// makes into the repository's layers. They stay in memory until the run
// ends. A nil *tracer records nothing, which is how untraced runs pay
// (almost) nothing for the probes below.

// Span names. The per-layer metrics are computed from these.
const (
	spanPass       = "pass"
	spanSweep      = "sweep.dispatch"
	spanCell       = "cell"
	spanEncode     = "sweep.encode"
	spanSynth      = "workload.synth"
	spanCoordNew   = "coord.new"
	spanCoordStart = "coord.start"
	spanCoordWait  = "coord.wait"
	spanServed     = "coord.sweep" // Start until Wait returns, on a served sweep
	spanCheckpoint = "coord.checkpoint_write"
	spanHTTP       = "http " // + request path, e.g. "http /v1/lease"
)

type span struct {
	id, parent int64
	name       string
	start, end time.Time
	// bytes is the payload a span moved: request bodies for HTTP round
	// trips, file size for checkpoint writes.
	bytes int64
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span id, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int64, fn func(id int64) error) error {
	id := t.newID()
	start := time.Now()
	err := fn(id)
	t.add(span{id: id, parent: parent, name: name, start: start, end: time.Now()})
	return err
}

// cellWatch watches the cells of one sweep: it notes when the first
// cell starts (the end of set-up), counts cells and cell errors, and,
// when traced, records one span per cell under the sweep that ran it.
// Several probes may share one watch, as a distributed sweep's workers
// each build their own backend.
type cellWatch struct {
	tr     *tracer
	parent int64
	first  atomic.Int64 // UnixNano of the first cell's start; 0 before
	cells  atomic.Int64
	errs   atomic.Int64
}

// firstCell returns when the first cell started, or the zero time.
func (w *cellWatch) firstCell() time.Time {
	if ns := w.first.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// probe is a backend whose cells a cellWatch watches.
type probe struct {
	sweep.Backend
	w *cellWatch
}

func (p probe) Cell(pt sweep.Point, rec *sweep.Recorder) error {
	w := p.w
	start := time.Now()
	if w.first.Load() == 0 {
		w.first.CompareAndSwap(0, start.UnixNano())
	}
	err := p.Backend.Cell(pt, rec)
	w.cells.Add(1)
	if err != nil {
		w.errs.Add(1)
	}
	if w.tr != nil {
		w.tr.add(span{id: w.tr.newID(), parent: w.parent, name: spanCell, start: start, end: time.Now()})
	}
	return err
}

// spanHeader carries a worker's round-trip span id to the coordinator,
// so the checkpoint write an upload triggers can name it as parent.
const spanHeader = "X-Perfbench-Span"

// tracedTransport records one span per worker HTTP round trip.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.tr.add(span{id: id, parent: t.parent, name: spanHTTP + req.URL.Path,
		start: start, end: time.Now(), bytes: req.ContentLength})
	return resp, err
}

// ckptTracer parents the coordinator's checkpoint writes under the
// worker round trip whose upload caused them. The coordinator writes a
// checkpoint synchronously on the goroutine serving the upload, so a
// server middleware maps that goroutine to the round trip's span id
// (read from spanHeader) for the duration of the request.
type ckptTracer struct {
	tr       *tracer
	fallback int64 // parent of writes outside any request (Serve's first one)
	mu       sync.Mutex
	byG      map[uint64]int64
}

func newCkptTracer(tr *tracer, fallback int64) *ckptTracer {
	return &ckptTracer{tr: tr, fallback: fallback, byG: make(map[uint64]int64)}
}

func (c *ckptTracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		g := goid()
		c.mu.Lock()
		c.byG[g] = id
		c.mu.Unlock()
		defer func() {
			c.mu.Lock()
			delete(c.byG, g)
			c.mu.Unlock()
		}()
		next.ServeHTTP(w, r)
	})
}

func (c *ckptTracer) write(path string, data []byte) error {
	c.mu.Lock()
	parent, ok := c.byG[goid()]
	c.mu.Unlock()
	if !ok {
		parent = c.fallback
	}
	start := time.Now()
	err := coord.WriteFileDurable(path, data)
	c.tr.add(span{id: c.tr.newID(), parent: parent, name: spanCheckpoint,
		start: start, end: time.Now(), bytes: int64(len(data))})
	return err
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseUint(string(b), 10, 64)
	return n
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// under returns the spans with the given name whose parent is among
// parents.
func under(ss []span, parents []span) []span {
	ids := make(map[int64]bool, len(parents))
	for _, p := range parents {
		ids[p.id] = true
	}
	var out []span
	for _, s := range ss {
		if ids[s.parent] {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the spans' durations.
func durations(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover (overlapping children, such as cells
// running in parallel under one sweep, are counted once).
func (t *tracer) selfTimes() map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		ks := kids[s.id]
		slices.SortFunc(ks, func(a, b span) int { return a.start.Compare(b.start) })
		covered := time.Duration(0)
		var curStart, curEnd time.Time
		for _, k := range ks {
			from, to := maxTime(k.start, s.start), minTime(k.end, s.end)
			if !to.After(from) {
				continue
			}
			if curEnd.IsZero() || from.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = from, to
			} else if to.After(curEnd) {
				curEnd = to
			}
		}
		covered += curEnd.Sub(curStart)
		self[s.id] = s.dur() - covered
	}
	return self
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
