package chaos

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hadooppreempt/internal/sweep"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,drop=0.1,drop-resp=0.05,dup=0.15,trunc=0.2,delay=0.3,delay-max=50ms,ckpt=0.25,cell-err=0.1,cell-panic=0.05,cell-fails=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, DropRequest: 0.1, DropResponse: 0.05, Duplicate: 0.15,
		Truncate: 0.2, Delay: 0.3, MaxDelay: 50 * time.Millisecond,
		CheckpointFail: 0.25, CellError: 0.1, CellPanic: 0.05, CellFailures: 2,
	}
	if fmt.Sprintf("%+v", cfg) != fmt.Sprintf("%+v", want) {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec("cell-fails=poison"); err != nil || cfg.CellFailures != PoisonForever {
		t.Fatalf("cell-fails=poison = (%+v, %v)", cfg, err)
	}
	if cfg, err := ParseSpec(""); err != nil || fmt.Sprintf("%+v", cfg) != fmt.Sprintf("%+v", Config{}) {
		t.Fatalf("empty spec = (%+v, %v), want zero config", cfg, err)
	}
	for _, bad := range []string{"drop=2", "drop=x", "drop=NaN", "cell-err=NaN", "seed=-1", "delay-max=0s", "cell-fails=0", "nope=1", "justakey"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestTransportScheduleDeterminism: same seed, same per-site request
// sequence → identical fault schedule; distinct sites draw independent
// streams.
func TestTransportScheduleDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, DropRequest: 0.2, DropResponse: 0.2, Duplicate: 0.2, Truncate: 0.2}
	draw := func(p *Plan, site string) []transportFault {
		out := make([]transportFault, 64)
		for i := range out {
			out[i], _ = p.drawTransport(site)
		}
		return out
	}
	a := draw(New(cfg), "w1")
	b := draw(New(cfg), "w1")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, same site: schedules diverge at request %d (%v vs %v)", i, a[i], b[i])
		}
	}
	c := draw(New(cfg), "w2")
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("distinct sites drew identical schedules")
	}
}

// TestTransportFaults exercises each client-side fault against a real
// HTTP server, pinning observable behavior: what the server saw and
// what the client got.
func TestTransportFaults(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{"ok":true,"pad":"0123456789012345678901234567890123456789"}`))
	}))
	defer srv.Close()
	get := func(p *Plan) (*http.Response, error) {
		client := &http.Client{Transport: p.Transport("w", nil)}
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		return client.Do(req)
	}
	// All-probability configs force the chosen fault on every request.
	t.Run("drop-request", func(t *testing.T) {
		hits.Store(0)
		if _, err := get(New(Config{Seed: 1, DropRequest: 1})); err == nil {
			t.Fatal("dropped request returned no error")
		}
		if hits.Load() != 0 {
			t.Fatalf("server saw %d requests, want 0", hits.Load())
		}
	})
	t.Run("drop-response", func(t *testing.T) {
		hits.Store(0)
		if _, err := get(New(Config{Seed: 1, DropResponse: 1})); err == nil {
			t.Fatal("dropped response returned no error")
		}
		if hits.Load() != 1 {
			t.Fatalf("server saw %d requests, want 1 (processed, ack lost)", hits.Load())
		}
	})
	t.Run("truncate", func(t *testing.T) {
		hits.Store(0)
		resp, err := get(New(Config{Seed: 1, Truncate: 1}))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n := 0
		var rerr error
		for rerr == nil {
			var m int
			m, rerr = resp.Body.Read(buf[n:])
			n += m
		}
		if rerr.Error() != "unexpected EOF" {
			t.Fatalf("truncated body ended with %v, want unexpected EOF", rerr)
		}
		if n == 0 || n >= 60 {
			t.Fatalf("read %d bytes of a ~60-byte body, want a strict prefix", n)
		}
	})
}

// TestTransportDuplicatePost: a duplicated POST reaches the server
// twice with the same body.
func TestTransportDuplicatePost(t *testing.T) {
	var hits atomic.Int64
	bodies := make(chan string, 4)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		b := make([]byte, 64)
		n, _ := r.Body.Read(b)
		bodies <- string(b[:n])
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	client := &http.Client{Transport: New(Config{Seed: 1, Duplicate: 1}).Transport("w", nil)}
	resp, err := client.Post(srv.URL, "application/json", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2", hits.Load())
	}
	if a, b := <-bodies, <-bodies; a != `{"x":1}` || a != b {
		t.Fatalf("duplicate bodies %q and %q, want identical originals", a, b)
	}
}

// TestMiddlewareDuplicate: the server-side duplicate runs the handler
// twice while the client sees one normal response — the at-least-once
// case an idempotent handler must absorb.
func TestMiddlewareDuplicate(t *testing.T) {
	var hits atomic.Int64
	p := New(Config{Seed: 1, Duplicate: 1})
	srv := httptest.NewServer(p.Middleware("coord", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{}`))
	})))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if hits.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", hits.Load())
	}
}

// TestMiddlewareDropSeversConnection: server-side drops surface to the
// client as transport errors (severed connection), never as an HTTP
// status a protocol layer would treat as a rejection.
func TestMiddlewareDropSeversConnection(t *testing.T) {
	for _, mode := range []Config{
		{Seed: 1, DropRequest: 1},
		{Seed: 1, DropResponse: 1},
	} {
		var hits atomic.Int64
		srv := httptest.NewServer(New(mode).Middleware("coord", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Write([]byte(`{}`))
		})))
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%+v: dropped exchange returned status %d, want a transport error", mode, resp.StatusCode)
		}
		wantHits := int64(0)
		if mode.DropResponse > 0 {
			wantHits = 1
		}
		if hits.Load() != wantHits {
			t.Fatalf("%+v: handler ran %d times, want %d", mode, hits.Load(), wantHits)
		}
		srv.Close()
	}
}

// TestCellFaultsDeterministicAndBudgeted: faultiness is a pure function
// of (seed, index) — identical across plans — and a faulty cell fails
// exactly CellFailures times before running clean.
func TestCellFaultsDeterministicAndBudgeted(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(16))
	cfg := Config{Seed: 99, CellError: 0.3}
	faulty := New(cfg).FaultyCells(g.Size())
	if len(faulty) == 0 || len(faulty) == g.Size() {
		t.Fatalf("faulty cells = %v of %d, want a strict subset", faulty, g.Size())
	}
	for trial := 0; trial < 3; trial++ {
		again := New(cfg).FaultyCells(g.Size())
		if len(again) != len(faulty) {
			t.Fatalf("faulty set changed across plans: %v vs %v", again, faulty)
		}
		for i := range faulty {
			if faulty[i] != again[i] {
				t.Fatalf("faulty set changed across plans: %v vs %v", again, faulty)
			}
		}
	}
	inner := sweep.FuncBackend{Engine: "test", G: g, Run: func(pt sweep.Point, rec *sweep.Recorder) error {
		rec.Observe("m0", float64(pt.Index))
		return nil
	}}
	b := New(cfg).WrapBackend(inner)
	rec := &sweep.Recorder{}
	pts, err := g.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range faulty {
		if err := b.Cell(pts[i], rec); err == nil {
			t.Fatalf("faulty cell %d ran clean on first attempt", i)
		}
		if err := b.Cell(pts[i], rec); err != nil {
			t.Fatalf("faulty cell %d still failing after its budget: %v", i, err)
		}
	}
}

// TestCellPanicMode: panic-mode cells panic with the cell named, and
// the sweep harness converts that into a structured cell error.
func TestCellPanicMode(t *testing.T) {
	g := sweep.NewGrid(sweep.Strings("a", "x", "y"), sweep.Reps(8))
	cfg := Config{Seed: 5, CellPanic: 0.3}
	p := New(cfg)
	faulty := p.FaultyCells(g.Size())
	if len(faulty) == 0 {
		t.Fatalf("no faulty cells at CellPanic=0.3 over %d cells", g.Size())
	}
	b := p.WrapBackend(sweep.FuncBackend{Engine: "test", G: g, Run: func(pt sweep.Point, rec *sweep.Recorder) error {
		rec.Observe("m0", 1)
		return nil
	}})
	_, err := sweep.RunCells(g, b.Cell, 1, 4, nil)
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "chaos: injected panic") {
		t.Fatalf("panicking cell surfaced as %v, want a structured panic error", err)
	}
}

// TestCheckpointWriterFaults: every fault mode leaves the destination
// file's previous content intact, and a clean draw delegates to the
// inner writer.
func TestCheckpointWriterFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	inner := func(p string, data []byte) error { return os.WriteFile(p, data, 0o644) }
	failing := New(Config{Seed: 3, CheckpointFail: 1}).CheckpointWriter(inner)
	for i := 0; i < 12; i++ {
		if err := failing(path, []byte("next")); err == nil {
			t.Fatalf("write %d: CheckpointFail=1 did not fail", i)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "previous" {
			t.Fatalf("write %d: destination corrupted: %q, %v", i, got, err)
		}
	}
	clean := New(Config{Seed: 3}).CheckpointWriter(inner)
	if err := clean(path, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "next" {
		t.Fatalf("clean write left %q", got)
	}
}
