package main

import (
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/sweep"
)

// TestServeRejectsEmptySweepEntry: an empty entry of a -sweep list is a
// typo, not a request for the default grid. The coordinator must refuse
// it, naming the entry, before it starts serving — rather than queue a
// twojob sweep nobody asked for and wait for its workers.
func TestServeRejectsEmptySweepEntry(t *testing.T) {
	cases := []struct {
		list string
		want string
	}{
		{"pressure,", "entry 1 is empty"},
		{",pressure", "entry 0 is empty"},
		{"twojob, ,pressure", "entry 1 is empty"},
	}
	for _, c := range cases {
		f := sweepFlags{backend: "sim", scenario: c.list, reps: 1, seed: 1, format: "csv"}
		done := make(chan error, 1)
		go func() { done <- runServe(f, "127.0.0.1:0", 8, time.Minute, "", false, 3) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("-sweep %q: error %v, want one containing %q", c.list, err, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("-sweep %q: the coordinator started serving instead of rejecting the empty entry", c.list)
		}
	}
}

// volatileBackend is a backend with a content fingerprint whose results
// are never cacheable, like the real-process backend.
type volatileBackend struct{ sweep.Backend }

func (volatileBackend) Fingerprint() string { return "content" }
func (volatileBackend) CacheVolatile() bool { return true }

// TestSlowBackendForwardsIdentity: -cell-sleep changes wall-clock time
// only, so a sleeping worker must prove the same content fingerprint at
// join time and make the same caching decision as one without it.
func TestSlowBackendForwardsIdentity(t *testing.T) {
	f := sweepFlags{backend: "sim", scenario: "twojob", reps: 1, cellSleep: time.Millisecond}
	b, err := buildBackend(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(slowBackend); !ok {
		t.Fatalf("-cell-sleep backend is %T, want slowBackend", b)
	}
	slow := slowBackend{Backend: volatileBackend{b}, unit: time.Millisecond}
	if fp := sweep.BackendFingerprint(slow); fp != "content" {
		t.Errorf("fingerprint %q not forwarded", fp)
	}
	if !sweep.IsVolatile(slow) {
		t.Error("volatility not forwarded")
	}
	f.cellSleep = 0
	if b, err := buildBackend(f); err != nil {
		t.Fatal(err)
	} else if _, ok := b.(slowBackend); ok {
		t.Error("backend wrapped without -cell-sleep")
	}
}
