package workload

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"hadooppreempt/internal/sweep"
)

// sampleTracePath is the checked-in SWIM sample shared by the docs and
// the CI backend-parity job.
const sampleTracePath = "../../goldens/swim_sample.tsv"

// TestParseTraceGolden locks the parser against the checked-in sample:
// job count, field extraction and units.
func TestParseTraceGolden(t *testing.T) {
	jobs, err := ReadTraceFile(sampleTracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 24 {
		t.Fatalf("parsed %d jobs, want 24", len(jobs))
	}
	golden := []struct {
		i      int
		id     string
		submit time.Duration
		gap    time.Duration
		input  int64
	}{
		{0, "job0000", 5 * time.Second, 5 * time.Second, 64 << 20},
		{1, "job0001", 12 * time.Second, 7 * time.Second, 32 << 20},
		{8, "job0008", 210 * time.Second, 60 * time.Second, 1 << 30},
		{12, "job0012", 420 * time.Second, 80 * time.Second, 2 << 30},
		{23, "job0023", 1260 * time.Second, 180 * time.Second, 256 << 20},
	}
	for _, g := range golden {
		j := jobs[g.i]
		if j.ID != g.id || j.SubmitAt != g.submit || j.Interarrival != g.gap || j.InputBytes != g.input {
			t.Errorf("job %d = %+v, want id=%s submit=%v gap=%v input=%d",
				g.i, j, g.id, g.submit, g.gap, g.input)
		}
	}
	// Shuffle and output columns are parsed too (job0012: 512 MB / 256 MB).
	if jobs[12].ShuffleBytes != 512<<20 || jobs[12].OutputBytes != 256<<20 {
		t.Errorf("job0012 shuffle/output = %d/%d, want %d/%d",
			jobs[12].ShuffleBytes, jobs[12].OutputBytes, int64(512<<20), int64(256<<20))
	}
}

// badTraces are traces ParseTrace must reject, keyed by what is wrong
// with them.
var badTraces = map[string]string{
	"too few fields":   "j1 0 0 100\n",
	"duplicate id":     "j1 0 0 100 0 0\nj1 5 5 100 0 0\n",
	"negative time":    "j1 -3 0 100 0 0\n",
	"bad byte count":   "j1 0 0 ten 0 0\n",
	"negative bytes":   "j1 0 0 -100 0 0\n",
	"empty trace":      "# only a comment\n",
	"non-number time":  "j1 soon 0 100 0 0\n",
	"NaN time":         "j1 NaN 0 10 0 0\n",
	"infinite time":    "j1 Inf 0 10 0 0\n",
	"overflowing time": "j1 1e300 0 10 0 0\n",
	"NaN gap":          "j1 0 NaN 10 0 0\n",
}

// TestParseTraceRejectsBadInput covers the parser's error paths.
func TestParseTraceRejectsBadInput(t *testing.T) {
	for name, in := range badTraces {
		if jobs, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected an error, parsed %+v", name, jobs)
		}
	}
}

// FuzzParseTrace feeds arbitrary text to the trace parser, starting from
// the checked-in sample and the rejected traces. ParseTrace must never
// panic, and a trace it accepts must hold unique job IDs and
// non-negative times and sizes.
func FuzzParseTrace(f *testing.F) {
	sample, err := os.ReadFile(sampleTracePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(sample))
	for _, in := range badTraces {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, text string) {
		jobs, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			if seen[j.ID] {
				t.Fatalf("job ID %q accepted twice", j.ID)
			}
			seen[j.ID] = true
			if j.SubmitAt < 0 || j.Interarrival < 0 {
				t.Fatalf("job %s accepted with submit %v, inter-arrival %v", j.ID, j.SubmitAt, j.Interarrival)
			}
			if j.InputBytes < 0 || j.ShuffleBytes < 0 || j.OutputBytes < 0 {
				t.Fatalf("job %s accepted with sizes %d/%d/%d", j.ID, j.InputBytes, j.ShuffleBytes, j.OutputBytes)
			}
		}
	})
}

// TestParseTraceSkipsCommentsAndBlanks accepts the documented cosmetics
// and fractional seconds.
func TestParseTraceSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nj1 0.5 0.5 100 0 0\n\n# tail\nj2 2 1.5 200 10 5 extra metadata\n"
	jobs, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("parsed %d jobs, want 2", len(jobs))
	}
	if jobs[0].SubmitAt != 500*time.Millisecond {
		t.Errorf("fractional submit = %v, want 500ms", jobs[0].SubmitAt)
	}
}

// TestReplayBackendSpecs checks round-robin shard assignment and the
// input floor/cap.
func TestReplayBackendSpecs(t *testing.T) {
	jobs := make([]TraceJob, 7)
	for i := range jobs {
		jobs[i] = TraceJob{ID: fmt.Sprintf("j%d", i), SubmitAt: time.Duration(i) * time.Second,
			InputBytes: int64(i) * 100 << 20}
	}
	b, err := NewReplayBackend(ReplayConfig{Jobs: jobs, Shards: 3, MaxInputBytes: 300 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s1 := b.Specs(1)
	if len(s1) != 2 || s1[0].Conf.Name != "j1" || s1[1].Conf.Name != "j4" {
		t.Fatalf("shard 1 = %+v, want j1, j4", s1)
	}
	s0 := b.Specs(0)
	if s0[0].InputBytes != 1<<20 {
		t.Errorf("small input not floored: %d", s0[0].InputBytes)
	}
	if s0[2].Conf.Name != "j6" || s0[2].InputBytes != 300<<20 {
		t.Errorf("large input not capped: %+v", s0[2])
	}
	if b.Specs(5) != nil || b.Specs(-1) != nil {
		t.Error("out-of-range shard should yield no specs")
	}
}

// TestReplayBackendValidation rejects broken configurations.
func TestReplayBackendValidation(t *testing.T) {
	if _, err := NewReplayBackend(ReplayConfig{}); err == nil {
		t.Error("empty trace should fail")
	}
	one := []TraceJob{{ID: "j", InputBytes: 1}}
	if _, err := NewReplayBackend(ReplayConfig{Jobs: one, Shards: 2}); err == nil {
		t.Error("more shards than jobs should fail")
	}
	if _, err := NewReplayBackend(ReplayConfig{Jobs: one, Scheduler: "random"}); err == nil {
		t.Error("unknown scheduler should fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewReplayBackend(ReplayConfig{Jobs: one, TimeScale: v}); err == nil {
			t.Errorf("time scale %g should fail", v)
		}
		if _, err := NewReplayBackend(ReplayConfig{Jobs: one, MapParseRate: v}); err == nil {
			t.Errorf("map parse rate %g should fail", v)
		}
	}
}

// replaySample builds a backend over the checked-in sample trace.
func replaySample(t *testing.T, sched string) *ReplayBackend {
	t.Helper()
	jobs, err := ReadTraceFile(sampleTracePath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReplayBackend(ReplayConfig{Jobs: jobs, Shards: 4, Reps: 2, Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayDeterministicAcrossParallelAndShards is the backend's core
// guarantee: replay output is byte-identical at any parallelism, and
// process-shard files merge into the single-process result exactly.
func TestReplayDeterministicAcrossParallelAndShards(t *testing.T) {
	render := func(col *sweep.Collapsed) string {
		var out bytes.Buffer
		for _, format := range []string{"csv", "json", "table", "series"} {
			if err := col.Write(&out, format); err != nil {
				t.Fatal(err)
			}
		}
		return out.String()
	}
	b := replaySample(t, "fifo")
	p1, err := sweep.RunBackend(b, sweep.Options{Parallel: 1, Seed: 21}, sweep.RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := sweep.RunBackend(b, sweep.Options{Parallel: 8, Seed: 21}, sweep.RepAxis)
	if err != nil {
		t.Fatal(err)
	}
	if render(p1) != render(p8) {
		t.Fatal("replay output differs between -parallel 1 and -parallel 8")
	}
	const n = 3
	parts := make([]*sweep.Collapsed, n)
	for i := 0; i < n; i++ {
		col, err := sweep.RunBackend(b,
			sweep.Options{Parallel: 4, Seed: 21, Shard: sweep.Shard{Index: i, Count: n}}, sweep.RepAxis)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := col.WriteShard(&file); err != nil {
			t.Fatal(err)
		}
		if parts[i], err = sweep.ReadShard(&file); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := sweep.Merge(parts[2], parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if render(merged) != render(p1) {
		t.Fatal("merged replay shards differ from the single-process run")
	}
}

// TestReplaySchedulers smoke-tests every scheduler wiring: all trace
// jobs complete and report positive sojourns.
func TestReplaySchedulers(t *testing.T) {
	for _, sched := range []string{"fifo", "fair", "hfsp"} {
		b := replaySample(t, sched)
		b.cfg.Reps = 1
		col, err := sweep.RunBackend(b, sweep.Options{Parallel: 4, Seed: 5}, sweep.RepAxis)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if len(col.Groups) != 4 {
			t.Fatalf("%s: %d groups, want 4 trace shards", sched, len(col.Groups))
		}
		totalJobs := 0.0
		for _, g := range col.Groups {
			totalJobs += g.Metrics["jobs"].Mean
			if g.Metrics["sojourn_mean_s"].Mean <= 0 {
				t.Errorf("%s shard %s: non-positive mean sojourn", sched, g.Key)
			}
		}
		if totalJobs != 24 {
			t.Errorf("%s: replayed %v jobs across shards, want 24", sched, totalJobs)
		}
	}
}
