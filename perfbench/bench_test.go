package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/sweep"
)

func TestAttributeCreditsInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.mallocgc", "hadooppreempt/internal/memory.(*Manager).Touch",
			"hadooppreempt/internal/sim.(*Engine).Run", "main.localPass"}, "memory"},
		{[]string{"runtime.mapaccess2_faststr", "hadooppreempt.clusterCell.func1",
			"hadooppreempt/internal/sweep.RunCells.func1"}, "facade"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "hadooppreempt/internal/atomicio.WriteFileDurable",
			"hadooppreempt/internal/coord.(*Coordinator).saveCheckpoint"}, "atomicio"},
		{[]string{"hadooppreempt/internal/sweep.Stringers[...]", "main.main"}, "sweep"},
		{[]string{"encoding/json.Marshal", "main.(*ckptTracer).write", "net/http.HandlerFunc.ServeHTTP"}, "perfbench"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, noModule},
		{nil, noModule},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestParseTracesCreditsInlinedFrames reads pprof -traces output: the
// first sample's innermost repository frame is a memory function
// inlined into sim, a label line precedes the second, and the third
// has no repository frame at all.
func TestParseTracesCreditsInlinedFrames(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1.20s, Total samples = 50ms ( 4.17%)
-----------+-------------------------------------------------------
  30000000ns   runtime.mallocgc
             hadooppreempt/internal/memory.touch (inline)
             hadooppreempt/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
     bytes:  4kB
  10000000ns   hadooppreempt/internal/coord.(*Coordinator).saveCheckpoint
-----------+-------------------------------------------------------
  10000000ns   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"memory": 30_000_000, "coord": 10_000_000, noModule: 10_000_000}
	if !maps.Equal(got, want) {
		t.Fatalf("parseTraces = %v, want %v", got, want)
	}
}

// TestRealProfileCreditsSimModules profiles real two-job cells: the
// time must land on the simulator's modules, not on the runtime or on
// this harness.
func TestRealProfileCreditsSimModules(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles half a second of cells")
	}
	if raceEnabled {
		t.Skip("race detector frames hide the simulator's")
	}
	g := experiments.TwoJobGrid(1)
	points, err := g.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var rec sweep.Recorder
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		for _, p := range points {
			if err := experiments.TwoJobCellInto(p, 0, 0, &rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	cpu, err := moduleCPU([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	var total, simSide int64
	for mod, ns := range cpu {
		total += ns
		switch mod {
		case "sim", "memory", "ossim", "mapreduce", "hdfs", "disk", "scheduler", "experiments", "trace", "core":
			simSide += ns
		}
	}
	if total < 100*int64(time.Millisecond) || float64(simSide) < 0.7*float64(total) {
		t.Fatalf("simulator modules got %d of %d ns: %v", simSide, total, cpu)
	}
}

func TestFlippedByteIsAFailure(t *testing.T) {
	want := []byte("prim,r,metric,mean\nsusp,25,sojourn_s,12.5\n")
	chk := &checker{want: make(map[string]expect)}
	chk.expect("golden", expect{data: want, source: "golden"})
	chk.expect("digest", expect{sha256: digest(want), source: "digest"})
	good := passResult{outputs: []output{{"golden", slices.Clone(want)}, {"digest", slices.Clone(want)}}}
	chk.checkPass(good)
	if chk.attempted != 2 || chk.failed != 0 {
		t.Fatalf("intact outputs: %d attempted, %d failed", chk.attempted, chk.failed)
	}
	for i, name := range []string{"golden", "digest"} {
		bad := slices.Clone(want)
		bad[len(bad)/2] ^= 1
		r := passResult{outputs: []output{{name, bad}}}
		chk.checkPass(r) // the other output is missing: also a failure
		if chk.failed != 2*(i+1) {
			t.Fatalf("after flipping a byte of %s: %d failed, want %d", name, chk.failed, 2*(i+1))
		}
	}
	if len(chk.mismatches) != 4 {
		t.Fatalf("mismatches %q", chk.mismatches)
	}
}

// TestServedSweepMatchesLocal serves the twojob grid at a seed no
// golden covers; its merged output must equal a serial in-process run.
func TestServedSweepMatchesLocal(t *testing.T) {
	var ref, r passResult
	want := localSweep(&ref, servedTwojob, 7, nil, 0, 1, time.Now())
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	tr := &tracer{}
	got := servedSweep(&r, servedTwojob, 7, tr, 0, t.TempDir())
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served output differs from the serial in-process run")
	}
	if r.cells != 540 || r.unitErrs != 0 || r.leases != (540+leaseCells-1)/leaseCells || r.units != r.leases {
		t.Fatalf("cells %d, leases %d, units %d, failed %d", r.cells, r.leases, r.units, r.unitErrs)
	}
	if n := len(under(tr.byName(spanCell), tr.byName(spanServed))); n < 540 {
		t.Fatalf("%d cell spans under the served sweep, want at least 540", n)
	}
	// Every checkpoint write after Serve's first is parented under the
	// result round trip that caused it.
	results := make(map[int64]bool)
	for _, s := range tr.byName(spanHTTP + "/v1/result") {
		results[s.id] = true
	}
	ckpts := tr.byName(spanCheckpoint)
	under := 0
	for _, s := range ckpts {
		if results[s.parent] {
			under++
		}
	}
	if len(ckpts) < 2 || under != len(ckpts)-1 {
		t.Fatalf("%d of %d checkpoint writes under a result round trip", under, len(ckpts))
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{id: 1, name: "sweep", start: at(0), end: at(10)},
		{id: 2, parent: 1, name: "cell", start: at(1), end: at(4)},
		{id: 3, parent: 1, name: "cell", start: at(3), end: at(6)},
		{id: 4, parent: 1, name: "cell", start: at(8), end: at(12)},
	}}
	if got := tr.selfTimes()[1]; got != 3*time.Millisecond {
		t.Fatalf("self time %v, want 3ms", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
	if q1, _, q3 := quartiles([]float64{1, 2}); math.Abs(q1-0.75) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Fatalf("two-sample quartiles %v %v", q1, q3)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step: same workloads, same names, same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %q, program %q", names, workloadNames())
	}
	w, _ := workloadByName("cluster-grids")
	d := &runData{w: w}
	for _, c := range []struct {
		list    []named
		printed map[string]metric
	}{{spec.EndToEnd, endToEndMetrics(d)}, {spec.PerLayer, layerMetrics(d)}} {
		if len(c.list) != len(c.printed) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(c.list), len(c.printed))
		}
		for _, m := range c.list {
			p, ok := c.printed[m.Name]
			if !ok || p.Unit != m.Unit {
				t.Errorf("metric %s (%s): printed as %+v, %v", m.Name, m.Unit, p, ok)
			}
		}
	}
}
