package mapreduce

import (
	"reflect"
	"testing"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/hdfs"
	"hadooppreempt/internal/ossim"
	"hadooppreempt/internal/sim"
)

// progHarness drives a task program op by op, as the kernel would.
type progHarness struct {
	eng   *sim.Engine
	fs    *hdfs.FileSystem
	dev   *disk.Device
	block hdfs.BlockLocation
}

func newProgHarness(t *testing.T, inputBytes int64) *progHarness {
	t.Helper()
	eng := sim.New()
	fs, err := hdfs.New(eng, sim.NewRNG(1), hdfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := disk.New(eng, "sda", disk.DefaultConfig())
	if _, err := fs.AddDataNode("n1", "r1", dev, nil); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.Create("/in", inputBytes, "n1")
	if err != nil {
		t.Fatal(err)
	}
	return &progHarness{eng: eng, fs: fs, dev: dev, block: locs[0]}
}

// runProgram pulls ops until Done, returning labels in order. Programs
// take *ossim.Process but never dereference it, so unit tests pass nil.
func runProgram(t *testing.T, next func() (label string, done bool), maxOps int) []string {
	t.Helper()
	var labels []string
	for i := 0; i < maxOps; i++ {
		label, done := next()
		if done {
			return labels
		}
		labels = append(labels, label)
	}
	t.Fatalf("program did not finish within %d ops (labels so far: %v)", maxOps, labels)
	return nil
}

func TestMapProgramOpSequenceLightweight(t *testing.T) {
	h := newProgHarness(t, 64<<20)
	cfg := DefaultEngineConfig()
	conf := &JobConf{Name: "j", InputPath: "/in", MapParseRate: 8e6, JVMBaseBytes: 64 << 20}
	rt := &taskRuntime{}
	mp := newMapProgram(h.eng, &cfg, conf, h.fs, "n1", h.dev, h.block, rt, 1)
	labels := runProgram(t, func() (string, bool) {
		var op ossim.Op
		mp.Next(nil, &op)
		return op.Label, op.Done
	}, 1000)
	if labels[0] != "jvm-start" {
		t.Fatalf("first op = %q, want jvm-start", labels[0])
	}
	counts := map[string]int{}
	for _, l := range labels {
		counts[l]++
	}
	// 64 MB JVM base at 8 MB chunks = 8 alloc ops; 64 MB input = 8 map
	// chunks; no finalize (no extra memory); one commit.
	if counts["alloc"] != 8 {
		t.Fatalf("alloc ops = %d, want 8", counts["alloc"])
	}
	if counts["map-chunk"] != 8 {
		t.Fatalf("map-chunk ops = %d, want 8", counts["map-chunk"])
	}
	if counts["finalize"] != 0 {
		t.Fatalf("finalize ops = %d, want 0 for stateless task", counts["finalize"])
	}
	if counts["commit"] != 1 {
		t.Fatalf("commit ops = %d, want 1", counts["commit"])
	}
	if rt.progress() != 1 {
		t.Fatalf("final progress = %v, want 1", rt.progress())
	}
}

func TestMapProgramFinalizeReadsExtraState(t *testing.T) {
	h := newProgHarness(t, 16<<20)
	cfg := DefaultEngineConfig()
	conf := &JobConf{
		Name: "j", InputPath: "/in", MapParseRate: 8e6,
		JVMBaseBytes: 16 << 20, ExtraMemoryBytes: 32 << 20,
	}
	rt := &taskRuntime{}
	mp := newMapProgram(h.eng, &cfg, conf, h.fs, "n1", h.dev, h.block, rt, 1)
	sawFinalizeRead := false
	for i := 0; i < 1000; i++ {
		var op ossim.Op
		mp.Next(nil, &op)
		if op.Done {
			break
		}
		if op.Label == "finalize" {
			if op.Mem == nil || op.Mem.Write {
				t.Fatal("finalize must be a read of the extra region")
			}
			if op.Mem.Offset < conf.JVMBaseBytes {
				t.Fatalf("finalize touches offset %d inside the JVM region", op.Mem.Offset)
			}
			sawFinalizeRead = true
		}
		if op.Label == "alloc" && (op.Mem == nil || !op.Mem.Write) {
			t.Fatal("alloc must write")
		}
	}
	if !sawFinalizeRead {
		t.Fatal("stateful task never finalized")
	}
}

func TestMapProgramProgressMonotone(t *testing.T) {
	h := newProgHarness(t, 64<<20)
	cfg := DefaultEngineConfig()
	conf := &JobConf{Name: "j", InputPath: "/in", MapParseRate: 8e6, JVMBaseBytes: 16 << 20}
	rt := &taskRuntime{}
	mp := newMapProgram(h.eng, &cfg, conf, h.fs, "n1", h.dev, h.block, rt, 1)
	prev := 0.0
	for i := 0; i < 1000; i++ {
		var op ossim.Op
		mp.Next(nil, &op)
		if op.Done {
			break
		}
		p := rt.progress()
		if p < prev {
			t.Fatalf("progress regressed %v -> %v", prev, p)
		}
		prev = p
	}
}

func TestMapProgramOutputWrite(t *testing.T) {
	h := newProgHarness(t, 16<<20)
	cfg := DefaultEngineConfig()
	conf := &JobConf{
		Name: "j", InputPath: "/in", MapParseRate: 8e6,
		JVMBaseBytes: 16 << 20, MapOutputRatio: 0.5,
	}
	rt := &taskRuntime{}
	mp := newMapProgram(h.eng, &cfg, conf, h.fs, "n1", h.dev, h.block, rt, 1)
	for i := 0; i < 1000; i++ {
		var op ossim.Op
		mp.Next(nil, &op)
		if op.Done {
			break
		}
		if op.Label == "commit" {
			if op.IO == nil || op.IO.Kind != disk.Write {
				t.Fatal("commit with output ratio must write to disk")
			}
			if op.IO.Bytes != 8<<20 {
				t.Fatalf("output bytes = %d, want half the input", op.IO.Bytes)
			}
			return
		}
	}
	t.Fatal("no commit op seen")
}

func TestReduceProgramPhases(t *testing.T) {
	h := newProgHarness(t, 16<<20)
	cfg := DefaultEngineConfig()
	conf := &JobConf{
		Name: "j", InputPath: "/in", MapParseRate: 8e6,
		JVMBaseBytes: 16 << 20, NumReduces: 1,
		ReduceRate: 8e6, ShuffleSortRate: 8e6,
	}
	rt := &taskRuntime{}
	rp := newReduceProgram(h.eng, &cfg, conf, h.dev, rt, 1, 32<<20, 100e6)
	var labels []string
	for i := 0; i < 1000; i++ {
		var op ossim.Op
		rp.Next(nil, &op)
		if op.Done {
			break
		}
		labels = append(labels, op.Label)
	}
	counts := map[string]int{}
	order := map[string]int{}
	for i, l := range labels {
		counts[l]++
		if _, seen := order[l]; !seen {
			order[l] = i
		}
	}
	if counts["shuffle"] != 4 || counts["reduce"] != 4 {
		t.Fatalf("shuffle/reduce ops = %d/%d, want 4/4 for 32 MB at 8 MB chunks",
			counts["shuffle"], counts["reduce"])
	}
	if !(order["jvm-start"] < order["shuffle"] && order["shuffle"] < order["reduce"] &&
		order["reduce"] < order["commit"]) {
		t.Fatalf("phase order wrong: %v", order)
	}
	if rt.progress() != 1 {
		t.Fatalf("final progress = %v, want 1", rt.progress())
	}
}

func TestCleanupProgramSingleOp(t *testing.T) {
	cfg := DefaultEngineConfig()
	cp := &cleanupProgram{cfg: &cfg}
	var op ossim.Op
	cp.Next(nil, &op)
	if op.Done || op.Sleep != cfg.CleanupCost {
		t.Fatalf("first op = %+v, want sleep of CleanupCost", op)
	}
	cp.Next(nil, &op)
	if !op.Done {
		t.Fatal("second op should be Done")
	}
}

// checkStretches drives prog to its end op by op, as the kernel does
// without stretches. After each memory-only op it asks for a stretch and
// checks, on copies of the program taken there (fork), that the ops Next
// returns next are the ones described and that Skip(n) leaves the program
// where n calls of Next leave it, as state shows it. It returns how many
// stretches were described.
func checkStretches(t *testing.T, prog ossim.StretchProgram, fork func() ossim.StretchProgram, state func(ossim.StretchProgram) any) int {
	t.Helper()
	described := 0
	for range 10000 {
		var op ossim.Op
		prog.Next(nil, &op)
		if op.Done {
			return described
		}
		var st ossim.Stretch
		if op.Mem == nil || op.Sleep != 0 || op.IO != nil || !prog.Stretch(&st) {
			continue
		}
		described++
		var want []ossim.Op
		for off := op.Mem.Offset + op.Mem.Length; off < st.End; off += st.Chunk {
			length, compute := min(st.Chunk, st.End-off), st.Compute
			if length < st.Chunk {
				compute = st.LastCompute
			}
			want = append(want, ossim.Op{Mem: &ossim.MemOp{Offset: off, Length: length, Write: op.Mem.Write}, Compute: compute})
		}
		if len(want) == 0 {
			t.Fatalf("%s op at %d: a stretch of no ops", op.Label, op.Mem.Offset)
		}
		stepped := fork()
		for i, w := range want {
			var got ossim.Op
			stepped.Next(nil, &got)
			if got.Mem == nil || *got.Mem != *w.Mem || got.Compute != w.Compute || got.Sleep != 0 || got.IO != nil {
				t.Fatalf("%s op at %d: op %d of the stretch is %+v (mem %+v), described %+v (mem %+v)",
					op.Label, op.Mem.Offset, i, got, got.Mem, w, *w.Mem)
			}
			skipped := fork()
			skipped.Skip(i + 1)
			if a, b := state(skipped), state(stepped); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s op at %d: Skip(%d) leaves %+v, %d calls of Next %+v", op.Label, op.Mem.Offset, i+1, a, i+1, b)
			}
		}
	}
	t.Fatal("program did not finish")
	return 0
}

// TestProgramStretches checks that map and reduce programs describe their
// alloc and finalize chunks as stretches exactly, regions that are no
// whole number of chunks included.
func TestProgramStretches(t *testing.T) {
	h := newProgHarness(t, 16<<20)
	cfg := DefaultEngineConfig()
	conf := &JobConf{
		Name: "j", InputPath: "/in", MapParseRate: 8e6, NumReduces: 1, ReduceRate: 8e6, ShuffleSortRate: 8e6,
		JVMBaseBytes: 20<<20 + 4096, ExtraMemoryBytes: 27 << 20,
	}
	mp := newMapProgram(h.eng, &cfg, conf, h.fs, "n1", h.dev, h.block, &taskRuntime{}, 1)
	n := checkStretches(t, mp, func() ossim.StretchProgram { c := *mp; return &c }, func(p ossim.StretchProgram) any {
		c := *p.(*mapProgram)
		c.memOp = ossim.MemOp{}
		return c
	})
	// 47 MB of alloc chunks (6 ops) and 27 MB of finalize chunks (4):
	// every op but the last of each stage starts a stretch.
	if n != 5+3 {
		t.Fatalf("map program described %d stretches, want 8", n)
	}
	rp := newReduceProgram(h.eng, &cfg, conf, h.dev, &taskRuntime{}, 1, 32<<20, 100e6)
	n = checkStretches(t, rp, func() ossim.StretchProgram { c := *rp; return &c }, func(p ossim.StretchProgram) any {
		c := *p.(*reduceProgram)
		c.memOp = ossim.MemOp{}
		return c
	})
	if n != 5 {
		t.Fatalf("reduce program described %d stretches, want 5", n)
	}
}
