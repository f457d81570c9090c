package mapreduce

import (
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
	var alloc ossim.Op
	var allocMem ossim.MemOp
	labels := runProgram(t, func() (string, bool) {
		var op ossim.Op
		mp.Next(nil, &op)
		if op.Label == "alloc" {
			alloc, allocMem = op, *op.Mem
		}
		return op.Label, op.Done
	}, 1000)
	if labels[0] != "jvm-start" {
		t.Fatalf("first op = %q, want jvm-start", labels[0])
	}
	counts := map[string]int{}
	for _, l := range labels {
		counts[l]++
	}
	// 64 MB JVM base = one alloc op in 8 MB chunks; 64 MB input = 8 map
	// chunks; no finalize (no extra memory); one commit.
	if counts["alloc"] != 1 || allocMem.Length != 64<<20 || alloc.Chunk != 8<<20 {
		t.Fatalf("%d alloc ops, the last of %d bytes in chunks of %d, want one of 64 MB in 8 MB chunks",
			counts["alloc"], allocMem.Length, alloc.Chunk)
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

// checkTouchRegions drives a program to its end through next and checks
// that it returns each region of want, by label, as exactly one chunked op
// that touches just that region, ChunkBytes at a time, each chunk
// computing touchCompute of its length.
func checkTouchRegions(t *testing.T, name string, cfg *EngineConfig, next func(*ossim.Op), want map[string]ossim.MemOp) {
	t.Helper()
	seen := map[string]int{}
	for range 10000 {
		var op ossim.Op
		next(&op)
		if op.Done {
			for label := range want {
				if seen[label] != 1 {
					t.Fatalf("%s program returned %d %s ops, want 1", name, seen[label], label)
				}
			}
			return
		}
		region, ok := want[op.Label]
		if !ok {
			if op.Chunk != 0 {
				t.Fatalf("%s program: %s op is chunked", name, op.Label)
			}
			continue
		}
		seen[op.Label]++
		if op.Mem == nil || *op.Mem != region || op.Chunk != cfg.ChunkBytes || op.Sleep != 0 || op.IO != nil {
			t.Fatalf("%s program: %s op %+v (mem %+v), want a touch of %+v in chunks of %d",
				name, op.Label, op, op.Mem, region, cfg.ChunkBytes)
		}
		for off := int64(0); off < region.Length; off += op.Chunk {
			n, compute := min(op.Chunk, region.Length-off), op.Compute
			if n < op.Chunk {
				compute = op.LastCompute
			}
			if tc := touchCompute(cfg, n); compute != tc {
				t.Fatalf("%s program: %s chunk at %d of %d bytes computes %v, want %v", name, op.Label, off, n, compute, tc)
			}
		}
	}
	t.Fatalf("%s program did not finish", name)
}

// TestProgramRegionsAreChunkedOps checks that map and reduce programs
// return their alloc and finalize regions each as one chunked op, regions
// that are no whole number of chunks, or shorter than one, included.
func TestProgramRegionsAreChunkedOps(t *testing.T) {
	h := newProgHarness(t, 16<<20)
	cfg := DefaultEngineConfig()
	for _, c := range []struct{ base, extra int64 }{
		{20<<20 + 4096, 27 << 20},
		{64 << 20, 0},
		{16 << 20, 32 << 20},
		{4096, 5 << 20},
	} {
		conf := &JobConf{
			Name: "j", InputPath: "/in", MapParseRate: 8e6, NumReduces: 1, ReduceRate: 8e6, ShuffleSortRate: 8e6,
			JVMBaseBytes: c.base, ExtraMemoryBytes: c.extra,
		}
		alloc := ossim.MemOp{Length: c.base + c.extra, Write: true}
		want := map[string]ossim.MemOp{"alloc": alloc}
		if c.extra > 0 {
			want["finalize"] = ossim.MemOp{Offset: c.base, Length: c.extra}
		}
		mp := newMapProgram(h.eng, &cfg, conf, h.fs, "n1", h.dev, h.block, &taskRuntime{}, 1)
		checkTouchRegions(t, "map", &cfg, func(op *ossim.Op) { mp.Next(nil, op) }, want)
		rp := newReduceProgram(h.eng, &cfg, conf, h.dev, &taskRuntime{}, 1, 32<<20, 100e6)
		checkTouchRegions(t, "reduce", &cfg, func(op *ossim.Op) { rp.Next(nil, op) }, map[string]ossim.MemOp{"alloc": alloc})
	}
}
