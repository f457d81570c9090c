package hdfs

import (
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/sim"
)

type testCluster struct {
	eng *sim.Engine
	fs  *FileSystem
	mem map[NodeID]*memory.Manager
}

// newTestCluster builds nodes n1..n4 across racks r1, r2 with 100 MB/s
// disks and 64 MB blocks.
func newTestCluster(t *testing.T, nodes int) *testCluster {
	t.Helper()
	eng := sim.New()
	fs, err := New(eng, sim.NewRNG(1), Config{
		BlockSize:          64 << 20,
		Replication:        3,
		RackLocalBandwidth: 100e6,
		OffRackBandwidth:   50e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{eng: eng, fs: fs, mem: make(map[NodeID]*memory.Manager)}
	racks := []string{"r1", "r2"}
	for i := 0; i < nodes; i++ {
		id := NodeID(string(rune('a'+i)) + "1")
		d := disk.New(eng, string(id), disk.Config{
			SeekTime: time.Millisecond, ReadBandwidth: 100e6, WriteBandwidth: 100e6,
		})
		m, err := memory.New(eng, d, memory.Config{
			PageSize: 64 << 10, RAMBytes: 512 << 20, SwapBytes: 1 << 30,
			PageClusterPages: 8, MinorFaultCost: time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.mem[id] = m
		if _, err := fs.AddDataNode(id, racks[i%2], d, m); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, err := tc.fs.Create("/input", 200<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	// 200 MB at 64 MB blocks = 4 blocks (3 full + 1 of 8 MB).
	if len(locs) != 4 {
		t.Fatalf("blocks = %d, want 4", len(locs))
	}
	var total int64
	for _, l := range locs {
		total += l.Size
		if len(l.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", l.Block, len(l.Replicas))
		}
	}
	if total != 200<<20 {
		t.Fatalf("total size = %d, want %d", total, 200<<20)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	tc := newTestCluster(t, 2)
	if _, err := tc.fs.Create("/f", 1<<20, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.fs.Create("/f", 1<<20, ""); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestReplicasAreDistinctNodes(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "")
	seen := make(map[NodeID]bool)
	for _, r := range locs[0].Replicas {
		if seen[r] {
			t.Fatalf("replica %s repeated", r)
		}
		seen[r] = true
	}
}

func TestPlacementSpansRacks(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "")
	racks := make(map[string]bool)
	for _, r := range locs[0].Replicas {
		dn, _ := tc.fs.DataNode(r)
		racks[dn.Rack()] = true
	}
	if len(racks) < 2 {
		t.Fatalf("replicas all in one rack: %v", locs[0].Replicas)
	}
}

func TestWriterHintPins(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "a1")
	if locs[0].Replicas[0] != "a1" {
		t.Fatalf("first replica = %s, want writer a1", locs[0].Replicas[0])
	}
}

func TestReplicationCappedAtClusterSize(t *testing.T) {
	tc := newTestCluster(t, 2)
	locs, _ := tc.fs.Create("/f", 1<<20, "")
	if len(locs[0].Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2 (cluster size)", len(locs[0].Replicas))
	}
}

func TestLocalityLevels(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "a1")
	block := locs[0].Block
	loc, err := tc.fs.Locality("a1", block)
	if err != nil {
		t.Fatal(err)
	}
	if loc != NodeLocal {
		t.Fatalf("locality on writer = %v, want node-local", loc)
	}
	// Some node must see it non-locally.
	replicaSet := make(map[NodeID]bool)
	for _, r := range locs[0].Replicas {
		replicaSet[r] = true
	}
	for _, n := range []NodeID{"a1", "b1", "c1", "d1"} {
		if !replicaSet[n] {
			loc, _ := tc.fs.Locality(n, block)
			if loc == NodeLocal {
				t.Fatalf("node %s without replica reports node-local", n)
			}
		}
	}
}

func TestReadLocalUsesDiskBandwidth(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "a1")
	r, err := tc.fs.Open("a1", locs[0].Block)
	if err != nil {
		t.Fatal(err)
	}
	if loc := r.Locality(); loc != NodeLocal {
		t.Fatalf("locality = %v, want node-local", loc)
	}
	done, err := r.Read(0, 64<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 64 MiB (67.1e6 bytes) at 100e6 B/s = ~671 ms + 1 ms seek.
	want := 672 * time.Millisecond
	if done < want-2*time.Millisecond || done > want+2*time.Millisecond {
		t.Fatalf("done at %v, want ~%v", done, want)
	}
}

func TestReadRemoteIsSlower(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "a1")
	// Find a non-replica node to read from.
	replicaSet := make(map[NodeID]bool)
	for _, r := range locs[0].Replicas {
		replicaSet[r] = true
	}
	var reader NodeID
	for _, n := range []NodeID{"a1", "b1", "c1", "d1"} {
		if !replicaSet[n] {
			reader = n
			break
		}
	}
	if reader == "" {
		t.Skip("all nodes hold replicas")
	}
	r, err := tc.fs.Open(reader, locs[0].Block)
	if err != nil {
		t.Fatal(err)
	}
	doneRemote, err := r.Read(0, 64<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	loc := r.Locality()
	if want, _ := tc.fs.Locality(reader, locs[0].Block); loc != want {
		t.Fatalf("reader locality %v, Locality reports %v", loc, want)
	}
	if loc == NodeLocal {
		t.Fatal("expected non-local read")
	}
	if loc == OffRack {
		// 50 MB/s network: 64 MB takes ~1.28 s > 0.64 s disk time.
		if doneRemote < 1200*time.Millisecond {
			t.Fatalf("off-rack read done at %v, want >= 1.2s", doneRemote)
		}
	}
}

func TestReadOutOfRangeFails(t *testing.T) {
	tc := newTestCluster(t, 2)
	locs, _ := tc.fs.Create("/f", 64<<20, "")
	r, err := tc.fs.Open("a1", locs[0].Block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(0, 65<<20, 1); err == nil {
		t.Fatal("read beyond block should fail")
	}
	if _, err := r.Read(-1, 1, 1); err == nil {
		t.Fatal("read before block start should fail")
	}
	if _, err := tc.fs.Open("a1", BlockID(999)); err == nil {
		t.Fatal("open of unknown block should fail")
	}
	var zero BlockReader
	if _, err := zero.Read(0, 1, 1); err == nil {
		t.Fatal("read through the zero reader should fail")
	}
}

func TestReadFillsReaderCache(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "a1")
	before := tc.mem["a1"].CacheBytes()
	r, err := tc.fs.Open("a1", locs[0].Block)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(0, 64<<20, 1); err != nil {
		t.Fatal(err)
	}
	after := tc.mem["a1"].CacheBytes()
	if after <= before {
		t.Fatalf("cache should grow on read: %d -> %d", before, after)
	}
}

func TestDelete(t *testing.T) {
	tc := newTestCluster(t, 2)
	locs, _ := tc.fs.Create("/f", 64<<20, "")
	open, err := tc.fs.Open("a1", locs[0].Block)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if tc.fs.Exists("/f") {
		t.Fatal("file should be gone")
	}
	if _, err := tc.fs.Open("a1", locs[0].Block); err == nil {
		t.Fatal("blocks should be gone")
	}
	// A reader opened before the delete is not invalidated.
	if _, err := open.Read(0, 1, 1); err != nil {
		t.Fatalf("reader opened before Delete: %v", err)
	}
	if err := tc.fs.Delete("/f"); err == nil {
		t.Fatal("double delete should fail")
	}
}

// TestWarmReadAllocatesNothing pins the map input path: a chunked Read
// through an open reader, node-local or remote, allocates nothing.
func TestWarmReadAllocatesNothing(t *testing.T) {
	tc := newTestCluster(t, 4)
	locs, _ := tc.fs.Create("/f", 64<<20, "a1")
	for _, reader := range []NodeID{"a1", "b1", "c1", "d1"} {
		r, err := tc.fs.Open(reader, locs[0].Block)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(0, 8<<20, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := r.Read(8<<20, 8<<20, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s (%v): a warm Read allocates %.1f objects", reader, r.Locality(), allocs)
		}
	}
}

func TestBlocksUnknownFileFails(t *testing.T) {
	tc := newTestCluster(t, 2)
	if _, err := tc.fs.Blocks("/nope"); err == nil {
		t.Fatal("want error")
	}
}

func TestBlocksReturnsCopy(t *testing.T) {
	tc := newTestCluster(t, 4)
	tc.fs.Create("/f", 64<<20, "")
	locs1, _ := tc.fs.Blocks("/f")
	locs1[0].Replicas[0] = "mutated"
	locs2, _ := tc.fs.Blocks("/f")
	if locs2[0].Replicas[0] == "mutated" {
		t.Fatal("Blocks must return defensive copies")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	bad := []Config{
		{BlockSize: 0, Replication: 1, RackLocalBandwidth: 1, OffRackBandwidth: 1},
		{BlockSize: 1, Replication: 0, RackLocalBandwidth: 1, OffRackBandwidth: 1},
		{BlockSize: 1, Replication: 1, RackLocalBandwidth: 0, OffRackBandwidth: 1},
	}
	for i, cfg := range bad {
		if _, err := New(eng, sim.NewRNG(1), cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestCreateWithNoDataNodesFails(t *testing.T) {
	eng := sim.New()
	fs, _ := New(eng, sim.NewRNG(1), DefaultConfig())
	if _, err := fs.Create("/f", 1<<20, ""); err == nil {
		t.Fatal("create without datanodes should fail")
	}
}

func TestLocalityString(t *testing.T) {
	if NodeLocal.String() != "node-local" || RackLocal.String() != "rack-local" || OffRack.String() != "off-rack" {
		t.Fatal("locality strings wrong")
	}
}
