package hdfs

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

// TestPropertyPlacementInvariants creates files of random sizes on random
// cluster shapes and verifies placement invariants: block count and sizes
// partition the file, replicas are distinct live nodes, replication meets
// min(cluster size, configured factor), multi-rack clusters spread
// replicas across at least two racks when possible, and every node can
// open and read every block at the locality Locality reports.
func TestPropertyPlacementInvariants(t *testing.T) {
	f := func(nodes, racks uint8, sizeMB uint16, seed uint64) bool {
		n := int(nodes%8) + 1
		r := int(racks%3) + 1
		size := (int64(sizeMB%512) + 1) << 20
		eng := sim.New()
		fs, err := New(eng, sim.NewRNG(seed), Config{
			BlockSize:          64 << 20,
			Replication:        3,
			RackLocalBandwidth: 100e6,
			OffRackBandwidth:   50e6,
		})
		if err != nil {
			return false
		}
		rackNames := make([]string, 0, n)
		for i := 0; i < n; i++ {
			id := NodeID(fmt.Sprintf("n%02d", i))
			rack := fmt.Sprintf("rack%d", i%r)
			dev := disk.New(eng, string(id), disk.Config{
				SeekTime: time.Millisecond, ReadBandwidth: 100e6, WriteBandwidth: 100e6,
			})
			if _, err := fs.AddDataNode(id, rack, dev, nil); err != nil {
				return false
			}
			rackNames = append(rackNames, rack)
		}
		locs, err := fs.Create("/f", size, "")
		if err != nil {
			return false
		}
		var total int64
		for _, l := range locs {
			total += l.Size
			if l.Size <= 0 || l.Size > 64<<20 {
				t.Logf("block size %d out of range", l.Size)
				return false
			}
			want := 3
			if n < want {
				want = n
			}
			if len(l.Replicas) != want {
				t.Logf("replicas %d, want %d (nodes=%d)", len(l.Replicas), want, n)
				return false
			}
			seen := make(map[NodeID]bool)
			replicaRacks := make(map[string]bool)
			for _, rep := range l.Replicas {
				if seen[rep] {
					t.Logf("duplicate replica %s", rep)
					return false
				}
				seen[rep] = true
				dn, ok := fs.DataNode(rep)
				if !ok {
					t.Logf("replica on unknown node %s", rep)
					return false
				}
				replicaRacks[dn.Rack()] = true
			}
			// With >= 2 racks and >= 2 replicas, placement must span
			// racks (the default policy guarantees it).
			distinctRacks := make(map[string]bool)
			for _, rn := range rackNames {
				distinctRacks[rn] = true
			}
			if len(distinctRacks) >= 2 && len(l.Replicas) >= 2 && len(replicaRacks) < 2 {
				t.Logf("replicas all in one rack despite %d racks", len(distinctRacks))
				return false
			}
		}
		if total != size {
			t.Logf("blocks sum to %d, want %d", total, size)
			return false
		}
		// Every block readable from every node.
		for _, l := range locs {
			for i := 0; i < n; i++ {
				reader := NodeID(fmt.Sprintf("n%02d", i))
				r, err := fs.Open(reader, l.Block)
				if err == nil {
					_, err = r.Read(0, l.Size, 1)
				}
				if err != nil {
					t.Logf("read from %s failed: %v", reader, err)
					return false
				}
				if want, _ := fs.Locality(reader, l.Block); r.Locality() != want {
					t.Logf("reader on %s reads %v, Locality reports %v", reader, r.Locality(), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
