// Package hdfs models the distributed filesystem substrate the paper's
// evaluation jobs read from: files split into large blocks, replicated
// across DataNodes, with locality-aware reads.
//
// The model captures what matters for the evaluation: block size (512 MB
// single-block inputs), sequential disk bandwidth on the serving node, the
// network penalty of non-local reads, and the fact that streaming a block
// through a node populates its file-system cache (which, at swappiness 0,
// is the first thing the memory manager reclaims under pressure).
package hdfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/sim"
)

// NodeID identifies a cluster node.
type NodeID string

// BlockID identifies a stored block.
type BlockID int64

// Locality classifies a read path, mirroring Hadoop's locality levels.
type Locality int

// Locality levels.
const (
	// NodeLocal means a replica lives on the reading node.
	NodeLocal Locality = iota + 1
	// RackLocal means a replica lives in the reading node's rack.
	RackLocal
	// OffRack means every replica is in another rack.
	OffRack
)

// String returns the Hadoop-style name of the locality level.
func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	case OffRack:
		return "off-rack"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// Config holds filesystem parameters.
type Config struct {
	// BlockSize is the split size for new files. The paper stores each
	// job's input in a single 512 MB block.
	BlockSize int64
	// Replication is the number of replicas per block.
	Replication int
	// RackLocalBandwidth is the network bandwidth (bytes/s) for reads
	// served within the rack.
	RackLocalBandwidth float64
	// OffRackBandwidth is the network bandwidth (bytes/s) for cross-rack
	// reads.
	OffRackBandwidth float64
}

// DefaultConfig mirrors the paper's setup: 512 MB blocks, replication 3,
// gigabit network in-rack and half of it across racks.
func DefaultConfig() Config {
	return Config{
		BlockSize:          512 << 20,
		Replication:        3,
		RackLocalBandwidth: 117e6, // ~1 GbE after framing overhead
		OffRackBandwidth:   58e6,
	}
}

// DataNode stores block replicas on a node's disk.
type DataNode struct {
	id     NodeID
	rack   string
	device *disk.Device
	mem    *memory.Manager // may be nil; used to model cache fill on reads
	blocks map[BlockID]int64
}

// ID returns the node identifier.
func (dn *DataNode) ID() NodeID { return dn.id }

// Rack returns the rack name.
func (dn *DataNode) Rack() string { return dn.rack }

// Blocks returns the number of replicas stored.
func (dn *DataNode) Blocks() int { return len(dn.blocks) }

// BlockLocation describes one block of a file and where its replicas are.
type BlockLocation struct {
	Block    BlockID
	Size     int64
	Replicas []NodeID
}

// FileSystem is the NameNode plus the set of DataNodes.
type FileSystem struct {
	eng       *sim.Engine
	cfg       Config
	rng       *sim.RNG
	nodes     map[NodeID]*DataNode
	nodeOrder []NodeID // deterministic iteration
	files     map[string][]BlockID
	blocks    map[BlockID]*blockMeta
	nextBlock BlockID
	// candScratch is reused across placeReplicas calls.
	candScratch []NodeID
}

type blockMeta struct {
	size     int64
	replicas []NodeID
}

// New creates an empty filesystem.
func New(eng *sim.Engine, rng *sim.RNG, cfg Config) (*FileSystem, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size %d must be positive", cfg.BlockSize)
	}
	if cfg.Replication <= 0 {
		return nil, fmt.Errorf("hdfs: replication %d must be positive", cfg.Replication)
	}
	if cfg.RackLocalBandwidth <= 0 || cfg.OffRackBandwidth <= 0 {
		return nil, fmt.Errorf("hdfs: bandwidths must be positive")
	}
	fs := fsPool.Get().(*FileSystem)
	fs.eng, fs.cfg, fs.rng = eng, cfg, rng
	fs.nextBlock = 1
	if fs.nodes == nil {
		fs.nodes = make(map[NodeID]*DataNode)
		fs.files = make(map[string][]BlockID)
		fs.blocks = make(map[BlockID]*blockMeta)
	}
	return fs, nil
}

// fsPool and dataNodePool recycle shells released with Release, keeping
// their map storage warm across the cluster rebuilds of a sweep cell.
var (
	fsPool       = sync.Pool{New: func() any { return &FileSystem{} }}
	dataNodePool = sync.Pool{New: func() any { return &DataNode{} }}
)

// Release returns the filesystem's internal storage (and its DataNodes') to
// a shared arena for reuse by a future New. The filesystem must not be used
// afterwards.
func (fs *FileSystem) Release() {
	for _, dn := range fs.nodes {
		dn.device, dn.mem = nil, nil
		clear(dn.blocks)
		dataNodePool.Put(dn)
	}
	clear(fs.nodes)
	clear(fs.files)
	clear(fs.blocks)
	fs.nodeOrder = fs.nodeOrder[:0]
	fs.eng, fs.rng = nil, nil
	fsPool.Put(fs)
}

// Config returns the filesystem parameters.
func (fs *FileSystem) Config() Config { return fs.cfg }

// AddDataNode registers a node's storage. mem may be nil when cache
// modelling is not wanted.
func (fs *FileSystem) AddDataNode(id NodeID, rack string, device *disk.Device, mem *memory.Manager) (*DataNode, error) {
	if _, ok := fs.nodes[id]; ok {
		return nil, fmt.Errorf("hdfs: datanode %q already registered", id)
	}
	dn := dataNodePool.Get().(*DataNode)
	dn.id, dn.rack, dn.device, dn.mem = id, rack, device, mem
	if dn.blocks == nil {
		dn.blocks = make(map[BlockID]int64)
	}
	fs.nodes[id] = dn
	fs.nodeOrder = append(fs.nodeOrder, id)
	sort.Slice(fs.nodeOrder, func(i, j int) bool { return fs.nodeOrder[i] < fs.nodeOrder[j] })
	return dn, nil
}

// DataNode returns the datanode with the given id.
func (fs *FileSystem) DataNode(id NodeID) (*DataNode, bool) {
	dn, ok := fs.nodes[id]
	return dn, ok
}

// Create writes a file of the given size, splitting it into blocks and
// placing replicas with the HDFS default policy: first replica on a random
// node (or the hinted writer), second on a node in a different rack, third
// on another node in the second replica's rack.
func (fs *FileSystem) Create(path string, size int64, writerHint NodeID) ([]BlockLocation, error) {
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("hdfs: file %q exists", path)
	}
	if size <= 0 {
		return nil, fmt.Errorf("hdfs: file size %d must be positive", size)
	}
	if len(fs.nodes) == 0 {
		return nil, fmt.Errorf("hdfs: no datanodes")
	}
	var ids []BlockID
	var locs []BlockLocation
	for off := int64(0); off < size; off += fs.cfg.BlockSize {
		bsize := fs.cfg.BlockSize
		if off+bsize > size {
			bsize = size - off
		}
		replicas := fs.placeReplicas(writerHint)
		id := fs.nextBlock
		fs.nextBlock++
		fs.blocks[id] = &blockMeta{size: bsize, replicas: replicas}
		for _, nid := range replicas {
			fs.nodes[nid].blocks[id] = bsize
		}
		ids = append(ids, id)
		locs = append(locs, BlockLocation{Block: id, Size: bsize, Replicas: replicas})
	}
	fs.files[path] = ids
	return locs, nil
}

// placeReplicas implements the default placement policy.
func (fs *FileSystem) placeReplicas(writerHint NodeID) []NodeID {
	want := fs.cfg.Replication
	if want > len(fs.nodeOrder) {
		want = len(fs.nodeOrder)
	}
	// chosen escapes into the block metadata, so it is freshly allocated;
	// it doubles as the "already used" set (membership is a short scan).
	chosen := make([]NodeID, 0, want)
	pick := func(pred func(*DataNode) bool) bool {
		// Collect candidates deterministically, then pick one at random.
		cands := fs.candScratch[:0]
		for _, id := range fs.nodeOrder {
			if !slices.Contains(chosen, id) && (pred == nil || pred(fs.nodes[id])) {
				cands = append(cands, id)
			}
		}
		fs.candScratch = cands
		if len(cands) == 0 {
			return false
		}
		chosen = append(chosen, cands[fs.rng.Intn(len(cands))])
		return true
	}
	// First replica: the writer if known, else random.
	if writerHint != "" {
		if _, ok := fs.nodes[writerHint]; ok {
			chosen = append(chosen, writerHint)
		}
	}
	if len(chosen) == 0 {
		pick(nil)
	}
	firstRack := fs.nodes[chosen[0]].rack
	// Second replica: different rack if possible.
	if len(chosen) < want {
		if !pick(func(dn *DataNode) bool { return dn.rack != firstRack }) {
			pick(nil)
		}
	}
	// Third replica: same rack as the second, different node.
	if len(chosen) < want && len(chosen) >= 2 {
		secondRack := fs.nodes[chosen[1]].rack
		if !pick(func(dn *DataNode) bool { return dn.rack == secondRack }) {
			pick(nil)
		}
	}
	for len(chosen) < want {
		if !pick(nil) {
			break
		}
	}
	return chosen
}

// Blocks returns the block locations of a file.
func (fs *FileSystem) Blocks(path string) ([]BlockLocation, error) {
	ids, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", path)
	}
	locs := make([]BlockLocation, 0, len(ids))
	for _, id := range ids {
		meta := fs.blocks[id]
		locs = append(locs, BlockLocation{
			Block:    id,
			Size:     meta.size,
			Replicas: append([]NodeID(nil), meta.replicas...),
		})
	}
	return locs, nil
}

// BlocksInto appends the block locations of a file to dst and returns the
// extended slice. Unlike Blocks, the Replicas slices alias the filesystem's
// internal replica lists and must be treated as read-only.
func (fs *FileSystem) BlocksInto(path string, dst []BlockLocation) ([]BlockLocation, error) {
	ids, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", path)
	}
	for _, id := range ids {
		meta := fs.blocks[id]
		dst = append(dst, BlockLocation{
			Block:    id,
			Size:     meta.size,
			Replicas: meta.replicas,
		})
	}
	return dst, nil
}

// Locality reports the best locality level a reader on the given node can
// achieve for the block.
func (fs *FileSystem) Locality(reader NodeID, block BlockID) (Locality, error) {
	meta, ok := fs.blocks[block]
	if !ok {
		return 0, fmt.Errorf("hdfs: no such block %d", block)
	}
	readerRack := ""
	if dn, ok := fs.nodes[reader]; ok {
		readerRack = dn.rack
	}
	best := OffRack
	for _, nid := range meta.replicas {
		if nid == reader {
			return NodeLocal, nil
		}
		if readerRack != "" && fs.nodes[nid].rack == readerRack {
			best = RackLocal
		}
	}
	return best, nil
}

// BlockReader streams one block to one reading node. Open resolves
// everything a read needs once: the block size, the serving replica,
// its disk, the reading node's memory and the locality. A map attempt
// opens its input block at launch and reads it chunk by chunk, so each
// Read is a disk submission, a network bound and a cache fill with no
// lookup. The zero BlockReader fails every Read.
type BlockReader struct {
	eng    *sim.Engine
	size   int64
	loc    Locality
	server *disk.Device    // disk of the serving replica's DataNode
	cache  *memory.Manager // reading node's memory, nil if not modelled
	netBW  float64         // network bandwidth of a non-local read, 0 if node-local
}

// errNotOpen is what the zero BlockReader's Read returns.
var errNotOpen = errors.New("hdfs: read from an unopened block")

// Open returns a reader of block for the given node, served by the
// closest replica. The reader holds what Open resolved, so Delete does
// not invalidate it: a reader opened before the block's file is deleted
// keeps reading from the replica it chose.
func (fs *FileSystem) Open(reader NodeID, block BlockID) (BlockReader, error) {
	meta, ok := fs.blocks[block]
	if !ok {
		return BlockReader{}, fmt.Errorf("hdfs: no such block %d", block)
	}
	server, loc := fs.chooseReplica(reader, meta)
	r := BlockReader{eng: fs.eng, size: meta.size, loc: loc, server: fs.nodes[server].device}
	switch loc {
	case RackLocal:
		r.netBW = fs.cfg.RackLocalBandwidth
	case OffRack:
		r.netBW = fs.cfg.OffRackBandwidth
	}
	if dn, ok := fs.nodes[reader]; ok {
		r.cache = dn.mem
	}
	return r, nil
}

// Locality returns the locality level of the replica the reader reads.
func (r *BlockReader) Locality() Locality { return r.loc }

// Read simulates reading [offset, offset+length) of the block. It returns
// the absolute virtual time at which the data is available. The serving
// disk is occupied for the transfer; non-local reads are additionally
// bounded by network bandwidth. The reading node's page cache absorbs the
// data.
func (r *BlockReader) Read(offset, length int64, stream disk.StreamID) (time.Duration, error) {
	if r.server == nil {
		return 0, errNotOpen
	}
	if offset < 0 || length < 0 || offset+length > r.size {
		return 0, fmt.Errorf("hdfs: read [%d,%d) outside block of %d bytes", offset, offset+length, r.size)
	}
	done := r.server.Submit(disk.Read, length, stream)
	// Non-local reads stream over the network; the slower of disk and
	// network dominates, so extend the completion time if the network is
	// the bottleneck.
	if r.netBW > 0 {
		netTime := time.Duration(float64(length) / r.netBW * float64(time.Second))
		if start := r.eng.Now(); start+netTime > done {
			done = start + netTime
		}
	}
	// The reader's page cache absorbs the streamed data (clean pages,
	// reclaimed first under pressure).
	if r.cache != nil {
		r.cache.CacheFill(length)
	}
	return done, nil
}

// chooseReplica picks the closest replica for the reader: its own, else
// the first in its rack, else the first listed.
func (fs *FileSystem) chooseReplica(reader NodeID, meta *blockMeta) (NodeID, Locality) {
	readerRack := ""
	if dn, ok := fs.nodes[reader]; ok {
		readerRack = dn.rack
	}
	var rackChoice NodeID
	for _, nid := range meta.replicas {
		if nid == reader {
			return nid, NodeLocal
		}
		if rackChoice == "" && readerRack != "" && fs.nodes[nid].rack == readerRack {
			rackChoice = nid
		}
	}
	if rackChoice != "" {
		return rackChoice, RackLocal
	}
	return meta.replicas[0], OffRack
}

// Delete removes a file and its blocks.
func (fs *FileSystem) Delete(path string) error {
	ids, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("hdfs: no such file %q", path)
	}
	for _, id := range ids {
		meta := fs.blocks[id]
		for _, nid := range meta.replicas {
			delete(fs.nodes[nid].blocks, id)
		}
		delete(fs.blocks, id)
	}
	delete(fs.files, path)
	return nil
}

// Exists reports whether a file exists.
func (fs *FileSystem) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}
