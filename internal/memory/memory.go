// Package memory implements the simulated operating-system memory manager.
//
// It models the mechanisms §III-A of the paper relies on:
//
//   - physical RAM is divided into page frames shared by the file-system
//     cache and anonymous (runtime) memory of processes;
//   - with swappiness 0 (the recommended Hadoop configuration) the cache is
//     always reclaimed before anonymous pages;
//   - anonymous pages are evicted with an approximate LRU (a clock /
//     second-chance algorithm) and written to the swap area only when
//     dirty; clean pages are dropped for free;
//   - page-out is clustered: reclaim frees a batch of pages per scan, which
//     over-evicts under pressure — the mechanism behind the superlinear
//     growth of swapped bytes in Figure 4;
//   - pages of stopped (suspended) processes lose their referenced bits,
//     so they are evicted before pages of running processes.
//
// Fault service time is charged to the faulting process: page-out of dirty
// victims and page-in of swapped pages are submitted to the swap device and
// the resulting latency is returned by Touch.
//
// # Run-based accounting
//
// The manager keeps no per-page or per-frame tables. Contiguous pages in
// the same state, referenced bit included, collapse into runs and
// contiguous frames with the same owner collapse into extents, so
// touching a 2 GB region, clearing the referenced bits of a suspended
// process, or sweeping the reclaim clock all cost O(state transitions)
// instead of O(pages). An edit covering a proper prefix or suffix of one
// extent (a prefix of one run) that continues the neighbour on that side
// grows the neighbour in place, so a fault or cache fill next to the
// last one inserts and deletes nothing. The semantics are bit-for-bit
// those of the per-page clock algorithm the runs replace (preserved as
// refManager in reference_test.go); the differential property test
// drives both through randomized scripts and asserts identical byte
// accounting.
//
// # Frame order on demand
//
// Only the reclaim clock needs frames in physical order: it sweeps them
// by index, sparing referenced pages and evicting the others. Faults,
// cache fills and drops, stops and exits need only the free stack, the
// cache stack and the page runs, which carry the referenced bits. So the
// frame-extent list starts empty: reclaim builds it from the stacks and
// the resident runs when it first reaches the clock, and every edit
// maintains it from then on, for the rest of the manager's life. A node
// that never pages its anonymous memory, as almost every node of a trace
// replay, never builds it. The clock decides frame by frame, so any list
// describing the same frames gives the same evictions in the same order;
// the maintained list is in fact the canonical one, maximal extents in
// frame order, which checkInvariants verifies against a fresh build.
package memory

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

// PID identifies a process address space. The memory manager treats it as
// an opaque key.
type PID int

// cacheOwner marks frames belonging to the file-system cache.
const cacheOwner PID = -1

// ErrOutOfMemory is returned by Touch when no frame can be reclaimed: the
// cache is empty, every anonymous page is pinned by running processes, and
// the swap area is full. The OS would invoke the OOM killer at this point.
var ErrOutOfMemory = errors.New("memory: out of memory (swap full, nothing reclaimable)")

// Config describes the physical memory of a node.
type Config struct {
	// PageSize is the reclaim granularity in bytes, a power of two. Real
	// kernels use 4KiB pages but reclaim in larger batches; simulating at
	// a coarser granularity keeps frame counts manageable without
	// changing byte accounting.
	PageSize int64
	// RAMBytes is total physical memory.
	RAMBytes int64
	// ReservedBytes is pinned kernel/framework memory, never reclaimable.
	ReservedBytes int64
	// InitialCacheBytes is the starting size of the file-system cache.
	InitialCacheBytes int64
	// SwapBytes is the capacity of the swap area.
	SwapBytes int64
	// Swappiness in [0,100]. At 0 the cache is always reclaimed first, as
	// Hadoop best practice configures (§IV-A). Values above 0 let the
	// clock evict anonymous pages while cache remains, proportionally.
	Swappiness int
	// PageClusterPages is the reclaim batch size: one reclaim scan frees
	// up to this many frames and one swap write covers up to this many
	// dirty pages. Mirrors vm.page-cluster / kswapd batching.
	PageClusterPages int
	// MinorFaultCost is the CPU cost of servicing a fault that does not
	// touch the disk (zero-fill or soft fault).
	MinorFaultCost time.Duration
}

// DefaultConfig returns the 4 GB node used throughout the paper's
// evaluation: 240 MB reserved for OS + Hadoop daemons, 256 MB of initial
// cache, 8 GB of swap, swappiness 0.
func DefaultConfig() Config {
	return Config{
		PageSize:          256 << 10,
		RAMBytes:          4 << 30,
		ReservedBytes:     240 << 20,
		InitialCacheBytes: 256 << 20,
		SwapBytes:         8 << 30,
		Swappiness:        0,
		PageClusterPages:  32,
		MinorFaultCost:    2 * time.Microsecond,
	}
}

// Stats aggregates manager-wide activity.
type Stats struct {
	MinorFaults     int64
	MajorFaults     int64
	PagedOutBytes   int64
	PagedInBytes    int64
	CacheDropBytes  int64
	CacheFillBytes  int64
	ReclaimScans    int64
	OOMKills        int64
	SecondChanceHit int64 // referenced frames spared by the clock
}

// SpaceStats reports per-process paging activity, the quantity Figure 4
// plots for tl.
type SpaceStats struct {
	ResidentBytes int64
	SwappedBytes  int64
	PagedOutBytes int64
	PagedInBytes  int64
	MajorFaults   int64
	MinorFaults   int64
}

type pageState uint8

const (
	pageUntouched pageState = iota
	pageResident
	pageSwapped
)

// pageRun is a maximal interval of pages in one uniform state. Resident
// runs additionally map to a contiguous frame interval: page start+i lives
// in frame frame+fdir*i (fdir is -1 when frames were handed out from the
// free stack in descending order).
type pageRun struct {
	start int32
	n     int32
	state pageState
	dirty bool  // modified since last write to swap (resident only)
	slot  bool  // has a valid copy in swap
	ref   bool  // referenced bit of the pages' frames (resident only)
	frame int32 // frame of page `start` (resident only)
	fdir  int8  // frame stride per page: +1 or -1 (resident only)
}

func (r pageRun) end() int32 { return r.start + r.n }

// frameLo and frameHi bound the frame interval of a resident run as
// [frameLo, frameHi).
func (r pageRun) frameLo() int32 {
	if r.fdir >= 0 {
		return r.frame
	}
	return r.frame - (r.n - 1)
}

func (r pageRun) frameHi() int32 { return r.frameLo() + r.n }

// Space is a process address space registered with the manager.
type Space struct {
	pid      PID
	npages   int
	runs     []pageRun
	resident int
	swapped  int
	stopped  bool
	// hint is runIdx's last result, an index that may be out of date;
	// runIdx checks it before using it.
	hint     int
	stats    SpaceStats
	pageSize int64
}

// PID returns the owning process ID.
func (s *Space) PID() PID { return s.pid }

// SizeBytes returns the address-space size.
func (s *Space) SizeBytes() int64 { return int64(s.npages) * s.pageSize }

// Stats returns a snapshot of per-space paging counters.
func (s *Space) Stats() SpaceStats {
	st := s.stats
	st.ResidentBytes = int64(s.resident) * s.pageSize
	st.SwappedBytes = int64(s.swapped) * s.pageSize
	return st
}

// extKind classifies a frame extent.
type extKind uint8

const (
	extFree extKind = iota
	extCache
	extAnon
)

// frameExt is a maximal interval of frames with uniform owner.
// Anonymous extents map back to pages: frame start+i holds page
// page+pdir*i of owner.
type frameExt struct {
	start int32
	n     int32
	kind  extKind
	owner PID   // anon only
	page  int32 // page held by frame `start` (anon only)
	pdir  int8  // page stride per frame: +1 or -1 (anon only)
}

func (e frameExt) end() int32 { return e.start + e.n }

// pageAt returns the page held by frame f (anon extents).
func (e frameExt) pageAt(f int32) int32 {
	return e.page + int32(e.pdir)*(f-e.start)
}

// pagesAt returns the interval [lo, hi) of pages held by the c frames
// from f (anon extents).
func (e frameExt) pagesAt(f, c int32) (lo, hi int32) {
	lo = e.pageAt(f)
	if e.pdir >= 0 {
		return lo, lo + c
	}
	return lo - (c - 1), lo + 1
}

// stackExt is a run of frames on a LIFO stack, recorded in push order:
// pushes were first, first+dir, ..., first+dir*(n-1); pops return them in
// reverse. It compresses the per-frame free list and cache stack of the
// per-page model without changing pop order.
type stackExt struct {
	first int32
	n     int32
	dir   int8
}

// Manager is the per-node memory manager.
type Manager struct {
	eng  *sim.Engine
	swap *disk.Device
	cfg  Config

	nframes   int
	pageShift uint8 // log2(cfg.PageSize): byte offsets to pages
	// exts is empty until reclaim first reaches the clock (buildExts);
	// from then on it holds sorted extents covering [0, nframes).
	exts       extList
	freeStack  []stackExt
	freeFrames int
	cacheStack []stackExt
	cachePages int
	clockHand  int
	spaces     map[PID]*Space
	// dense is a slice fast path over spaces for small non-negative pids
	// (the OS hands them out sequentially); eviction resolves extent
	// owners through it instead of hashing.
	dense []*Space
	// spaceFree recycles Space shells across Register/Unregister so the
	// run list capacity survives process churn within a cell.
	spaceFree []*Space
	swapUsed  int64 // bytes of swap occupied by valid slots
	stats     Stats

	swapOutStream disk.StreamID
	swapInStream  disk.StreamID

	// onOOM, if set, is invoked when reclaim fails entirely. The kernel
	// layer uses it to kill a victim process.
	onOOM func()

	// swapEvents is a ring of recent swap-traffic samples used by the
	// thrashing detector (§III-A).
	swapEvents []swapEvent
	swapHead   int
}

// swapEvent is one timestamped swap transfer.
type swapEvent struct {
	at    time.Duration
	bytes int64
}

// swapEventRing bounds the thrashing detector's memory.
const swapEventRing = 512

// New creates a manager backed by the given swap device. The swap device
// may be shared with other consumers (it typically is the node's only
// disk). Managers are drawn from a recycling pool; call Release when the
// simulation cell is torn down to reuse the internal buffers.
func New(eng *sim.Engine, swap *disk.Device, cfg Config) (*Manager, error) {
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("memory: page size %d must be a positive power of two", cfg.PageSize)
	}
	if cfg.RAMBytes <= cfg.ReservedBytes {
		return nil, fmt.Errorf("memory: RAM %d must exceed reserved %d", cfg.RAMBytes, cfg.ReservedBytes)
	}
	if cfg.Swappiness < 0 || cfg.Swappiness > 100 {
		return nil, fmt.Errorf("memory: swappiness %d out of [0,100]", cfg.Swappiness)
	}
	if cfg.PageClusterPages <= 0 {
		cfg.PageClusterPages = 1
	}
	shift := uint8(bits.TrailingZeros64(uint64(cfg.PageSize)))
	usable := (cfg.RAMBytes - cfg.ReservedBytes) >> shift
	if usable <= 0 {
		return nil, fmt.Errorf("memory: no usable frames")
	}
	if usable > 1<<31-1 {
		return nil, fmt.Errorf("memory: %d frames exceed the supported maximum", usable)
	}
	m := getManager()
	m.eng = eng
	m.swap = swap
	m.cfg = cfg
	m.pageShift = shift
	m.nframes = int(usable)
	// The free list is seeded high-to-low so frames are handed out in
	// ascending index order, like the per-page model's initial stack.
	m.freeStack = append(m.freeStack, stackExt{first: int32(usable) - 1, n: int32(usable), dir: -1})
	m.freeFrames = int(usable)
	m.swapOutStream = disk.StreamID(0x5157_4f55) // distinct stream tags for
	m.swapInStream = disk.StreamID(0x5157_494e)  // swap write and read runs
	cachePages := int(cfg.InitialCacheBytes >> shift)
	if cachePages > m.nframes {
		cachePages = m.nframes
	}
	m.growCache(cachePages)
	return m, nil
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a snapshot of manager-wide counters.
func (m *Manager) Stats() Stats { return m.stats }

// SetOOMHandler registers fn to be called when reclaim fails entirely.
func (m *Manager) SetOOMHandler(fn func()) { m.onOOM = fn }

// FreeBytes reports unallocated physical memory (free frames).
func (m *Manager) FreeBytes() int64 { return int64(m.freeFrames) * m.cfg.PageSize }

// CacheBytes reports the current size of the file-system cache.
func (m *Manager) CacheBytes() int64 { return int64(m.cachePages) * m.cfg.PageSize }

// SwapUsedBytes reports occupied swap capacity.
func (m *Manager) SwapUsedBytes() int64 { return m.swapUsed }

// SwapFreeBytes reports remaining swap capacity.
func (m *Manager) SwapFreeBytes() int64 { return m.cfg.SwapBytes - m.swapUsed }

// Register creates an address space of the given size for pid. The memory
// is untouched: frames are allocated lazily on first access, as with mmap'd
// anonymous memory.
func (m *Manager) Register(pid PID, bytes int64) (*Space, error) {
	if _, ok := m.spaces[pid]; ok {
		return nil, fmt.Errorf("memory: pid %d already registered", pid)
	}
	if bytes < 0 {
		return nil, fmt.Errorf("memory: negative space size %d", bytes)
	}
	npages := int((bytes + m.cfg.PageSize - 1) >> m.pageShift)
	if npages > 1<<31-1 {
		return nil, fmt.Errorf("memory: space of %d pages exceeds the supported maximum", npages)
	}
	var s *Space
	if n := len(m.spaceFree); n > 0 {
		s = m.spaceFree[n-1]
		m.spaceFree = m.spaceFree[:n-1]
		*s = Space{runs: s.runs[:0]}
	} else {
		s = &Space{}
	}
	s.pid = pid
	s.npages = npages
	s.pageSize = m.cfg.PageSize
	if npages > 0 {
		s.runs = append(s.runs, pageRun{start: 0, n: int32(npages), state: pageUntouched})
	}
	m.spaces[pid] = s
	if pid >= 0 && pid < denseMax {
		for int(pid) >= len(m.dense) {
			m.dense = append(m.dense, nil)
		}
		m.dense[pid] = s
	}
	return s, nil
}

// Unregister releases all frames and swap slots of pid. It is a no-op for
// unknown pids (e.g. a process that never registered memory).
func (m *Manager) Unregister(pid PID) {
	s, ok := m.spaces[pid]
	if !ok {
		return
	}
	if pid >= 0 && int(pid) < len(m.dense) {
		m.dense[pid] = nil
	}
	lo, hi := int32(m.nframes), int32(0)
	for _, r := range s.runs {
		if r.state == pageResident {
			// The per-page model releases frames in page order; mirror
			// the resulting free-stack layout.
			m.pushFree(r.frame, r.n, r.fdir)
			lo, hi = min(lo, r.frameLo()), max(hi, r.frameHi())
		}
		if r.slot {
			m.swapUsed -= int64(r.n) * m.cfg.PageSize
		}
	}
	if lo < hi && m.exts.len() > 0 {
		m.exts.freeOwner(pid, lo, hi)
	}
	s.runs = s.runs[:0]
	s.resident, s.swapped = 0, 0
	m.spaceFree = append(m.spaceFree, s)
	delete(m.spaces, pid)
}

// Space returns the address space of pid, or nil if not registered.
func (m *Manager) Space(pid PID) *Space { return m.space(pid) }

// denseMax bounds the dense pid fast path; larger pids fall back to the map.
const denseMax = 1 << 13

// space resolves pid without hashing when it is small and non-negative.
func (m *Manager) space(pid PID) *Space {
	if pid >= 0 && int(pid) < len(m.dense) {
		return m.dense[pid]
	}
	return m.spaces[pid]
}

// MarkStopped records that pid has been stopped (SIGTSTP/SIGSTOP). The
// referenced bits of its resident pages are cleared, making them the
// clock's preferred victims — the property §III-A highlights: "pages from
// suspended processes are evicted before those from running ones".
func (m *Manager) MarkStopped(pid PID) {
	s, ok := m.spaces[pid]
	if !ok {
		return
	}
	s.stopped = true
	for i := range s.runs {
		s.runs[i].ref = false
	}
	// Runs that differed only in their bits are one run now.
	s.coalesceRuns(0, len(s.runs)-1)
}

// MarkRunning clears the stopped flag set by MarkStopped.
func (m *Manager) MarkRunning(pid PID) {
	if s, ok := m.spaces[pid]; ok {
		s.stopped = false
	}
}

// ResidentBytes reports the resident set size of pid.
func (m *Manager) ResidentBytes(pid PID) int64 {
	if s := m.space(pid); s != nil {
		return int64(s.resident) * m.cfg.PageSize
	}
	return 0
}

// SwappedBytes reports the amount of pid's memory currently in swap.
func (m *Manager) SwappedBytes(pid PID) int64 {
	if s := m.space(pid); s != nil {
		return int64(s.swapped) * m.cfg.PageSize
	}
	return 0
}

// CacheFill simulates the page cache absorbing freshly read file data. The
// cache grows into free frames only — it never reclaims anonymous memory
// for readahead (swappiness-0 behaviour); if no frames are free the data
// recycles the cache's own oldest pages, which changes nothing in our
// accounting.
func (m *Manager) CacheFill(bytes int64) {
	pages := min(int(bytes>>m.pageShift), m.freeFrames)
	if pages <= 0 {
		return
	}
	m.growCache(pages)
	m.stats.CacheFillBytes += int64(pages) * m.cfg.PageSize
}

// growCache moves n free frames to the cache, preserving the pop/push
// order of the per-page model.
func (m *Manager) growCache(n int) {
	for n > 0 {
		first, dir, c := m.popFree(int32(n))
		if m.exts.len() > 0 {
			lo, hi := chunkBounds(first, dir, c)
			m.replaceExts(lo, hi, frameExt{start: lo, n: c, kind: extCache})
		}
		pushStack(&m.cacheStack, first, c, dir)
		m.cachePages += int(c)
		n -= int(c)
	}
}

// touchState carries the latency accounting of one Touch call.
type touchState struct {
	cpu       time.Duration
	deadline  time.Duration
	pendingIn int
}

// flushIn submits the pending clustered swap read (swap readahead).
func (m *Manager) flushIn(t *touchState, s *Space) {
	if t.pendingIn == 0 {
		return
	}
	bytes := int64(t.pendingIn) * m.cfg.PageSize
	done := m.swap.Submit(disk.Read, bytes, m.swapInStream)
	if done > t.deadline {
		t.deadline = done
	}
	m.stats.PagedInBytes += bytes
	s.stats.PagedInBytes += bytes
	m.noteSwapTraffic(bytes)
	t.pendingIn = 0
}

// finishTouch converts the accumulated costs into the latency the
// faulting process must wait for.
func (m *Manager) finishTouch(t *touchState) time.Duration {
	total := t.cpu
	if wait := t.deadline - m.eng.Now(); wait > 0 {
		total += wait
	}
	return total
}

// Touch simulates the process accessing [offset, offset+length) of its
// address space. It returns the fault-service latency the process must
// wait for (disk transfers for page-out of victims and page-in of its own
// swapped pages, plus minor-fault overhead). A write access dirties the
// pages. Touch returns ErrOutOfMemory when reclaim fails entirely.
func (m *Manager) Touch(pid PID, offset, length int64, write bool) (time.Duration, error) {
	s := m.space(pid)
	if s == nil {
		return 0, fmt.Errorf("memory: touch by unregistered pid %d", pid)
	}
	if length <= 0 {
		return 0, nil
	}
	first := offset >> m.pageShift
	last := (offset + length - 1) >> m.pageShift
	if offset < 0 || last >= int64(s.npages) {
		return 0, fmt.Errorf("memory: pid %d touch [%d,%d) outside %d-byte space",
			pid, offset, offset+length, s.SizeBytes())
	}
	// All swap traffic generated by this access (page-out of victims,
	// page-in of our own pages) queues on one device; the process waits
	// until the last transfer completes, so the disk portion of the
	// latency is a deadline (max completion time), not a sum of
	// queue-relative waits.
	var tc touchState
	// Walk the touched range run by run. The cursor is re-resolved after
	// every piece because faulting may reclaim — possibly from this very
	// space — and reshape the run list.
	pg := int32(first)
	end := int32(last) + 1
	for pg < end {
		r := s.runs[s.runIdx(pg)]
		pieceEnd := min(r.end(), end)
		n := pieceEnd - pg
		switch r.state {
		case pageResident:
			redirty := write && !r.dirty
			if redirty && r.slot {
				// Re-dirtied pages invalidate their swap copies (swap
				// cache behaviour).
				m.swapUsed -= int64(n) * m.cfg.PageSize
			}
			if redirty || !r.ref {
				nr := r
				nr.start, nr.n = pg, n
				nr.frame = r.frame + int32(r.fdir)*(pg-r.start)
				nr.ref = true
				if redirty {
					nr.dirty, nr.slot = true, false
				}
				s.replaceRuns(pg, pieceEnd, nr)
			}
			pg = pieceEnd
		case pageUntouched:
			for pg < pieceEnd {
				c, err := m.faultChunk(s, &tc, pg, pieceEnd-pg, write, false)
				if err != nil {
					m.flushIn(&tc, s)
					return m.finishTouch(&tc), err
				}
				pg += c
			}
		case pageSwapped:
			for pg < pieceEnd {
				want := min(pieceEnd-pg, int32(m.cfg.PageClusterPages-tc.pendingIn))
				c, err := m.faultChunk(s, &tc, pg, want, write, true)
				if err != nil {
					m.flushIn(&tc, s)
					return m.finishTouch(&tc), err
				}
				pg += c
				tc.pendingIn += int(c)
				if tc.pendingIn >= m.cfg.PageClusterPages {
					m.flushIn(&tc, s)
				}
			}
		}
	}
	m.flushIn(&tc, s)
	return m.finishTouch(&tc), nil
}

// Untouched reports how many pages of pid's [offset, offset+length) a Touch
// would fault in from nothing: pages never touched or dropped clean. Each
// costs MinorFaultCost and a free frame. It reports false instead where
// the range holds a swapped page, lies outside the space or pid has none:
// a Touch there would read swap or fail. It changes nothing.
func (m *Manager) Untouched(pid PID, offset, length int64) (int, bool) {
	s := m.space(pid)
	if s == nil {
		return 0, false
	}
	if length <= 0 {
		return 0, true
	}
	first := offset >> m.pageShift
	last := (offset + length - 1) >> m.pageShift
	if offset < 0 || last >= int64(s.npages) {
		return 0, false
	}
	n := 0
	for pg, end := int32(first), int32(last)+1; pg < end; {
		r := &s.runs[s.runIdx(pg)]
		pieceEnd := min(r.end(), end)
		switch r.state {
		case pageSwapped:
			return 0, false
		case pageUntouched:
			n += int(pieceEnd - pg)
		}
		pg = pieceEnd
	}
	return n, true
}

// faultChunk faults up to maxPages pages of s starting at pg into freshly
// allocated frames, reclaiming first if none are free — exactly the
// per-page fault loop, batched. It returns the number of pages faulted
// (bounded by the contiguous frames available on top of the free stack).
func (m *Manager) faultChunk(s *Space, tc *touchState, pg, maxPages int32, write, fromSwap bool) (int32, error) {
	if m.freeFrames == 0 {
		deadline := m.reclaim()
		if deadline > tc.deadline {
			tc.deadline = deadline
		}
		if m.freeFrames == 0 {
			m.stats.OOMKills++
			if m.onOOM != nil {
				m.onOOM()
			}
			// The OOM killer may have picked the toucher itself: its
			// space is gone, and so is the touch.
			if m.freeFrames == 0 || m.space(s.pid) != s {
				return 0, ErrOutOfMemory
			}
		}
	}
	first, dir, c := m.popFree(maxPages)
	if m.exts.len() > 0 {
		lo, hi := chunkBounds(first, dir, c)
		ext := frameExt{start: lo, n: c, kind: extAnon, owner: s.pid, pdir: dir}
		if dir >= 0 {
			ext.page = pg
		} else {
			ext.page = pg + c - 1
		}
		m.replaceExts(lo, hi, ext)
	}
	nr := pageRun{start: pg, n: c, state: pageResident, frame: first, fdir: dir, dirty: write, ref: true}
	if fromSwap {
		s.swapped -= int(c)
		s.stats.MajorFaults += int64(c)
		m.stats.MajorFaults += int64(c)
		// The swap slot remains valid until the page is dirtied again
		// (swap cache behaviour); a write drops it.
		if write {
			m.swapUsed -= int64(c) * m.cfg.PageSize
		} else {
			nr.slot = true
		}
	} else {
		s.stats.MinorFaults += int64(c)
		m.stats.MinorFaults += int64(c)
	}
	s.replaceRuns(pg, pg+c, nr)
	s.resident += int(c)
	tc.cpu += time.Duration(c) * m.cfg.MinorFaultCost
	return c, nil
}

// reclaim frees up to PageClusterPages frames: first from the cache
// (swappiness 0), then by running the clock over anonymous frames. Dirty
// victims are written to swap in one clustered request; its absolute
// completion time is returned so the faulting process can wait for it.
func (m *Manager) reclaim() time.Duration {
	m.stats.ReclaimScans++
	want := m.cfg.PageClusterPages
	freed := 0

	// Phase 1: drop file-system cache. With swappiness 0 this always runs
	// first; with higher swappiness a fraction of the batch is taken from
	// anonymous memory below.
	cacheShare := want
	if m.cfg.Swappiness > 0 {
		cacheShare = want * (100 - m.cfg.Swappiness) / 100
	}
	for freed < cacheShare && m.cachePages > 0 {
		first, dir, c := popStack(&m.cacheStack, int32(cacheShare-freed))
		if m.exts.len() > 0 {
			lo, hi := chunkBounds(first, dir, c)
			m.freeFrameRange(lo, hi)
		}
		m.pushFree(first, c, dir)
		m.cachePages -= int(c)
		m.stats.CacheDropBytes += int64(c) * m.cfg.PageSize
		freed += int(c)
	}
	if freed >= want {
		return 0
	}

	// Phase 2: clock (second chance) over anonymous frames, extent by
	// extent, in the frame order the first visit builds. Each reclaim
	// pass may sweep the frame space at most twice: one lap to clear
	// referenced bits, one to collect victims.
	if m.exts.len() == 0 {
		m.buildExts()
	}
	dirtyVictims := 0
	budget := 2 * m.nframes
	scanned := 0
	for scanned < budget && freed < want {
		hand := int32(m.clockHand)
		e := *m.exts.at(m.extIdx(hand))
		// Free and cache frames are skipped, one scan step each.
		step := min(int(e.end()-hand), budget-scanned)
		if e.kind == extAnon {
			step = m.evictAt(e, hand, step, want, &freed, &dirtyVictims)
		}
		scanned += step
		m.advanceHand(step)
	}

	var deadline time.Duration
	if dirtyVictims > 0 {
		bytes := int64(dirtyVictims) * m.cfg.PageSize
		deadline = m.swap.Submit(disk.Write, bytes, m.swapOutStream)
		m.noteSwapTraffic(bytes)
	}
	return deadline
}

// evictAt processes the piece of anonymous extent e from the clock hand
// that lies in one page run and within limit frames: referenced pages
// lose their bit (their second chance), unreferenced ones are evicted up
// to the batch. It returns how many frames the hand advanced (spared,
// evicted or skipped).
func (m *Manager) evictAt(e frameExt, hand int32, limit, want int, freed, dirtyVictims *int) int {
	pg := e.pageAt(hand)
	s := m.space(e.owner)
	r := s.runs[s.runIdx(pg)]
	// Pages of this extent are visited in frame order; with pdir -1 that
	// walks the run towards lower pages.
	var inRun int32
	if e.pdir >= 0 {
		inRun = r.end() - pg
	} else {
		inRun = pg - r.start + 1
	}
	k := min(int32(limit), inRun)
	if r.ref {
		lo, hi := e.pagesAt(hand, k)
		nr := r
		nr.start, nr.n = lo, k
		nr.frame = r.frame + int32(r.fdir)*(lo-r.start)
		nr.ref = false
		s.replaceRuns(lo, hi, nr)
		m.stats.SecondChanceHit += int64(k)
		return int(k)
	}
	if r.dirty {
		avail := (m.cfg.SwapBytes - m.swapUsed) >> m.pageShift
		if avail <= 0 {
			// Swap full: dirty pages cannot be evicted; the clock skips
			// them and keeps looking for clean ones.
			return int(k)
		}
		if avail > int64(k) {
			avail = int64(k)
		}
		c := min(k, int32(avail), int32(want-*freed))
		m.swapUsed += int64(c) * m.cfg.PageSize
		m.stats.PagedOutBytes += int64(c) * m.cfg.PageSize
		s.stats.PagedOutBytes += int64(c) * m.cfg.PageSize
		*dirtyVictims += int(c)
		m.unmapPiece(s, e, hand, c, true)
		*freed += int(c)
		return int(c)
	}
	c := min(k, int32(want-*freed))
	m.unmapPiece(s, e, hand, c, r.slot)
	*freed += int(c)
	return int(c)
}

// unmapPiece evicts the c pages held by frames [hand, hand+c): the pages
// become swapped (slot-backed) or untouched, and the frames return to the
// free list in clock order.
func (m *Manager) unmapPiece(s *Space, e frameExt, hand, c int32, toSwap bool) {
	pLo, pHi := e.pagesAt(hand, c)
	nr := pageRun{start: pLo, n: c, state: pageUntouched}
	if toSwap {
		nr.state, nr.slot = pageSwapped, true
		s.swapped += int(c)
	}
	s.replaceRuns(pLo, pHi, nr)
	s.resident -= int(c)
	m.freeFrameRange(hand, hand+c)
	m.pushFree(hand, c, +1)
}

// advanceHand moves the clock hand forward with wrap-around.
func (m *Manager) advanceHand(step int) {
	m.clockHand += step
	if m.clockHand >= m.nframes {
		m.clockHand -= m.nframes
	}
}

// noteSwapTraffic records a swap transfer for the thrashing detector.
func (m *Manager) noteSwapTraffic(bytes int64) {
	ev := swapEvent{at: m.eng.Now(), bytes: bytes}
	if len(m.swapEvents) < swapEventRing {
		m.swapEvents = append(m.swapEvents, ev)
		return
	}
	m.swapEvents[m.swapHead] = ev
	m.swapHead = (m.swapHead + 1) % swapEventRing
}

// SwapRate reports swap traffic (page-in + page-out bytes per second)
// over the trailing window.
func (m *Manager) SwapRate(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	cutoff := m.eng.Now() - window
	var total int64
	for _, ev := range m.swapEvents {
		if ev.at >= cutoff {
			total += ev.bytes
		}
	}
	return float64(total) / window.Seconds()
}

// Thrashing reports whether swap traffic over the window exceeds the
// threshold — the continuous read-and-write-to-swap condition of §III-A
// (Denning's definition). A scheduler that keeps suspending and resuming
// the same job multiplies the suspend-resume cycle cost; this predicate
// lets it notice.
func (m *Manager) Thrashing(window time.Duration, thresholdBytesPerSec float64) bool {
	return m.SwapRate(window) > thresholdBytesPerSec
}

// ---------------------------------------------------------------------------
// Free-list and cache stacks.

// pushStack pushes a run of frames (in the given stride order) onto a
// stack, extending the top extent when the push order continues it.
func pushStack(stack *[]stackExt, first, n int32, dir int8) {
	if n <= 0 {
		return
	}
	if len(*stack) > 0 {
		t := &(*stack)[len(*stack)-1]
		dirs := [2]int8{t.dir, t.dir}
		if t.n == 1 {
			dirs = [2]int8{1, -1}
		}
		for _, d := range dirs {
			if first != t.first+int32(d)*t.n {
				continue
			}
			if n > 1 && dir != d {
				continue
			}
			t.dir = d
			t.n += n
			return
		}
	}
	*stack = append(*stack, stackExt{first: first, n: n, dir: dir})
}

// popStack pops up to maxN frames off the top extent. It returns the first
// popped frame, the stride of subsequent pops, and the count.
func popStack(stack *[]stackExt, maxN int32) (first int32, dir int8, n int32) {
	t := &(*stack)[len(*stack)-1]
	n = min(maxN, t.n)
	if t.dir >= 0 {
		first, dir = t.first+t.n-1, -1
	} else {
		first, dir = t.first-(t.n-1), +1
	}
	t.n -= n
	if t.n == 0 {
		*stack = (*stack)[:len(*stack)-1]
	}
	return first, dir, n
}

// pushFree returns frames to the free list in the given push order.
func (m *Manager) pushFree(first, n int32, dir int8) {
	pushStack(&m.freeStack, first, n, dir)
	m.freeFrames += int(n)
}

// popFree takes up to maxN frames from the free list. Caller must know
// frames are free.
func (m *Manager) popFree(maxN int32) (first int32, dir int8, n int32) {
	first, dir, n = popStack(&m.freeStack, maxN)
	m.freeFrames -= int(n)
	return first, dir, n
}

// chunkBounds converts a (first, stride, count) frame walk to its covered
// interval [lo, hi).
func chunkBounds(first int32, dir int8, n int32) (lo, hi int32) {
	if dir >= 0 {
		return first, first + n
	}
	return first - (n - 1), first + 1
}

// ---------------------------------------------------------------------------
// Frame-extent list surgery.

// extIdx returns the index of the extent containing frame f.
func (m *Manager) extIdx(f int32) int { return m.exts.search(f) }

// splitExtAt ensures an extent boundary exists at frame `at`, given the
// index i of the extent containing it. It returns the index of the extent
// that now starts at `at`.
func (m *Manager) splitExtAt(i int, at int32) int {
	e := m.exts.at(i)
	if e.start == at {
		return i
	}
	right := *e
	right.start = at
	right.n = e.end() - at
	if e.kind == extAnon {
		right.page = e.pageAt(at)
	}
	e.n = at - e.start
	m.exts.insert(i+1, right)
	return i + 1
}

// mergeExts tries to merge compatible adjacent extents and returns the
// merged extent and direction choice.
func canMergeExts(a, b frameExt) (int8, bool) {
	if a.kind != b.kind {
		return 0, false
	}
	if a.kind != extAnon {
		return 0, true
	}
	if a.owner != b.owner {
		return 0, false
	}
	for _, d := range [2]int8{1, -1} {
		if a.n > 1 && a.pdir != d {
			continue
		}
		if b.n > 1 && b.pdir != d {
			continue
		}
		if b.page == a.page+int32(d)*a.n {
			return d, true
		}
	}
	return 0, false
}

// coalesceExts merges mergeable neighbours in the bounded index window
// [from-1, to+1]; callers pass the indices their edit touched.
func (m *Manager) coalesceExts(from, to int) {
	i := max(from-1, 0)
	for i < m.exts.len()-1 && i <= to {
		d, ok := canMergeExts(*m.exts.at(i), *m.exts.at(i + 1))
		if !ok {
			i++
			continue
		}
		a := m.exts.at(i)
		a.n += m.exts.at(i + 1).n
		if a.kind == extAnon {
			a.pdir = d
		}
		m.exts.delete(i + 1)
		to--
	}
}

// replaceExts overwrites the extent coverage of [lo, hi) with ne.
func (m *Manager) replaceExts(lo, hi int32, ne frameExt) {
	i := m.extIdx(lo)
	// A fault or cache fill usually takes a proper prefix (or, off a
	// descending free stack, a suffix) of a free extent and continues the
	// neighbour on that side: grow the neighbour and shrink the extent,
	// which is what the split, overwrite and coalesce below would leave.
	if e := m.exts.at(i); e.kind != ne.kind {
		switch {
		case e.start == lo && hi < e.end() && i > 0:
			p := m.exts.at(i - 1)
			if d, ok := canMergeExts(*p, ne); ok {
				p.n += hi - lo
				if p.kind == extAnon {
					p.pdir = d
				}
				if e.kind == extAnon {
					e.page = e.pageAt(hi)
				}
				e.start, e.n = hi, e.end()-hi
				return
			}
		case e.start < lo && hi == e.end() && i+1 < m.exts.len():
			next := m.exts.at(i + 1)
			if d, ok := canMergeExts(ne, *next); ok {
				ne.n += next.n
				if ne.kind == extAnon {
					ne.pdir = d
				}
				*next = ne
				e.n = lo - e.start
				return
			}
		}
	}
	i = m.splitExtAt(i, lo)
	j := i
	for j < m.exts.len() && m.exts.at(j).start < hi {
		j++
	}
	if m.exts.at(j-1).end() > hi {
		m.splitExtAt(j-1, hi)
	}
	*m.exts.at(i) = ne
	for j > i+1 {
		j--
		m.exts.delete(j)
	}
	m.coalesceExts(i, i)
}

// freeFrameRange converts frames [lo, hi) to free extents (the free-stack
// entry is pushed separately by the caller, preserving push order).
func (m *Manager) freeFrameRange(lo, hi int32) {
	m.replaceExts(lo, hi, frameExt{start: lo, n: hi - lo, kind: extFree})
}

// buildExts builds the frame-extent list, which is empty until then,
// from the free stack, the cache stack and the resident runs.
func (m *Manager) buildExts() {
	m.exts.assign(m.frameExts(m.exts.buf[:0]))
}

// frameExts appends to dst the frame-extent list that the free stack,
// the cache stack and the resident runs describe: an entry for each
// stack entry and resident run, sorted by frame, with adjacent entries
// merged wherever canMergeExts allows.
func (m *Manager) frameExts(dst []frameExt) []frameExt {
	for _, st := range [2]struct {
		stack []stackExt
		kind  extKind
	}{{m.freeStack, extFree}, {m.cacheStack, extCache}} {
		for _, se := range st.stack {
			lo, hi := chunkBounds(se.first, se.dir, se.n)
			dst = append(dst, frameExt{start: lo, n: hi - lo, kind: st.kind})
		}
	}
	for pid, s := range m.spaces {
		for _, r := range s.runs {
			if r.state != pageResident {
				continue
			}
			e := frameExt{start: r.frameLo(), n: r.n, kind: extAnon, owner: pid, page: r.start, pdir: r.fdir}
			if r.fdir < 0 {
				e.page = r.end() - 1
			}
			dst = append(dst, e)
		}
	}
	slices.SortFunc(dst, func(a, b frameExt) int { return cmp.Compare(a.start, b.start) })
	// Only touching entries merge, so checkInvariants still sees a frame
	// that two entries describe.
	w := 0
	for _, e := range dst {
		if w > 0 && dst[w-1].end() == e.start {
			if d, ok := canMergeExts(dst[w-1], e); ok {
				dst[w-1].n += e.n
				if e.kind == extAnon {
					dst[w-1].pdir = d
				}
				continue
			}
		}
		dst[w] = e
		w++
	}
	return dst[:w]
}

// ---------------------------------------------------------------------------
// Page-run list surgery.

// runIdx returns the index of the run containing pg. It tries the last
// result and its successor before bisecting, since touches and faults
// walk a space's pages in order.
func (s *Space) runIdx(pg int32) int {
	if h := s.hint; h < len(s.runs) && s.runs[h].start <= pg {
		if pg < s.runs[h].end() {
			return h
		}
		// Runs cover the space without gaps, so run h+1 starts where
		// run h ends.
		if h+1 < len(s.runs) && pg < s.runs[h+1].end() {
			s.hint = h + 1
			return h + 1
		}
	}
	lo, hi := 0, len(s.runs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.runs[mid].start <= pg {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s.hint = lo
	return lo
}

// splitRunAt ensures a run boundary exists at page `at`, given the index
// i of the run containing it. It returns the index of the run that now
// starts at `at`.
func (s *Space) splitRunAt(i int, at int32) int {
	r := s.runs[i]
	if r.start == at {
		return i
	}
	right := r
	right.start = at
	right.n = r.end() - at
	if r.state == pageResident {
		right.frame = r.frame + int32(r.fdir)*(at-r.start)
	}
	s.runs[i].n = at - r.start
	s.runs = append(s.runs, pageRun{})
	copy(s.runs[i+2:], s.runs[i+1:])
	s.runs[i+1] = right
	return i + 1
}

// canMergeRuns reports whether two adjacent runs are one uniform state.
func canMergeRuns(a, b pageRun) (int8, bool) {
	if a.state != b.state {
		return 0, false
	}
	if a.state != pageResident {
		return 0, true
	}
	if a.dirty != b.dirty || a.slot != b.slot || a.ref != b.ref {
		return 0, false
	}
	for _, d := range [2]int8{1, -1} {
		if a.n > 1 && a.fdir != d {
			continue
		}
		if b.n > 1 && b.fdir != d {
			continue
		}
		if b.frame == a.frame+int32(d)*a.n {
			return d, true
		}
	}
	return 0, false
}

// coalesceRuns merges mergeable neighbours in the bounded index window
// [from-1, to+1].
func (s *Space) coalesceRuns(from, to int) {
	i := max(from-1, 0)
	for i < len(s.runs)-1 && i <= to {
		d, ok := canMergeRuns(s.runs[i], s.runs[i+1])
		if !ok {
			i++
			continue
		}
		s.runs[i].n += s.runs[i+1].n
		if s.runs[i].state == pageResident {
			s.runs[i].fdir = d
		}
		s.runs = append(s.runs[:i+1], s.runs[i+2:]...)
		to--
	}
}

// replaceRuns overwrites the run coverage of pages [lo, hi) with nr.
func (s *Space) replaceRuns(lo, hi int32, nr pageRun) {
	i := s.runIdx(lo)
	// A fault chunk usually takes a proper prefix of an untouched run and
	// continues the resident run before it: grow that run in place, as
	// replaceExts grows its neighbour.
	if r := &s.runs[i]; r.state != nr.state && r.start == lo && hi < r.end() && i > 0 {
		if d, ok := canMergeRuns(s.runs[i-1], nr); ok {
			p := &s.runs[i-1]
			p.n += hi - lo
			if p.state == pageResident {
				p.fdir = d
			}
			if r.state == pageResident {
				r.frame += int32(r.fdir) * (hi - lo)
			}
			r.start, r.n = hi, r.end()-hi
			return
		}
	}
	i = s.splitRunAt(i, lo)
	j := i
	for j < len(s.runs) && s.runs[j].start < hi {
		j++
	}
	if last := s.runs[j-1]; last.end() > hi {
		s.splitRunAt(j-1, hi)
	}
	s.runs[i] = nr
	if j > i+1 {
		s.runs = append(s.runs[:i+1], s.runs[j:]...)
	}
	s.coalesceRuns(i, i)
}

// ---------------------------------------------------------------------------
// Invariant checking (used by tests).

// Layout checks the manager's internal consistency, as checkInvariants
// does for this package's tests, and describes the state it holds: the
// free and cache stacks, the clock hand, the counters and every space's
// page runs, in pid order. Managers in the same state describe it alike,
// so the tests of the layers above compare a run against a reference this
// way. A one-page run's frame stride, which means nothing, is left out.
func (m *Manager) Layout() (string, error) {
	if err := m.checkInvariants(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "free %d %v cache %d %v hand %d swap %d %+v",
		m.freeFrames, m.freeStack, m.cachePages, m.cacheStack, m.clockHand, m.swapUsed, m.stats)
	for _, pid := range slices.Sorted(maps.Keys(m.spaces)) {
		s := m.spaces[pid]
		fmt.Fprintf(&b, "\npid %d stopped %v %+v:", pid, s.stopped, s.Stats())
		for _, r := range s.runs {
			if r.n == 1 {
				r.fdir = 0
			}
			fmt.Fprintf(&b, " %+v", r)
		}
	}
	return b.String(), nil
}

// checkInvariants validates internal consistency; used by tests. It
// builds the frame-extent list the stacks and runs describe into a list
// of its own, and leaves the manager's list as it finds it, built or not.
func (m *Manager) checkInvariants() error {
	// The frames the stacks and the resident runs describe: sorted,
	// non-empty extents exactly covering [0, nframes), so no frame is
	// described twice or not at all.
	built := m.frameExts(nil)
	var next int32
	var counts [extAnon + 1]int
	for i, e := range built {
		if e.n <= 0 {
			return fmt.Errorf("extent %d empty", i)
		}
		if e.start != next {
			return fmt.Errorf("extent %d starts at %d, want %d (gap or overlap)", i, e.start, next)
		}
		next = e.end()
		counts[e.kind] += int(e.n)
	}
	if next != int32(m.nframes) {
		return fmt.Errorf("extents cover %d frames, want %d", next, m.nframes)
	}
	if counts[extFree] != m.freeFrames {
		return fmt.Errorf("free accounting: %d stack frames vs %d counter", counts[extFree], m.freeFrames)
	}
	if counts[extCache] != m.cachePages {
		return fmt.Errorf("cache accounting: %d stack frames vs %d counter", counts[extCache], m.cachePages)
	}
	// Once built, the maintained list must be that one entry for entry
	// (so no two free extents are ever adjacent, which Unregister's
	// one-pass rewrite relies on). The page stride of a one-frame extent
	// means nothing and may differ.
	if m.exts.len() > 0 {
		if m.exts.len() != len(built) {
			return fmt.Errorf("maintained list holds %d extents, built one %d", m.exts.len(), len(built))
		}
		for i, want := range built {
			got := *m.exts.at(i)
			if got.n == 1 {
				got.pdir = want.pdir
			}
			if got != want {
				return fmt.Errorf("extent %d is %+v, built list has %+v", i, got, want)
			}
		}
	}
	// Spaces: run coverage and counters.
	var slotBytes int64
	for pid, s := range m.spaces {
		var nextPg int32
		resident, swapped := 0, 0
		for i, r := range s.runs {
			if r.n <= 0 {
				return fmt.Errorf("pid %d run %d empty", pid, i)
			}
			if r.start != nextPg {
				return fmt.Errorf("pid %d run %d starts at %d, want %d", pid, i, r.start, nextPg)
			}
			nextPg = r.end()
			if r.state != pageResident && r.ref {
				return fmt.Errorf("pid %d pages [%d,%d) referenced but not resident", pid, r.start, r.end())
			}
			switch r.state {
			case pageResident:
				resident += int(r.n)
				if r.slot {
					slotBytes += int64(r.n) * m.cfg.PageSize
				}
			case pageSwapped:
				swapped += int(r.n)
				if !r.slot {
					return fmt.Errorf("pid %d pages [%d,%d) swapped without slot", pid, r.start, r.end())
				}
				slotBytes += int64(r.n) * m.cfg.PageSize
			case pageUntouched:
				if r.slot {
					return fmt.Errorf("pid %d pages [%d,%d) untouched with slot", pid, r.start, r.end())
				}
			}
		}
		if int(nextPg) != s.npages {
			return fmt.Errorf("pid %d runs cover %d pages, want %d", pid, nextPg, s.npages)
		}
		if resident != s.resident || swapped != s.swapped {
			return fmt.Errorf("pid %d counters resident=%d/%d swapped=%d/%d",
				pid, s.resident, resident, s.swapped, swapped)
		}
	}
	if slotBytes != m.swapUsed {
		return fmt.Errorf("swap accounting: %d slot bytes vs %d counter", slotBytes, m.swapUsed)
	}
	return nil
}
