package memory

// This file preserves the original per-page memory manager as an executable
// reference model. The production Manager replaced its per-page loops with
// run/interval-based accounting (see memory.go); the differential property
// test (differential_test.go) drives both implementations through the same
// randomized scripts and asserts byte-identical accounting. Keep this model
// naive and obviously correct — it is the specification.

import (
	"fmt"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/sim"
)

type refPage struct {
	state pageState
	frame int32
	dirty bool
	slot  bool
}

type refSpace struct {
	pid      PID
	npages   int
	pages    []refPage
	resident int
	swapped  int
	stopped  bool
	stats    SpaceStats
	pageSize int64
}

func (s *refSpace) Stats() SpaceStats {
	st := s.stats
	st.ResidentBytes = int64(s.resident) * s.pageSize
	st.SwappedBytes = int64(s.swapped) * s.pageSize
	return st
}

type refFrame struct {
	owner      PID
	page       int32
	referenced bool
	inUse      bool
}

// refManager is the original per-page implementation of Manager.
type refManager struct {
	eng  *sim.Engine
	swap *disk.Device
	cfg  Config

	frames      []refFrame
	free        []int32
	spaces      map[PID]*refSpace
	clockHand   int
	cacheFrames []int32
	swapUsed    int64
	stats       Stats

	swapOutStream disk.StreamID
	swapInStream  disk.StreamID

	onOOM func()

	swapEvents []swapEvent
	swapHead   int
}

func newRefManager(eng *sim.Engine, swap *disk.Device, cfg Config) (*refManager, error) {
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("memory: page size %d must be positive", cfg.PageSize)
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
	usable := (cfg.RAMBytes - cfg.ReservedBytes) / cfg.PageSize
	if usable <= 0 {
		return nil, fmt.Errorf("memory: no usable frames")
	}
	m := &refManager{
		eng:           eng,
		swap:          swap,
		cfg:           cfg,
		frames:        make([]refFrame, usable),
		free:          make([]int32, 0, usable),
		spaces:        make(map[PID]*refSpace),
		swapOutStream: disk.StreamID(0x5157_4f55),
		swapInStream:  disk.StreamID(0x5157_494e),
	}
	for i := int32(int(usable) - 1); i >= 0; i-- {
		m.free = append(m.free, i)
	}
	cachePages := int(cfg.InitialCacheBytes / cfg.PageSize)
	if cachePages > len(m.frames) {
		cachePages = len(m.frames)
	}
	for i := 0; i < cachePages; i++ {
		m.cacheFrames = append(m.cacheFrames, m.takeFreeFrameFor(cacheOwner, int32(i)))
	}
	return m, nil
}

func (m *refManager) Stats() Stats            { return m.stats }
func (m *refManager) SetOOMHandler(fn func()) { m.onOOM = fn }
func (m *refManager) FreeBytes() int64        { return int64(len(m.free)) * m.cfg.PageSize }
func (m *refManager) CacheBytes() int64       { return int64(len(m.cacheFrames)) * m.cfg.PageSize }
func (m *refManager) SwapUsedBytes() int64    { return m.swapUsed }
func (m *refManager) Space(pid PID) *refSpace { return m.spaces[pid] }
func (m *refManager) ResidentBytes(pid PID) int64 {
	if s, ok := m.spaces[pid]; ok {
		return int64(s.resident) * m.cfg.PageSize
	}
	return 0
}

func (m *refManager) SwappedBytes(pid PID) int64 {
	if s, ok := m.spaces[pid]; ok {
		return int64(s.swapped) * m.cfg.PageSize
	}
	return 0
}

func (m *refManager) Register(pid PID, bytes int64) (*refSpace, error) {
	if _, ok := m.spaces[pid]; ok {
		return nil, fmt.Errorf("memory: pid %d already registered", pid)
	}
	if bytes < 0 {
		return nil, fmt.Errorf("memory: negative space size %d", bytes)
	}
	npages := int((bytes + m.cfg.PageSize - 1) / m.cfg.PageSize)
	s := &refSpace{
		pid:      pid,
		npages:   npages,
		pages:    make([]refPage, npages),
		pageSize: m.cfg.PageSize,
	}
	m.spaces[pid] = s
	return s, nil
}

func (m *refManager) Unregister(pid PID) {
	s, ok := m.spaces[pid]
	if !ok {
		return
	}
	for i := range s.pages {
		p := &s.pages[i]
		if p.state == pageResident {
			m.releaseFrame(p.frame)
		}
		if p.slot {
			m.swapUsed -= m.cfg.PageSize
			p.slot = false
		}
		p.state = pageUntouched
	}
	delete(m.spaces, pid)
}

func (m *refManager) MarkStopped(pid PID) {
	s, ok := m.spaces[pid]
	if !ok {
		return
	}
	s.stopped = true
	for i := range s.pages {
		p := &s.pages[i]
		if p.state == pageResident {
			m.frames[p.frame].referenced = false
		}
	}
}

func (m *refManager) MarkRunning(pid PID) {
	if s, ok := m.spaces[pid]; ok {
		s.stopped = false
	}
}

func (m *refManager) CacheFill(bytes int64) {
	pages := int(bytes / m.cfg.PageSize)
	for i := 0; i < pages && len(m.free) > 0; i++ {
		m.cacheFrames = append(m.cacheFrames, m.takeFreeFrameFor(cacheOwner, 0))
		m.stats.CacheFillBytes += m.cfg.PageSize
	}
}

func (m *refManager) Touch(pid PID, offset, length int64, write bool) (time.Duration, error) {
	s, ok := m.spaces[pid]
	if !ok {
		return 0, fmt.Errorf("memory: touch by unregistered pid %d", pid)
	}
	if length <= 0 {
		return 0, nil
	}
	first := int(offset / m.cfg.PageSize)
	last := int((offset + length - 1) / m.cfg.PageSize)
	if first < 0 || last >= s.npages {
		return 0, fmt.Errorf("memory: pid %d touch [%d,%d) outside %d-byte space",
			pid, offset, offset+length, int64(s.npages)*s.pageSize)
	}
	var cpuCost time.Duration
	var diskDeadline time.Duration
	pendingIn := 0
	flushIn := func() {
		if pendingIn == 0 {
			return
		}
		bytes := int64(pendingIn) * m.cfg.PageSize
		done := m.swap.Submit(disk.Read, bytes, m.swapInStream)
		if done > diskDeadline {
			diskDeadline = done
		}
		m.stats.PagedInBytes += bytes
		s.stats.PagedInBytes += bytes
		m.noteSwapTraffic(bytes)
		pendingIn = 0
	}
	finish := func() time.Duration {
		total := cpuCost
		if wait := diskDeadline - m.eng.Now(); wait > 0 {
			total += wait
		}
		return total
	}
	for i := first; i <= last; i++ {
		p := &s.pages[i]
		switch p.state {
		case pageResident:
			m.frames[p.frame].referenced = true
			if write && !p.dirty {
				p.dirty = true
				m.dropSwapSlot(p)
			}
		case pageUntouched:
			cpu, deadline, err := m.faultIn(s, i, write, false)
			cpuCost += cpu
			if deadline > diskDeadline {
				diskDeadline = deadline
			}
			if err != nil {
				flushIn()
				return finish(), err
			}
		case pageSwapped:
			cpu, deadline, err := m.faultIn(s, i, write, true)
			cpuCost += cpu
			if deadline > diskDeadline {
				diskDeadline = deadline
			}
			if err != nil {
				flushIn()
				return finish(), err
			}
			pendingIn++
			if pendingIn >= m.cfg.PageClusterPages {
				flushIn()
			}
		}
	}
	flushIn()
	return finish(), nil
}

func (m *refManager) faultIn(s *refSpace, i int, write, fromSwap bool) (time.Duration, time.Duration, error) {
	deadline, frameIdx, err := m.allocFrame(s)
	if err != nil {
		return 0, deadline, err
	}
	f := &m.frames[frameIdx]
	f.owner = s.pid
	f.page = int32(i)
	f.referenced = true
	f.inUse = true
	p := &s.pages[i]
	p.state = pageResident
	p.frame = frameIdx
	s.resident++
	if fromSwap {
		s.swapped--
		s.stats.MajorFaults++
		m.stats.MajorFaults++
		p.dirty = false
		if write {
			p.dirty = true
			m.dropSwapSlot(p)
		}
	} else {
		s.stats.MinorFaults++
		m.stats.MinorFaults++
		p.dirty = write
	}
	return m.cfg.MinorFaultCost, deadline, nil
}

func (m *refManager) dropSwapSlot(p *refPage) {
	if p.slot {
		p.slot = false
		m.swapUsed -= m.cfg.PageSize
	}
}

func (m *refManager) takeFreeFrameFor(owner PID, pg int32) int32 {
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.frames[idx] = refFrame{owner: owner, page: pg, inUse: true}
	return idx
}

func (m *refManager) releaseFrame(idx int32) {
	m.frames[idx] = refFrame{}
	m.free = append(m.free, idx)
}

// allocFrame takes a free frame for a page of s, reclaiming first if
// none is free. When the OOM killer picks s itself, the fault fails.
func (m *refManager) allocFrame(s *refSpace) (time.Duration, int32, error) {
	if len(m.free) == 0 {
		deadline := m.reclaim()
		if len(m.free) == 0 {
			m.stats.OOMKills++
			if m.onOOM != nil {
				m.onOOM()
			}
			if len(m.free) == 0 || m.spaces[s.pid] != s {
				return deadline, 0, ErrOutOfMemory
			}
		}
		idx := m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		return deadline, idx, nil
	}
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return 0, idx, nil
}

func (m *refManager) reclaim() time.Duration {
	m.stats.ReclaimScans++
	want := m.cfg.PageClusterPages
	freed := 0

	cacheShare := want
	if m.cfg.Swappiness > 0 {
		cacheShare = want * (100 - m.cfg.Swappiness) / 100
	}
	for freed < cacheShare && len(m.cacheFrames) > 0 {
		m.dropOneCachePage()
		freed++
	}
	if freed >= want {
		return 0
	}

	dirtyVictims := 0
	n := len(m.frames)
	for scanned := 0; scanned < 2*n && freed < want; scanned++ {
		f := &m.frames[m.clockHand]
		m.clockHand = (m.clockHand + 1) % n
		if !f.inUse || f.owner == cacheOwner {
			continue
		}
		if f.referenced {
			f.referenced = false
			m.stats.SecondChanceHit++
			continue
		}
		s := m.spaces[f.owner]
		p := &s.pages[f.page]
		if p.dirty {
			if m.swapUsed+m.cfg.PageSize > m.cfg.SwapBytes {
				continue
			}
			p.slot = true
			p.dirty = false
			m.swapUsed += m.cfg.PageSize
			dirtyVictims++
			m.stats.PagedOutBytes += m.cfg.PageSize
			s.stats.PagedOutBytes += m.cfg.PageSize
		}
		if p.slot {
			p.state = pageSwapped
			s.swapped++
		} else {
			p.state = pageUntouched
		}
		s.resident--
		m.releaseFrame(p.frame)
		freed++
	}

	var deadline time.Duration
	if dirtyVictims > 0 {
		bytes := int64(dirtyVictims) * m.cfg.PageSize
		deadline = m.swap.Submit(disk.Write, bytes, m.swapOutStream)
		m.noteSwapTraffic(bytes)
	}
	return deadline
}

func (m *refManager) noteSwapTraffic(bytes int64) {
	ev := swapEvent{at: m.eng.Now(), bytes: bytes}
	if len(m.swapEvents) < swapEventRing {
		m.swapEvents = append(m.swapEvents, ev)
		return
	}
	m.swapEvents[m.swapHead] = ev
	m.swapHead = (m.swapHead + 1) % swapEventRing
}

func (m *refManager) SwapRate(window time.Duration) float64 {
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

func (m *refManager) dropOneCachePage() {
	idx := m.cacheFrames[len(m.cacheFrames)-1]
	m.cacheFrames = m.cacheFrames[:len(m.cacheFrames)-1]
	m.releaseFrame(idx)
	m.stats.CacheDropBytes += m.cfg.PageSize
}
