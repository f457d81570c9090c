package mapreduce

import (
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/hdfs"
	"hadooppreempt/internal/ossim"
	"hadooppreempt/internal/sim"
)

// taskRuntime is shared between a task program and its TaskTracker; the
// tracker reads progress from it when building heartbeats.
type taskRuntime struct {
	inputBytes     int64
	processedBytes int64
}

// progress returns the completed fraction of the input.
func (rt *taskRuntime) progress() float64 {
	if rt.inputBytes <= 0 {
		return 1
	}
	p := float64(rt.processedBytes) / float64(rt.inputBytes)
	if p > 1 {
		p = 1
	}
	return p
}

// Address-space layout of a task process:
//
//	[0, JVMBaseBytes)                      execution engine (heap, buffers)
//	[JVMBaseBytes, JVMBase+ExtraMemory)    task state (worst-case jobs)
//
// The engine region is written once at startup (heap initialisation) and a
// rotating buffer window inside it stays hot during processing. The extra
// region is written at startup and read back at finalization, matching the
// paper's worst-case stateful tasks.
type mapProgram struct {
	eng    *sim.Engine
	cfg    *EngineConfig
	conf   *JobConf
	in     hdfs.BlockReader // the input block, opened for this node at launch
	nodeDV *disk.Device
	block  hdfs.BlockLocation
	rt     *taskRuntime
	stream disk.StreamID

	stage        int // 0 spawn, 1 alloc, 2 process, 3 finalize, 4 commit, 5 done
	bufCursor    int64
	pendingChunk int64 // bytes of the chunk whose completion is unrecorded

	// memOp and ioOp are reused across Next calls: the kernel consumes an
	// Op synchronously, so handing out the same buffers avoids a heap
	// allocation per chunk on the hottest loop of the simulation.
	memOp ossim.MemOp
	ioOp  ossim.IOOp

	// chunkParse caches the compute cost of one full ChunkBytes chunk at
	// the job's parse rate; only the final partial chunk recomputes the
	// division.
	chunkParse time.Duration
}

// Program stages.
const (
	stageSpawn = iota
	stageAlloc
	stageProcess
	stageFinalize
	stageCommit
	stageDone
)

func newMapProgram(eng *sim.Engine, cfg *EngineConfig, conf *JobConf, fs *hdfs.FileSystem,
	node hdfs.NodeID, dev *disk.Device, block hdfs.BlockLocation, rt *taskRuntime, stream disk.StreamID) *mapProgram {
	mp := &mapProgram{}
	initMapProgram(mp, eng, cfg, conf, fs, node, dev, block, rt, stream)
	return mp
}

// initMapProgram resets mp (which may be a recycled shell) for a fresh
// attempt and opens its input block for the node. An unknown block
// leaves the zero reader, whose every Read fails, so each chunk then
// costs its parse time alone.
func initMapProgram(mp *mapProgram, eng *sim.Engine, cfg *EngineConfig, conf *JobConf, fs *hdfs.FileSystem,
	node hdfs.NodeID, dev *disk.Device, block hdfs.BlockLocation, rt *taskRuntime, stream disk.StreamID) {
	rt.inputBytes = block.Size
	in, _ := fs.Open(node, block.Block)
	*mp = mapProgram{
		eng: eng, cfg: cfg, conf: conf, in: in, nodeDV: dev,
		block: block, rt: rt, stream: stream,
		chunkParse: time.Duration(float64(cfg.ChunkBytes) / conf.MapParseRate * float64(time.Second)),
	}
}

// totalMemory returns the full address-space size.
func (mp *mapProgram) totalMemory() int64 {
	return mp.conf.JVMBaseBytes + mp.conf.ExtraMemoryBytes
}

// touchOp returns the op that touches length bytes at offset, ChunkBytes
// at a time at the engine's memory bandwidth, with mem as its MemOp. Page
// faults add their own latency.
func touchOp(cfg *EngineConfig, mem *ossim.MemOp, label string, offset, length int64, write bool) ossim.Op {
	*mem = ossim.MemOp{Offset: offset, Length: length, Write: write}
	return ossim.Op{
		Label:       label,
		Mem:         mem,
		Chunk:       cfg.ChunkBytes,
		Compute:     touchCompute(cfg, cfg.ChunkBytes),
		LastCompute: touchCompute(cfg, length%cfg.ChunkBytes),
	}
}

// touchCompute is the compute of touching bytes of memory at the engine's
// memory bandwidth.
func touchCompute(cfg *EngineConfig, bytes int64) time.Duration {
	return time.Duration(float64(bytes) / cfg.MemTouchRate * float64(time.Second))
}

// Next implements ossim.Program as a resumable state machine. Each call
// means the previous op completed.
func (mp *mapProgram) Next(p *ossim.Process, op *ossim.Op) {
	// Record completion of the previously returned processing chunk.
	if mp.pendingChunk > 0 {
		mp.rt.processedBytes += mp.pendingChunk
		mp.pendingChunk = 0
	}
	switch mp.stage {
	case stageSpawn:
		mp.stage = stageAlloc
		*op = ossim.Op{Label: "jvm-start", Sleep: mp.cfg.JVMStartup}
		return

	case stageAlloc:
		// Write the engine heap and the extra state region.
		mp.stage = stageProcess
		if total := mp.totalMemory(); total > 0 {
			*op = touchOp(mp.cfg, &mp.memOp, "alloc", 0, total, true)
			return
		}
		fallthrough

	case stageProcess:
		if mp.rt.processedBytes < mp.block.Size {
			chunk := mp.cfg.ChunkBytes
			if mp.rt.processedBytes+chunk > mp.block.Size {
				chunk = mp.block.Size - mp.rt.processedBytes
			}
			// Stream the chunk from HDFS; the read may be remote.
			done, err := mp.in.Read(mp.rt.processedBytes, chunk, mp.stream)
			var ioWait time.Duration
			if err == nil {
				if wait := done - mp.eng.Now(); wait > 0 {
					ioWait = wait
				}
			}
			// Keep a rotating window of memory hot. For plain mappers it
			// is the engine region (record and sort buffers); stateful
			// mappers instead sweep their extra state region, re-dirtying
			// it as in-mapper aggregation structures are updated.
			var mem *ossim.MemOp
			if mp.conf.StatefulMapper && mp.conf.ExtraMemoryBytes > 0 {
				win := mp.conf.ExtraMemoryBytes
				off := mp.bufCursor % win
				length := chunk * 4 // state updates touch widely
				if off+length > win {
					length = win - off
				}
				mp.memOp = ossim.MemOp{Offset: mp.conf.JVMBaseBytes + off, Length: length, Write: true}
				mem = &mp.memOp
				mp.bufCursor += length
			} else if mp.cfg.BufferBytes > 0 && mp.conf.JVMBaseBytes > 0 {
				win := mp.cfg.BufferBytes
				if win > mp.conf.JVMBaseBytes {
					win = mp.conf.JVMBaseBytes
				}
				off := mp.bufCursor % win
				length := chunk
				if off+length > win {
					length = win - off
				}
				mp.memOp = ossim.MemOp{Offset: off, Length: length, Write: true}
				mem = &mp.memOp
				mp.bufCursor += length
			}
			parse := mp.chunkParse
			if chunk != mp.cfg.ChunkBytes {
				parse = time.Duration(float64(chunk) / mp.conf.MapParseRate * float64(time.Second))
			}
			mp.pendingChunk = chunk
			*op = ossim.Op{
				Label:   "map-chunk",
				Sleep:   ioWait,
				Mem:     mem,
				Compute: parse,
			}
			return
		}
		mp.stage = stageFinalize
		fallthrough

	case stageFinalize:
		// Read back the extra state region (the paper's worst-case tasks
		// read their memory when finalizing), faulting in anything that
		// was paged out.
		mp.stage = stageCommit
		if extra := mp.conf.ExtraMemoryBytes; extra > 0 {
			*op = touchOp(mp.cfg, &mp.memOp, "finalize", mp.conf.JVMBaseBytes, extra, false)
			return
		}
		fallthrough

	case stageCommit:
		mp.stage = stageDone
		*op = ossim.Op{Label: "commit", Sleep: mp.cfg.CommitCost}
		if mp.conf.MapOutputRatio > 0 {
			out := int64(float64(mp.block.Size) * mp.conf.MapOutputRatio)
			mp.ioOp = ossim.IOOp{Device: mp.nodeDV, Kind: disk.Write, Bytes: out, Stream: mp.stream}
			op.IO = &mp.ioOp
		}
		return

	default:
		*op = ossim.Op{Done: true, ExitCode: ossim.ExitOK}
	}
}

// reduceProgram models shuffle → sort → reduce. Shuffle bytes are the
// job's aggregate map output divided across reduces.
type reduceProgram struct {
	eng          *sim.Engine
	cfg          *EngineConfig
	conf         *JobConf
	nodeDV       *disk.Device
	rt           *taskRuntime
	stream       disk.StreamID
	shuffleBytes int64
	netBandwidth float64

	stage        int
	shuffled     int64
	reduced      int64
	pendingChunk int64
	pendingPhase int // which counter pendingChunk belongs to: 1 shuffle, 2 reduce

	memOp ossim.MemOp
	ioOp  ossim.IOOp
}

func newReduceProgram(eng *sim.Engine, cfg *EngineConfig, conf *JobConf, dev *disk.Device,
	rt *taskRuntime, stream disk.StreamID, shuffleBytes int64, netBandwidth float64) *reduceProgram {
	rp := &reduceProgram{}
	initReduceProgram(rp, eng, cfg, conf, dev, rt, stream, shuffleBytes, netBandwidth)
	return rp
}

// initReduceProgram resets rp (which may be a recycled shell) for a fresh
// attempt.
func initReduceProgram(rp *reduceProgram, eng *sim.Engine, cfg *EngineConfig, conf *JobConf, dev *disk.Device,
	rt *taskRuntime, stream disk.StreamID, shuffleBytes int64, netBandwidth float64) {
	// Progress of a reduce: shuffle+sort is 2/3, reduce 1/3 (Hadoop uses
	// thirds); we expose bytes so approximate with total work volume.
	rt.inputBytes = 2 * shuffleBytes
	*rp = reduceProgram{
		eng: eng, cfg: cfg, conf: conf, nodeDV: dev, rt: rt, stream: stream,
		shuffleBytes: shuffleBytes, netBandwidth: netBandwidth,
	}
}

// Next implements ossim.Program.
func (rp *reduceProgram) Next(p *ossim.Process, op *ossim.Op) {
	if rp.pendingChunk > 0 {
		rp.rt.processedBytes += rp.pendingChunk
		rp.pendingChunk = 0
	}
	switch rp.stage {
	case stageSpawn:
		rp.stage = stageAlloc
		*op = ossim.Op{Label: "jvm-start", Sleep: rp.cfg.JVMStartup}
		return

	case stageAlloc:
		rp.stage = stageProcess
		if total := rp.conf.JVMBaseBytes + rp.conf.ExtraMemoryBytes; total > 0 {
			*op = touchOp(rp.cfg, &rp.memOp, "alloc", 0, total, true)
			return
		}
		fallthrough

	case stageProcess: // shuffle + sort
		if rp.shuffled < rp.shuffleBytes {
			chunk := rp.cfg.ChunkBytes
			if rp.shuffled+chunk > rp.shuffleBytes {
				chunk = rp.shuffleBytes - rp.shuffled
			}
			rp.shuffled += chunk
			rp.pendingChunk = chunk
			// Fetch over the network, spill to local disk, charge sort
			// CPU.
			netTime := time.Duration(float64(chunk) / rp.netBandwidth * float64(time.Second))
			rp.ioOp = ossim.IOOp{Device: rp.nodeDV, Kind: disk.Write, Bytes: chunk, Stream: rp.stream}
			*op = ossim.Op{
				Label:   "shuffle",
				Sleep:   netTime,
				IO:      &rp.ioOp,
				Compute: time.Duration(float64(chunk) / rp.conf.ShuffleSortRate * float64(time.Second)),
			}
			return
		}
		rp.stage = stageFinalize
		fallthrough

	case stageFinalize: // reduce phase
		if rp.reduced < rp.shuffleBytes {
			chunk := rp.cfg.ChunkBytes
			if rp.reduced+chunk > rp.shuffleBytes {
				chunk = rp.shuffleBytes - rp.reduced
			}
			rp.reduced += chunk
			rp.pendingChunk = chunk
			rp.ioOp = ossim.IOOp{Device: rp.nodeDV, Kind: disk.Read, Bytes: chunk, Stream: rp.stream}
			*op = ossim.Op{
				Label:   "reduce",
				IO:      &rp.ioOp,
				Compute: time.Duration(float64(chunk) / rp.conf.ReduceRate * float64(time.Second)),
			}
			return
		}
		rp.stage = stageCommit
		fallthrough

	case stageCommit:
		rp.stage = stageDone
		*op = ossim.Op{Label: "commit", Sleep: rp.cfg.CommitCost}
		return

	default:
		*op = ossim.Op{Done: true, ExitCode: ossim.ExitOK}
	}
}

// cleanupProgram removes the temporary output of a killed attempt. It is
// what makes the kill primitive pay latency beyond rescheduling.
type cleanupProgram struct {
	cfg  *EngineConfig
	done bool
}

// Next implements ossim.Program.
func (cp *cleanupProgram) Next(p *ossim.Process, op *ossim.Op) {
	if cp.done {
		*op = ossim.Op{Done: true, ExitCode: ossim.ExitOK}
		return
	}
	cp.done = true
	*op = ossim.Op{Label: "cleanup", Sleep: cp.cfg.CleanupCost}
}
