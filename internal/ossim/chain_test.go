package ossim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/sim"
)

// kernelScript is a random workload for one kernel: processes spawned at
// set times, each running a fixed list of ops, and signals sent to them.
// Times lie on a 100 ms grid, so spawns, signals, hops and compute ends
// tie often.
type kernelScript struct {
	cores            int
	ramMB, swapMB    int64
	procs            []scriptProc
	sigs             []scriptSig
	cpuSamples       []time.Duration
	tstpLat, contLat []time.Duration // per process; negative: no handler
	// deadlines, ascending, are RunUntil calls made before the final Run.
	deadlines []time.Duration
}

type scriptProc struct {
	at   time.Duration
	mem  int64
	ops  []Op
	term bool // a SIGTERM handler suppresses the default action
}

type scriptSig struct {
	at   time.Duration
	proc int
	sig  Signal
}

func randomKernelScript(rng *sim.RNG) kernelScript {
	grid := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * 100 * time.Millisecond }
	s := kernelScript{cores: []int{1, 2, 4}[rng.Intn(3)], ramMB: 64, swapMB: 256}
	if rng.Intn(4) == 0 {
		// Tight memory and no swap: writers get OOM-killed.
		s.ramMB, s.swapMB = 12, 0
	}
	n := 1 + rng.Intn(2*s.cores+3)
	for range n {
		p := scriptProc{at: grid(40), mem: int64(1+rng.Intn(8)) << 20, term: rng.Intn(4) == 0}
		for range 1 + rng.Intn(14) {
			op := Op{Sleep: grid(4), Compute: grid(4)}
			if rng.Intn(5) == 0 {
				op.Mem = &MemOp{Length: int64(1+rng.Intn(int(p.mem>>20))) << 20, Write: rng.Intn(2) == 0}
			}
			if rng.Intn(6) == 0 {
				op.IO = &IOOp{Kind: disk.Read, Bytes: int64(1+rng.Intn(4)) << 20, Stream: disk.StreamID(rng.Intn(3))}
			}
			p.ops = append(p.ops, op)
		}
		s.procs = append(s.procs, p)
		lat := func() time.Duration {
			if rng.Intn(3) == 0 {
				return -1
			}
			return grid(3)
		}
		s.tstpLat = append(s.tstpLat, lat())
		s.contLat = append(s.contLat, lat())
	}
	for range rng.Intn(4 * n) {
		sig := []Signal{SIGTSTP, SIGTSTP, SIGCONT, SIGCONT, SIGCONT, SIGKILL, SIGTERM}[rng.Intn(7)]
		s.sigs = append(s.sigs, scriptSig{at: grid(60), proc: rng.Intn(n), sig: sig})
	}
	for range rng.Intn(8) {
		s.cpuSamples = append(s.cpuSamples, grid(60))
	}
	return s
}

// scriptResult is everything a run of a script shows: a global log of op
// starts (with the CPU time each process had then), signals, CPU samples,
// exits and returns from RunUntil, and each process's final accounting.
type scriptResult struct {
	log   []string
	procs []string
	fired uint64
	// Floors, counted only with chaining on.
	chained, sigAtHop, overflowHopped, insertedAmong, oomKills int
	// Floors, counted only with inlining on: ops completed inline, and
	// runs stopped by an event tied with the op's end, by the deadline, by
	// an OOM-killed process's exit event and by a spawn. predicted counts
	// ops whose outcome the script foresaw; mispredicted must stay 0.
	inlined, stopTie, stopDeadline, stopOOM, stopSpawn, predicted, mispredicted int
}

// prediction is what a script foresees, when a process's op starts, about
// how the op ends: inline at end, with nothing dispatched meanwhile, or
// not.
type prediction struct {
	inline bool
	end    time.Duration
	fired  uint64
}

func (s kernelScript) run(chained, inlined bool) scriptResult {
	defer func(c, i bool) { chainOps, inlineOps = c, i }(chainOps, inlineOps)
	chainOps, inlineOps = chained, inlined
	eng := sim.New()
	dev := disk.New(eng, "sda", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20,
	})
	m, err := memory.New(eng, dev, memory.Config{
		PageSize: 4096, RAMBytes: s.ramMB << 20, SwapBytes: s.swapMB << 20,
		PageClusterPages: 8, MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	k := NewKernel(eng, "node1", s.cores, m)
	var r scriptResult
	note := func(format string, args ...any) {
		r.log = append(r.log, fmt.Sprintf(format, args...)+fmt.Sprintf("@%v", eng.Now()))
	}
	procs := make([]*Process, len(s.procs))
	// deadline is the one the engine is running to; inSignal is set while
	// a signal is delivered, when a resumed process may not run ahead.
	deadline := time.Duration(math.MaxInt64)
	var inSignal bool
	// lastTouch is the latest op with memory that may run ahead.
	var lastTouch struct {
		proc int
		at   time.Duration
	}
	lastTouch.proc = -1
	for i, sp := range s.procs {
		eng.At(sp.at, func() {
			step := 0
			// foreseen is about the op started last, at startedAt.
			var foreseen prediction
			var startedAt time.Duration
			prog := ProgramFunc(func(p *Process, op *Op) {
				if inlined && step > 0 {
					// Nothing was dispatched since the last op started, and
					// time went on: that op completed inline.
					if eng.Fired() == foreseen.fired && eng.Now() > startedAt {
						r.inlined++
					}
					if foreseen.inline {
						r.predicted++
						if eng.Fired() != foreseen.fired || eng.Now() != foreseen.end {
							r.mispredicted++
						}
					}
				}
				if step == len(sp.ops) {
					*op = Op{Done: true, ExitCode: i}
					return
				}
				note("p%d op%d cpu %v", i, step, p.CPUTime())
				*op = sp.ops[step]
				if op.IO != nil {
					op.IO.Device = dev
				}
				step++
				if chained && !inlined && op.Compute > 0 && (op.Sleep > 0 || op.Mem != nil || op.IO != nil) &&
					len(k.procs) <= k.cores {
					r.chained++
				}
				foreseen, startedAt = prediction{fired: eng.Fired()}, eng.Now()
				if !inlined || inSignal || (op.Compute > 0 && len(k.active) >= k.cores) {
					return
				}
				if op.Mem != nil {
					lastTouch.proc, lastTouch.at = i, eng.Now()
				}
				if op.Mem != nil || op.IO != nil || (op.Sleep <= 0 && op.Compute <= 0) {
					return
				}
				// Foresee how an op of known length ends. Peeking drops
				// cancelled entries from the front of the queue, as a
				// dispatch would; that lets more ops run inline here than
				// without the peek, but orders nothing differently.
				end := eng.Now() + max(op.Sleep, 0) + max(op.Compute, 0)
				foreseen.end = end
				next, ok := eng.NextEventAt()
				switch {
				case ok && next <= end && slices.ContainsFunc(s.procs, func(q scriptProc) bool { return q.at == next }):
					r.stopSpawn++
				case ok && next == end:
					r.stopTie++
				case ok && next < end:
				case end > deadline || eng.Now() >= deadline:
					r.stopDeadline++
				default:
					foreseen.inline = true
				}
			})
			var before []*Process
			if chained {
				for _, q := range k.procs {
					if q.phase == phaseChain {
						before = append(before, q)
					}
				}
			}
			p, err := k.Spawn(fmt.Sprintf("p%d", i), sp.mem, prog, func(p *Process, code int) {
				note("p%d exit %d", i, code)
				if chained && code == ExitOOM {
					r.oomKills++
				}
				if inlined && code == ExitOOM && lastTouch.at == p.exitedAt && lastTouch.proc != i {
					// Another process's touch killed p; p's exit event
					// stopped that process's run.
					r.stopOOM++
				}
			})
			if err != nil {
				note("p%d spawn: %v", i, err)
				return
			}
			if len(k.procs) > k.cores {
				// No chains are left, so the compute sets of the two forms
				// must hold the same processes in the same order.
				if k.chains != 0 {
					panic(fmt.Sprintf("%d chains on a kernel past its core count", k.chains))
				}
				names := make([]string, len(k.active))
				for j, q := range k.active {
					names[j] = q.name
				}
				note("active %v", names)
			}
			for _, q := range before {
				if q.phase != phaseCompute {
					continue
				}
				r.overflowHopped++
				if j := slices.Index(k.active, q); j < len(k.active)-1 {
					r.insertedAmong++
				}
			}
			if d := s.tstpLat[i]; d >= 0 {
				p.Handle(SIGTSTP, func(*Process) time.Duration { return d })
			}
			if d := s.contLat[i]; d >= 0 {
				p.Handle(SIGCONT, func(*Process) time.Duration { return d })
			}
			if sp.term {
				p.Handle(SIGTERM, func(*Process) time.Duration { return 0 })
			}
			procs[i] = p
		})
	}
	for _, sg := range s.sigs {
		eng.At(sg.at, func() {
			p := procs[sg.proc]
			if p == nil {
				return
			}
			if chained && p.phase == phaseChain && p.speedSetAt == eng.Now() {
				r.sigAtHop++
			}
			inSignal = true
			err := k.Signal(p.PID(), sg.sig)
			inSignal = false
			note("p%d %v: %v", sg.proc, sg.sig, err)
		})
	}
	for _, at := range s.cpuSamples {
		eng.At(at, func() {
			for i, p := range procs {
				if p != nil {
					note("p%d cpu %v", i, p.CPUTime())
				}
			}
		})
	}
	for _, dl := range s.deadlines {
		deadline = dl
		eng.RunUntil(dl)
		for i, p := range procs {
			if p != nil {
				note("until: p%d cpu %v", i, p.CPUTime())
			}
		}
	}
	deadline = math.MaxInt64
	eng.Run()
	for i, p := range procs {
		if p == nil {
			r.procs = append(r.procs, fmt.Sprintf("p%d never spawned", i))
			continue
		}
		r.procs = append(r.procs, fmt.Sprintf("p%d %v cpu %v stopped %v stops %d conts %d exited %v code %d",
			i, p.State(), p.CPUTime(), p.StoppedTime(), p.Stops(), p.Conts(), p.exitedAt, p.ExitCode()))
	}
	r.fired = eng.Fired()
	k.Release()
	m.Release()
	eng.Release()
	return r
}

// TestChainedOpsMatchTwoEventForm runs random kernel scripts with chained
// ops and without, on 1, 2 and 4 cores, and requires identical processes:
// state, CPU time, stopped time, stop and resume counts, exit time and
// code, and the same global order of op starts, signals and exits. The
// scripts send signals with and without handlers, OOM-kill writers, and
// spawn past the core count and drop back below it. Floors make sure
// signals land on hop instants and that overflowing spawns put hopped
// chains into the compute set ahead of processes that entered it later.
func TestChainedOpsMatchTwoEventForm(t *testing.T) {
	rng := sim.NewRNG(41)
	var floors scriptResult
	var saved uint64
	for trial := range 2000 {
		s := randomKernelScript(rng)
		want := s.run(false, false)
		got := s.run(true, false)
		if !slices.Equal(got.log, want.log) || !slices.Equal(got.procs, want.procs) {
			t.Fatalf("trial %d (%d cores, %d processes): chained\n %v\n %v\ntwo-event form\n %v\n %v",
				trial, s.cores, len(s.procs), got.log, got.procs, want.log, want.procs)
		}
		if got.fired > want.fired {
			t.Fatalf("trial %d: chained run dispatched %d events, two-event form %d", trial, got.fired, want.fired)
		}
		saved += want.fired - got.fired
		floors.chained += got.chained
		floors.sigAtHop += got.sigAtHop
		floors.overflowHopped += got.overflowHopped
		floors.insertedAmong += got.insertedAmong
		floors.oomKills += got.oomKills
	}
	t.Logf("%d chained ops, %d dispatches saved, %d signals at a hop, %d hopped chains unchained by a spawn (%d ahead of later entrants), %d OOM kills",
		floors.chained, saved, floors.sigAtHop, floors.overflowHopped, floors.insertedAmong, floors.oomKills)
	if floors.chained < 10000 || saved < 10000 || floors.sigAtHop < 50 || floors.overflowHopped < 200 ||
		floors.insertedAmong < 50 || floors.oomKills < 30 {
		t.Fatal("too few cases exercised")
	}
}

// repeatProgram runs op n times, then exits.
func repeatProgram(n int, op Op) Program {
	step := 0
	return ProgramFunc(func(_ *Process, next *Op) {
		if step == n {
			*next = Op{Done: true}
			return
		}
		step++
		*next = op
	})
}

// sleepCompute is an op of latency and compute.
var sleepCompute = Op{Sleep: time.Millisecond, Compute: time.Millisecond}

// sleepOnly is an op of latency alone, as long as sleepCompute: a
// competitor running it ends each op when the worker does, so neither can
// run ahead.
var sleepOnly = Op{Sleep: 2 * time.Millisecond}

// TestInlineOpsMatchQueuedOps runs random kernel scripts, with RunUntil
// deadlines and some negative sleeps added, with ops completed inline and
// without, and requires identical processes: the same op starts (with the
// CPU time then), signals, CPU samples, exits, compute-set order after
// every spawn, CPU time at every deadline and final accounting. Floors
// make sure that ops do complete inline and that runs stop for each reason
// a process can meet: an event tied with its op's end, the deadline, the
// exit event of a process its touch OOM-killed, and a spawn. For ops of
// known length the script foresees the outcome and checks it.
func TestInlineOpsMatchQueuedOps(t *testing.T) {
	rng := sim.NewRNG(43)
	var floors scriptResult
	for trial := range 4000 {
		s := randomKernelScript(rng)
		if rng.Intn(3) == 0 {
			// More OOM kills.
			s.ramMB, s.swapMB = 12, 0
		}
		for _, p := range s.procs {
			for j := range p.ops {
				if rng.Intn(8) == 0 {
					// A negative sleep adds no latency.
					p.ops[j].Sleep = -p.ops[j].Sleep - 100*time.Millisecond
				}
			}
		}
		for range rng.Intn(6) {
			s.deadlines = append(s.deadlines, time.Duration(rng.Intn(60))*100*time.Millisecond)
		}
		slices.Sort(s.deadlines)
		want := s.run(true, false)
		got := s.run(true, true)
		if !slices.Equal(got.log, want.log) || !slices.Equal(got.procs, want.procs) {
			t.Fatalf("trial %d (%d cores, %d processes, deadlines %v): inline\n %v\n %v\nqueued\n %v\n %v",
				trial, s.cores, len(s.procs), s.deadlines, got.log, got.procs, want.log, want.procs)
		}
		if got.fired+uint64(got.inlined) > want.fired {
			t.Fatalf("trial %d: %d dispatches and %d inline ops, queued form %d dispatches",
				trial, got.fired, got.inlined, want.fired)
		}
		if got.mispredicted > 0 {
			t.Fatalf("trial %d: %d of %d foreseen inline ops did not complete inline", trial, got.mispredicted, got.predicted)
		}
		floors.inlined += got.inlined
		floors.predicted += got.predicted
		floors.stopTie += got.stopTie
		floors.stopDeadline += got.stopDeadline
		floors.stopOOM += got.stopOOM
		floors.stopSpawn += got.stopSpawn
	}
	t.Logf("%d ops inline (%d foreseen); runs stopped by %d ties, %d deadlines, %d OOM exits, %d spawns",
		floors.inlined, floors.predicted, floors.stopTie, floors.stopDeadline, floors.stopOOM, floors.stopSpawn)
	if floors.inlined < 12000 || floors.predicted < 8000 || floors.stopTie < 800 || floors.stopDeadline < 600 ||
		floors.stopOOM < 40 || floors.stopSpawn < 4000 {
		t.Fatal("too few cases exercised")
	}
}

// TestOpDispatchCount pins the events a process's ops cost. Alone, a
// process runs every op inline from its start event: one dispatch in all.
// With a competitor whose op ends tie with its own, no op can run inline:
// within the core count an op of latency and compute is one chained
// dispatch, past it two. The competitor's ops of latency alone cost one
// each, and each process's start event one more.
func TestOpDispatchCount(t *testing.T) {
	const n = 50
	eng, k, _ := testKernel(t, 1)
	w, _ := k.Spawn("w", 1<<20, repeatProgram(n, sleepCompute), nil)
	eng.Run()
	if got := eng.Fired(); got != 1 || w.CPUTime() != n*sleepCompute.Compute || eng.Now() != n*2*time.Millisecond {
		t.Fatalf("alone: %d dispatches for %d ops, cpu %v at %v; want 1, %v at %v",
			got, n, w.CPUTime(), eng.Now(), n*sleepCompute.Compute, n*2*time.Millisecond)
	}

	for _, c := range []struct {
		cores int
		perOp uint64
	}{{2, 1}, {1, 2}} {
		eng, k, _ = testKernel(t, c.cores)
		k.Spawn("w", 1<<20, repeatProgram(n, sleepCompute), nil)
		k.Spawn("c", 1<<20, repeatProgram(n, sleepOnly), nil)
		eng.Run()
		if got, want := eng.Fired(), 2+c.perOp*n+n; got != want {
			t.Fatalf("%d cores, with a competitor: %d dispatches for %d ops, want %d", c.cores, got, n, want)
		}
	}
}

// TestChainedOpAllocatesNothing: once warm, a chained op (its completion,
// the next op's Next and the new chain), an op completed inline and a
// stretch allocate nothing, and Spawn allocates only the Process and its
// three closures: chains reuse them.
func TestChainedOpAllocatesNothing(t *testing.T) {
	eng, k, _ := testKernel(t, 4)
	k.Spawn("w", 1<<20, repeatProgram(1<<30, sleepCompute), nil)
	// A competitor keeps the worker from running ahead, so every op is
	// one chained dispatch.
	k.Spawn("c", 1<<20, repeatProgram(1<<30, sleepOnly), nil)
	for range 100 {
		eng.Step()
	}
	if k.chains != 1 {
		t.Fatalf("%d chains, want 1", k.chains)
	}
	if avg := testing.AllocsPerRun(1000, func() { eng.Step() }); avg > 0.01 {
		t.Fatalf("a chained op allocates %.3f objects, want 0", avg)
	}

	eng, k, _ = testKernel(t, 4)
	w, _ := k.Spawn("w", 1<<20, repeatProgram(1<<30, sleepCompute), nil)
	eng.RunUntil(time.Second)
	// Each RunUntil dispatches the end of the op the last one queued; the
	// next 49 ops complete inline. AllocsPerRun makes one more call than
	// it measures.
	before := w.CPUTime()
	if avg := testing.AllocsPerRun(100, func() { eng.RunUntil(eng.Now() + 100*time.Millisecond) }); avg > 0.01 {
		t.Fatalf("50 ops, 49 of them inline, allocate %.3f objects, want 0", avg)
	}
	if ran := w.CPUTime() - before; ran != 101*50*sleepCompute.Compute || eng.Fired() != 1+101 {
		t.Fatalf("ran %v of compute in %d dispatches, want %v in %d", ran, eng.Fired(), 101*50*sleepCompute.Compute, 1+101)
	}

	// A lone process reads back a resident 32 MB region, over and over, in
	// 1 MB chunks of 1 ms compute. Each RunUntil dispatches the end of the
	// chunk the last one queued, and the chunks after it, up to the
	// deadline, run as stretches, one per region, each counted at once.
	stretches, uncounted := 0, 0
	defer func(f func(*Process, int, int)) { stretchSeen = f }(stretchSeen)
	stretchSeen = func(_ *Process, n, counted int) {
		if n >= 2 {
			stretches++
			if counted != n {
				uncounted++
			}
		}
	}
	eng, k, _ = testKernel(t, 4)
	phases := []stretchPhase{{to: 32 << 20, chunk: 1 << 20, write: true, compute: time.Millisecond}}
	for range 400 {
		phases = append(phases, stretchPhase{to: 32 << 20, chunk: 1 << 20, compute: time.Millisecond})
	}
	w, _ = k.Spawn("w", 32<<20, &regionProgram{chunked: true, phases: phases}, nil)
	eng.RunUntil(time.Second)
	before, fired, seen := w.CPUTime(), eng.Fired(), stretches
	if avg := testing.AllocsPerRun(100, func() { eng.RunUntil(eng.Now() + 100*time.Millisecond) }); avg > 0.01 {
		t.Fatalf("a stretch allocates %.3f objects, want 0", avg)
	}
	if ran := w.CPUTime() - before; ran != 101*100*time.Millisecond || eng.Fired() != fired+101 || stretches < seen+101 || uncounted > 0 {
		t.Fatalf("ran %v of compute in %d dispatches and %d stretches (%d not counted at once), want %v in %d and at least %d (0)",
			ran, eng.Fired()-fired, stretches-seen, uncounted, 101*100*time.Millisecond, 101, 101)
	}

	eng, k, _ = testKernel(t, 4)
	prog := repeatProgram(0, sleepCompute)
	warm := func() {
		p, err := k.Spawn("w", 1<<20, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if p.State() != StateExited {
			t.Fatalf("state %v, want exited", p.State())
		}
	}
	warm()
	if avg := testing.AllocsPerRun(100, warm); avg > 4 {
		t.Fatalf("Spawn and a run to exit allocate %.1f objects, want at most 4", avg)
	}
}

// benchOps runs a process through 10,000 ops of sleep plus compute on a
// 4-core kernel, next to a competitor process of sleeps alone if compete
// is set.
func benchOps(b *testing.B, compete bool) {
	b.ReportAllocs()
	for range b.N {
		eng := sim.New()
		d := disk.New(eng, "sda", disk.Config{SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20})
		m, err := memory.New(eng, d, memory.Config{PageSize: 4096, RAMBytes: 64 << 20, PageClusterPages: 8, MinorFaultCost: time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		k := NewKernel(eng, "node1", 4, m)
		if _, err := k.Spawn("w", 1<<20, repeatProgram(10000, sleepCompute), nil); err != nil {
			b.Fatal(err)
		}
		if compete {
			if _, err := k.Spawn("c", 1<<20, repeatProgram(10000, sleepOnly), nil); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
		k.Release()
		m.Release()
		eng.Release()
	}
}

// BenchmarkOpDispatch runs 10,000 ops whose ends tie with a competitor's,
// so each op is one chained dispatch (and each of the competitor's ops one
// plain dispatch).
func BenchmarkOpDispatch(b *testing.B) { benchOps(b, true) }

// BenchmarkOpInline runs 10,000 ops of a lone process, all inline from its
// start event.
func BenchmarkOpInline(b *testing.B) { benchOps(b, false) }
