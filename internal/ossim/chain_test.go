package ossim

import (
	"fmt"
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
// starts (with the CPU time each process had then), signals, CPU samples
// and exits, and each process's final accounting.
type scriptResult struct {
	log   []string
	procs []string
	fired uint64
	// Floors, counted only with chaining on.
	chained, sigAtHop, overflowHopped, insertedAmong, oomKills int
}

func (s kernelScript) run(chained bool) scriptResult {
	defer func(old bool) { chainOps = old }(chainOps)
	chainOps = chained
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
	for i, sp := range s.procs {
		eng.At(sp.at, func() {
			step := 0
			prog := ProgramFunc(func(p *Process, op *Op) {
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
				if chained && op.Compute > 0 && (op.Sleep > 0 || op.Mem != nil || op.IO != nil) &&
					k.fullSpeed && len(k.procs) <= k.cores {
					r.chained++
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
			note("p%d %v: %v", sg.proc, sg.sig, k.Signal(p.PID(), sg.sig))
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
		want := s.run(false)
		got := s.run(true)
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

// TestOpDispatchCount pins the events an op of latency and compute costs:
// one dispatch on a kernel within its core count, two once it runs more
// processes than cores. Spawn's start event is the one extra dispatch.
func TestOpDispatchCount(t *testing.T) {
	const n = 50
	eng, k, _ := testKernel(t, 1)
	k.Spawn("w", 1<<20, repeatProgram(n, sleepCompute), nil)
	eng.Run()
	if got := eng.Fired(); got != n+1 {
		t.Fatalf("within the core count: %d dispatches for %d ops, want %d", got, n, n+1)
	}

	eng, k, _ = testKernel(t, 1)
	k.Spawn("w", 1<<20, repeatProgram(n, sleepCompute), nil)
	// A second process, asleep until the worker is done, puts the kernel
	// past its one core.
	k.Spawn("idle", 1<<20, repeatProgram(1, Op{Sleep: time.Hour, Compute: time.Nanosecond}), nil)
	eng.Run()
	// Two spawn events, 2n for the worker, and two for the idle process's
	// one op.
	if got := eng.Fired(); got != 2*n+4 {
		t.Fatalf("past the core count: %d dispatches for %d ops, want %d", got, n, 2*n+4)
	}
}

// TestChainedOpAllocatesNothing: once warm, a chained op (its completion,
// the next op's Next and the new chain) allocates nothing, and Spawn
// allocates only the Process and its three closures: chains reuse them.
func TestChainedOpAllocatesNothing(t *testing.T) {
	eng, k, _ := testKernel(t, 4)
	k.Spawn("w", 1<<20, repeatProgram(1<<30, sleepCompute), nil)
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

// BenchmarkOpDispatch runs one process through 10,000 ops of sleep plus
// compute on a 4-core kernel.
func BenchmarkOpDispatch(b *testing.B) {
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
		eng.Run()
		k.Release()
		m.Release()
		eng.Release()
	}
}
