package ossim

import (
	"testing"
	"time"

	"hadooppreempt/internal/disk"
	"hadooppreempt/internal/memory"
	"hadooppreempt/internal/sim"
)

func testKernel(t *testing.T, cores int) (*sim.Engine, *Kernel, *disk.Device) {
	t.Helper()
	eng := sim.New()
	d := disk.New(eng, "sda", disk.Config{
		SeekTime:       time.Millisecond,
		ReadBandwidth:  100 << 20,
		WriteBandwidth: 100 << 20,
	})
	m, err := memory.New(eng, d, memory.Config{
		PageSize:         4096,
		RAMBytes:         64 << 20,
		SwapBytes:        256 << 20,
		PageClusterPages: 8,
		MinorFaultCost:   time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, NewKernel(eng, "node1", cores, m), d
}

// computeProgram runs n compute steps of d each, then exits with code.
func computeProgram(n int, d time.Duration, code int) Program {
	step := 0
	return ProgramFunc(func(_ *Process, op *Op) {
		if step >= n {
			*op = Op{Done: true, ExitCode: code}
			return
		}
		step++
		*op = Op{Label: "compute", Compute: d}
		return
	})
}

func TestProcessRunsToCompletion(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	exited := -1
	p, err := k.Spawn("worker", 1<<20, computeProgram(5, time.Second, 0),
		func(_ *Process, code int) { exited = code })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if exited != 0 {
		t.Fatalf("exit code = %d, want 0", exited)
	}
	if p.State() != StateExited {
		t.Fatalf("state = %v, want exited", p.State())
	}
	if eng.Now() != 5*time.Second {
		t.Fatalf("finished at %v, want 5s", eng.Now())
	}
	if got := p.CPUTime(); got != 5*time.Second {
		t.Fatalf("CPUTime = %v, want 5s", got)
	}
}

func TestSleepOpAddsLatency(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	done := false
	steps := 0
	prog := ProgramFunc(func(_ *Process, op *Op) {
		steps++
		switch steps {
		case 1:
			*op = Op{Sleep: 2 * time.Second, Compute: time.Second}
			return
		default:
			*op = Op{Done: true}
			return
		}
	})
	k.Spawn("w", 1<<20, prog, func(*Process, int) { done = true })
	eng.Run()
	if !done {
		t.Fatal("process did not exit")
	}
	if eng.Now() != 3*time.Second {
		t.Fatalf("finished at %v, want 3s (2s sleep + 1s compute)", eng.Now())
	}
}

func TestCPUSharingSlowsProcesses(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	var finished []time.Duration
	for i := 0; i < 2; i++ {
		k.Spawn("w", 1<<20, computeProgram(1, 10*time.Second, 0),
			func(*Process, int) { finished = append(finished, eng.Now()) })
	}
	eng.Run()
	if len(finished) != 2 {
		t.Fatalf("finished %d, want 2", len(finished))
	}
	// Two processes sharing one core: both need ~20s of wall time.
	for _, f := range finished {
		if f < 19*time.Second || f > 21*time.Second {
			t.Fatalf("finish at %v, want ~20s under 2-way sharing", f)
		}
	}
}

func TestMultiCoreRunsInParallel(t *testing.T) {
	eng, k, _ := testKernel(t, 2)
	var finished []time.Duration
	for i := 0; i < 2; i++ {
		k.Spawn("w", 1<<20, computeProgram(1, 10*time.Second, 0),
			func(*Process, int) { finished = append(finished, eng.Now()) })
	}
	eng.Run()
	for _, f := range finished {
		if f != 10*time.Second {
			t.Fatalf("finish at %v, want 10s on 2 cores", f)
		}
	}
}

func TestSIGTSTPStopsAndSIGCONTResumes(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	var exitAt time.Duration
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, 10*time.Second, 0),
		func(*Process, int) { exitAt = eng.Now() })
	eng.Schedule(4*time.Second, func() {
		if err := k.Signal(p.PID(), SIGTSTP); err != nil {
			t.Errorf("SIGTSTP: %v", err)
		}
	})
	eng.Schedule(9*time.Second, func() {
		if p.State() != StateStopped {
			t.Errorf("state at 9s = %v, want stopped", p.State())
		}
		if err := k.Signal(p.PID(), SIGCONT); err != nil {
			t.Errorf("SIGCONT: %v", err)
		}
	})
	eng.Run()
	// 4s done before stop, 5s stopped, 6s remaining: exit at 15s.
	if exitAt != 15*time.Second {
		t.Fatalf("exit at %v, want 15s", exitAt)
	}
	if got := p.StoppedTime(); got != 5*time.Second {
		t.Fatalf("StoppedTime = %v, want 5s", got)
	}
	if p.Stops() != 1 || p.Conts() != 1 {
		t.Fatalf("Stops/Conts = %d/%d, want 1/1", p.Stops(), p.Conts())
	}
}

func TestSIGTSTPMarksPagesEvictable(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	steps := 0
	prog := ProgramFunc(func(_ *Process, op *Op) {
		steps++
		switch steps {
		case 1:
			*op = Op{Mem: &MemOp{Offset: 0, Length: 8 << 20, Write: true}, Compute: 100 * time.Second}
			return
		default:
			*op = Op{Done: true}
			return
		}
	})
	p, _ := k.Spawn("w", 8<<20, prog, nil)
	eng.Schedule(time.Second, func() { k.Signal(p.PID(), SIGTSTP) })
	eng.RunUntil(2 * time.Second)
	if k.Memory().ResidentBytes(p.PID()) != 8<<20 {
		t.Fatal("pages should still be resident while stopped (no pressure)")
	}
	// Under pressure, the stopped process's pages go first: spawn a hog.
	hog := ProgramFunc(func(pr *Process, op *Op) {
		if pr.CPUTime() > 0 {
			*op = Op{Done: true}
			return
		}
		*op = Op{Mem: &MemOp{Offset: 0, Length: 60 << 20, Write: true}, Compute: time.Millisecond}
		return
	})
	k.Spawn("hog", 60<<20, hog, nil)
	eng.Run()
	if k.Memory().SwappedBytes(p.PID()) == 0 {
		t.Fatal("stopped process should have been paged out under pressure")
	}
}

func TestSIGKILLTerminatesImmediately(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	code := -1
	p, _ := k.Spawn("w", 4<<20, computeProgram(1, 10*time.Second, 0),
		func(_ *Process, c int) { code = c })
	eng.Schedule(3*time.Second, func() { k.Signal(p.PID(), SIGKILL) })
	eng.Run()
	if code != ExitKilled {
		t.Fatalf("exit code = %d, want %d", code, ExitKilled)
	}
	if eng.Now() != 3*time.Second {
		t.Fatalf("killed at %v, want 3s", eng.Now())
	}
	if k.Memory().ResidentBytes(p.PID()) != 0 {
		t.Fatal("memory should be released on kill")
	}
	if k.Processes() != 0 {
		t.Fatal("process table should be empty")
	}
}

func TestSIGKILLWhileStopped(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	code := -1
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, 10*time.Second, 0),
		func(_ *Process, c int) { code = c })
	eng.Schedule(2*time.Second, func() { k.Signal(p.PID(), SIGTSTP) })
	eng.Schedule(5*time.Second, func() { k.Signal(p.PID(), SIGKILL) })
	eng.Run()
	if code != ExitKilled {
		t.Fatalf("exit code = %d, want %d", code, ExitKilled)
	}
	if got := p.StoppedTime(); got != 3*time.Second {
		t.Fatalf("StoppedTime = %v, want 3s", got)
	}
}

func TestSignalUnknownPIDFails(t *testing.T) {
	_, k, _ := testKernel(t, 1)
	if err := k.Signal(99, SIGTSTP); err == nil {
		t.Fatal("want ErrNoSuchProcess")
	}
}

func TestDoubleStopAndDoubleContAreIdempotent(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, 10*time.Second, 0), nil)
	eng.Schedule(2*time.Second, func() {
		k.Signal(p.PID(), SIGTSTP)
		k.Signal(p.PID(), SIGTSTP)
	})
	eng.Schedule(4*time.Second, func() {
		k.Signal(p.PID(), SIGCONT)
		k.Signal(p.PID(), SIGCONT)
	})
	eng.Run()
	if p.Stops() != 1 || p.Conts() != 1 {
		t.Fatalf("Stops/Conts = %d/%d, want 1/1", p.Stops(), p.Conts())
	}
	// 2s + 2s stopped + 8s remaining = exit at 12s.
	if eng.Now() != 12*time.Second {
		t.Fatalf("exit at %v, want 12s", eng.Now())
	}
}

func TestSIGCONTOnRunningProcessIsNoop(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, 5*time.Second, 0), nil)
	eng.Schedule(time.Second, func() { k.Signal(p.PID(), SIGCONT) })
	eng.Run()
	if eng.Now() != 5*time.Second {
		t.Fatalf("exit at %v, want 5s", eng.Now())
	}
	if p.Conts() != 0 {
		t.Fatalf("Conts = %d, want 0", p.Conts())
	}
}

func TestTSTPHandlerRuns(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	handlerRan := false
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, 10*time.Second, 0), nil)
	p.Handle(SIGTSTP, func(*Process) time.Duration {
		handlerRan = true
		return 50 * time.Millisecond // closing network connections
	})
	eng.Schedule(time.Second, func() { k.Signal(p.PID(), SIGTSTP) })
	eng.Schedule(2*time.Second, func() { k.Signal(p.PID(), SIGCONT) })
	eng.Run()
	if !handlerRan {
		t.Fatal("SIGTSTP handler did not run")
	}
}

func TestSIGKILLCannotBeHandled(t *testing.T) {
	_, k, _ := testKernel(t, 1)
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, time.Second, 0), nil)
	if err := p.Handle(SIGKILL, func(*Process) time.Duration { return 0 }); err == nil {
		t.Fatal("handling SIGKILL should fail")
	}
}

func TestStopDuringIOAppliesAfterCompletion(t *testing.T) {
	eng, k, dev := testKernel(t, 1)
	steps := 0
	prog := ProgramFunc(func(_ *Process, op *Op) {
		steps++
		switch steps {
		case 1:
			// 100 MB at 100 MB/s = ~1s of I/O, then 5s compute.
			*op = Op{
				IO:      &IOOp{Device: dev, Kind: disk.Read, Bytes: 100 << 20, Stream: 1},
				Compute: 5 * time.Second,
			}
		default:
			*op = Op{Done: true}
			return
		}
	})
	var exitAt time.Duration
	p, _ := k.Spawn("w", 1<<20, prog, func(*Process, int) { exitAt = eng.Now() })
	// Signal arrives mid-I/O at 0.5s; the process stops when the I/O
	// completes (~1s) and resumes at 3s.
	eng.Schedule(500*time.Millisecond, func() { k.Signal(p.PID(), SIGTSTP) })
	eng.Schedule(3*time.Second, func() { k.Signal(p.PID(), SIGCONT) })
	eng.Run()
	// I/O ~1.001s + stopped until 3s + 5s compute = ~8s.
	if exitAt < 7900*time.Millisecond || exitAt > 8100*time.Millisecond {
		t.Fatalf("exit at %v, want ~8s", exitAt)
	}
}

func TestContBeforeIOCompletesCancelsStop(t *testing.T) {
	eng, k, dev := testKernel(t, 1)
	steps := 0
	prog := ProgramFunc(func(_ *Process, op *Op) {
		steps++
		switch steps {
		case 1:
			*op = Op{
				IO:      &IOOp{Device: dev, Kind: disk.Read, Bytes: 100 << 20, Stream: 1},
				Compute: 2 * time.Second,
			}
		default:
			*op = Op{Done: true}
			return
		}
	})
	var exitAt time.Duration
	p, _ := k.Spawn("w", 1<<20, prog, func(*Process, int) { exitAt = eng.Now() })
	eng.Schedule(200*time.Millisecond, func() { k.Signal(p.PID(), SIGTSTP) })
	eng.Schedule(400*time.Millisecond, func() { k.Signal(p.PID(), SIGCONT) })
	eng.Run()
	// The stop never took effect at a phase boundary: ~1s I/O + 2s compute.
	if exitAt < 2900*time.Millisecond || exitAt > 3200*time.Millisecond {
		t.Fatalf("exit at %v, want ~3s", exitAt)
	}
}

func TestMemoryTouchLatencyChargedToProcess(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	// First process dirties most of RAM and stops; second must reclaim.
	steps1 := 0
	prog1 := ProgramFunc(func(_ *Process, op *Op) {
		steps1++
		switch steps1 {
		case 1:
			*op = Op{Mem: &MemOp{Offset: 0, Length: 56 << 20, Write: true}, Compute: time.Hour}
			return
		default:
			*op = Op{Done: true}
			return
		}
	})
	p1, _ := k.Spawn("tl", 56<<20, prog1, nil)
	eng.RunUntil(time.Second)
	k.Signal(p1.PID(), SIGTSTP)

	var exitAt time.Duration
	start := eng.Now()
	steps2 := 0
	prog2 := ProgramFunc(func(_ *Process, op *Op) {
		steps2++
		switch steps2 {
		case 1:
			*op = Op{Mem: &MemOp{Offset: 0, Length: 40 << 20, Write: true}, Compute: time.Second}
			return
		default:
			*op = Op{Done: true}
			return
		}
	})
	k.Spawn("th", 40<<20, prog2, func(*Process, int) { exitAt = eng.Now() })
	eng.RunUntil(30 * time.Second)
	if exitAt == 0 {
		t.Fatal("th did not finish")
	}
	elapsed := exitAt - start
	if elapsed <= time.Second {
		t.Fatalf("th took %v, want > 1s (page-out latency must be charged)", elapsed)
	}
	if k.Memory().SwappedBytes(p1.PID()) == 0 {
		t.Fatal("tl should have been paged out")
	}
}

func TestOOMKillsLargestResident(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "sda", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20,
	})
	m, err := memory.New(eng, d, memory.Config{
		PageSize: 4096, RAMBytes: 16 << 20, SwapBytes: 1 << 20,
		PageClusterPages: 8, MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(eng, "node1", 1, m)
	hogProg := func() Program {
		steps := 0
		return ProgramFunc(func(_ *Process, op *Op) {
			steps++
			if steps == 1 {
				*op = Op{Mem: &MemOp{Offset: 0, Length: 12 << 20, Write: true}, Compute: time.Hour}
				return
			}
			*op = Op{Done: true}
			return
		})
	}
	code1 := -1
	k.Spawn("big", 12<<20, hogProg(), func(_ *Process, c int) { code1 = c })
	eng.RunUntil(time.Second)
	k.Spawn("second", 12<<20, hogProg(), nil)
	eng.RunUntil(10 * time.Second)
	if code1 != ExitOOM {
		t.Fatalf("big process exit = %d, want OOM kill (%d)", code1, ExitOOM)
	}
}

// TestOOMKillerBreaksResidentTiesOnPID: two writers fill a node that
// has no swap with equal resident sets, then a third process faults. The
// killer must pick the same writer every time, the newer one (larger
// pid), however the process table happens to iterate.
func TestOOMKillerBreaksResidentTiesOnPID(t *testing.T) {
	killed := make(map[string]int)
	for range 200 {
		eng := sim.New()
		d := disk.New(eng, "sda", disk.Config{
			SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20,
		})
		m, err := memory.New(eng, d, memory.Config{
			PageSize: 4096, RAMBytes: 16 << 20, PageClusterPages: 8, MinorFaultCost: time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernel(eng, "node1", 3, m)
		writer := func(n int64) Program {
			wrote := false
			return ProgramFunc(func(_ *Process, op *Op) {
				if wrote {
					*op = Op{Done: true}
					return
				}
				wrote = true
				*op = Op{Mem: &MemOp{Offset: 0, Length: n, Write: true}, Compute: time.Hour}
			})
		}
		onExit := func(p *Process, code int) {
			if code == ExitOOM {
				killed[p.Name()]++
			}
		}
		for _, name := range []string{"a", "b"} {
			if _, err := k.Spawn(name, 8<<20, writer(8<<20), onExit); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunUntil(time.Second)
		if _, err := k.Spawn("c", 4<<20, writer(4<<20), onExit); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(10 * time.Second)
	}
	if killed["b"] != 200 {
		t.Fatalf("OOM kills over 200 identical runs: %v, want b (the newer writer) every time", killed)
	}
}

// TestLoneProcessBeyondRAMAndSwapIsOOMKilled: a process that writes more
// than RAM plus swap is the only candidate when reclaim fails, so the
// OOM killer picks the toucher itself. It must exit with ExitOOM.
func TestLoneProcessBeyondRAMAndSwapIsOOMKilled(t *testing.T) {
	eng := sim.New()
	d := disk.New(eng, "sda", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20,
	})
	m, err := memory.New(eng, d, memory.Config{
		PageSize: 4096, RAMBytes: 16 << 20, SwapBytes: 1 << 20,
		PageClusterPages: 8, MinorFaultCost: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(eng, "node1", 1, m)
	code := -1
	wrote := false
	prog := ProgramFunc(func(_ *Process, op *Op) {
		if !wrote {
			wrote = true
			*op = Op{Mem: &MemOp{Offset: 0, Length: 32 << 20, Write: true}, Compute: time.Second}
			return
		}
		*op = Op{Done: true}
	})
	if _, err := k.Spawn("huge", 32<<20, prog, func(_ *Process, c int) { code = c }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if code != ExitOOM {
		t.Fatalf("exit = %d, want OOM kill (%d)", code, ExitOOM)
	}
	if m.FreeBytes() != 16<<20 || m.SwapUsedBytes() != 0 {
		t.Fatalf("free %d, swap used %d after the kill; want every frame free and no swap", m.FreeBytes(), m.SwapUsedBytes())
	}
}

func TestSpawnFailsWhenMemoryRegisterFails(t *testing.T) {
	_, k, _ := testKernel(t, 1)
	if _, err := k.Spawn("bad", -5, computeProgram(1, time.Second, 0), nil); err == nil {
		t.Fatal("negative memory should fail")
	}
}

func TestStateStrings(t *testing.T) {
	if StateRunning.String() != "running" || StateStopped.String() != "stopped" || StateExited.String() != "exited" {
		t.Fatal("state strings wrong")
	}
	if SIGTSTP.String() != "SIGTSTP" || SIGCONT.String() != "SIGCONT" ||
		SIGKILL.String() != "SIGKILL" || SIGTERM.String() != "SIGTERM" {
		t.Fatal("signal strings wrong")
	}
}

func TestExitCallbackDeliveredOnce(t *testing.T) {
	eng, k, _ := testKernel(t, 1)
	calls := 0
	p, _ := k.Spawn("w", 1<<20, computeProgram(1, time.Second, 0),
		func(*Process, int) { calls++ })
	eng.Schedule(2*time.Second, func() { k.Signal(p.PID(), SIGKILL) }) // already exited
	eng.Run()
	if calls != 1 {
		t.Fatalf("onExit calls = %d, want 1", calls)
	}
}

func TestSuspendResumeCyclePreservesTotalWork(t *testing.T) {
	// Property-style check: for several suspend points, total CPU time is
	// unchanged and wall time = work + stopped interval.
	for _, stopAt := range []time.Duration{1 * time.Second, 3 * time.Second, 7 * time.Second} {
		eng, k, _ := testKernel(t, 1)
		var exitAt time.Duration
		p, _ := k.Spawn("w", 1<<20, computeProgram(1, 8*time.Second, 0),
			func(*Process, int) { exitAt = eng.Now() })
		resumeAt := stopAt + 2*time.Second
		eng.Schedule(stopAt, func() { k.Signal(p.PID(), SIGTSTP) })
		eng.Schedule(resumeAt, func() { k.Signal(p.PID(), SIGCONT) })
		eng.Run()
		want := 10 * time.Second // 8s work + 2s stopped
		if exitAt != want {
			t.Fatalf("stopAt=%v: exit at %v, want %v", stopAt, exitAt, want)
		}
		if got := p.CPUTime(); got < 8*time.Second-time.Millisecond || got > 8*time.Second+time.Millisecond {
			t.Fatalf("stopAt=%v: CPUTime = %v, want ~8s", stopAt, got)
		}
	}
}
