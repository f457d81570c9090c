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

// stretchPage is the page size of the stretch scripts' nodes.
const stretchPage = 4096

// stretchScript is a random workload for one kernel whose processes touch
// regions of their address spaces chunk by chunk between plain ops of
// sleep, memory, disk and compute. Times lie on a 1 ms grid, and so do the
// minor-fault cost and every compute, so op ends tie with spawns, signals,
// cache fills and deadlines.
type stretchScript struct {
	cores                           int
	ramPages, swapPages, cachePages int
	faultCost                       time.Duration
	procs                           []stretchProc
	sigs                            []scriptSig
	fills                           []cacheFill
	deadlines                       []time.Duration
}

type stretchProc struct {
	at     time.Duration
	mem    int64
	phases []stretchPhase
}

// stretchPhase is either a region [from, to) touched chunk bytes at a
// time, each op computing compute (lastCompute for a shorter last chunk),
// or, with chunk 0, op repeated repeat times.
type stretchPhase struct {
	from, to, chunk      int64
	write                bool
	compute, lastCompute time.Duration
	op                   Op
	repeat               int
}

// cacheFill takes free frames for the page cache at a set time.
type cacheFill struct {
	at    time.Duration
	pages int
}

// intner draws a script's choices: a seeded RNG in the test, the fuzzer's
// bytes in FuzzBatchedOps.
type intner interface{ Intn(n int) int }

// byteDraws draws from a byte string, as many bytes a draw as its range
// needs; once the bytes run out every draw is 0.
type byteDraws struct{ b []byte }

func (d *byteDraws) Intn(n int) int {
	v := 0
	for r := 1; r < n && len(d.b) > 0; r <<= 8 {
		v = v<<8 | int(d.b[0])
		d.b = d.b[1:]
	}
	return v % n
}

func randomStretchScript(d intner) stretchScript {
	grid := func(n int) time.Duration { return time.Duration(d.Intn(n)) * time.Millisecond }
	s := stretchScript{
		cores:      1 + d.Intn(3),
		ramPages:   16 + d.Intn(64),
		swapPages:  []int{0, 64, 512}[d.Intn(3)],
		cachePages: []int{0, 8}[d.Intn(2)],
		faultCost:  grid(2),
	}
	n := 1 + d.Intn(5)
	for range n {
		p := stretchProc{at: grid(150), mem: int64(8+d.Intn(56)) * stretchPage}
		for range 2 + d.Intn(8) {
			p.phases = append(p.phases, randomPhase(d, p.mem))
		}
		s.procs = append(s.procs, p)
	}
	for range d.Intn(4 * n) {
		sig := []Signal{SIGTSTP, SIGTSTP, SIGCONT, SIGCONT, SIGKILL}[d.Intn(5)]
		s.sigs = append(s.sigs, scriptSig{at: grid(400), proc: d.Intn(n), sig: sig})
	}
	for range d.Intn(4) {
		s.fills = append(s.fills, cacheFill{at: grid(400), pages: 1 + d.Intn(16)})
	}
	for range d.Intn(5) {
		s.deadlines = append(s.deadlines, grid(500))
	}
	slices.Sort(s.deadlines)
	return s
}

// randomPhase draws a phase of a process with a space of mem bytes. Half
// the regions start on a page boundary; chunks are half a page to three
// pages long, page multiples half the time.
func randomPhase(d intner, mem int64) stretchPhase {
	grid := func(n int) time.Duration { return time.Duration(d.Intn(n)) * time.Millisecond }
	if d.Intn(4) == 0 {
		op := Op{Sleep: grid(3), Compute: grid(3)}
		if d.Intn(2) == 0 {
			off := int64(d.Intn(int(mem)))
			op.Mem = &MemOp{Offset: off, Length: 1 + int64(d.Intn(int(mem-off))), Write: d.Intn(2) == 0}
		}
		if d.Intn(4) == 0 {
			op.IO = &IOOp{Kind: disk.Read, Bytes: int64(1+d.Intn(4)) * stretchPage}
		}
		return stretchPhase{op: op, repeat: 1 + d.Intn(3)}
	}
	from := int64(d.Intn(int(mem)))
	if d.Intn(2) == 0 {
		from &^= stretchPage - 1
	}
	ph := stretchPhase{
		from:        from,
		to:          from + 1 + int64(d.Intn(int(mem-from))),
		chunk:       stretchPage/2 + int64(d.Intn(5*stretchPage/2)),
		write:       d.Intn(2) == 0,
		compute:     grid(4),
		lastCompute: grid(4),
	}
	if d.Intn(2) == 0 {
		ph.chunk = int64(1+d.Intn(3)) * stretchPage
	}
	return ph
}

// stretchRun is one run of a script: its log and, with stretches on, what
// it foresaw and saw of them.
type stretchRun struct {
	eng      *sim.Engine
	m        *memory.Manager
	k        *Kernel
	dev      *disk.Device
	cost     time.Duration
	deadline time.Duration // of the StepUntil calls being made
	probe    func()
	log      []string
	final    string
	// Stretches run and the chunks they held; stretches foreseen wrongly
	// (must stay 0); and why stretches were cut before their end: the
	// compute set full, a chunk past the deadline or the queue's root, a
	// swapped page, too few free frames.
	stretches, batched, mispredicted                int
	cutBusy, cutDeadline, cutHeap, cutSwap, cutFree int
	// Chunks the kernel counted at once, over uniform pages, and the bound
	// that ended each such count: the horizon, the free frames, the op's
	// last whole chunk.
	counted, byHorizon, byFree, byEnd int
}

// note logs an entry with the clock and the sequence counter, which it
// reads from a probe queued past every event and cancelled at once: the
// probe takes a sequence number, the same one in every form of the run.
func (r *stretchRun) note(format string, args ...any) {
	probe := r.eng.At(math.MaxInt64, r.probe)
	r.log = append(r.log, fmt.Sprintf(format, args...)+fmt.Sprintf("@%v seq%d", r.eng.Now(), probe.Seq()))
	probe.Cancel()
}

// seen checks a stretch the kernel weighs (stretchSeen) against what run
// foresees of it, and counts it.
func (r *stretchRun) seen(p *Process, n, counted int) {
	if wn, wc := r.foresee(p); wn != n || wc != counted {
		r.mispredicted++
	}
	if n >= 2 {
		r.stretches++
		r.batched += n
	}
	r.counted += counted
}

// foresee predicts, from outside the kernel, how many chunks of p's op in
// hand the kernel runs as one stretch from p's cursor, walking them chunk
// by chunk, and counts why it cuts the stretch there. It also predicts
// how many of them the kernel counts at once: the whole chunks, where the
// rest of the op starts on a page boundary, its chunks are whole pages and
// its pages, asked one by one, are all untouched or all resident. It
// counts the bound that ends those: the op's last whole chunk, or the cut.
func (r *stretchRun) foresee(p *Process) (n, counted int) {
	if len(r.k.active) >= r.k.cores {
		r.cutBusy++
		return 0, 0
	}
	h, ok := r.eng.Horizon()
	if !ok {
		*r.past(r.eng.Now())++
		return 0, 0
	}
	free := int(r.m.FreeBytes() / stretchPage)
	op := &p.op
	end, faults := r.eng.Now(), 0
	from, to := op.Mem.Offset+p.done, op.Mem.Offset+op.Mem.Length
	var cut *int // the count of the reason the stretch stops short of to
	for lo, at := from, from; at < to && cut == nil; {
		hi := min(at+op.Chunk, to)
		c := max(op.Compute, 0)
		if hi-at < op.Chunk {
			c = max(op.LastCompute, 0)
		}
		f, ok := r.m.Untouched(p.PID(), lo, hi-lo)
		e := end + max(time.Duration(f)*r.cost, 0) + c
		switch {
		case end+c > h:
			cut = r.past(end + c)
		case !ok:
			cut = &r.cutSwap
		case faults+f > free:
			cut = &r.cutFree
		case e > h:
			cut = r.past(e)
		default:
			end, faults, n = e, faults+f, n+1
			at, lo = hi, (hi+stretchPage-1)&^(stretchPage-1)
		}
	}
	if cut != nil {
		*cut++
	}
	if (from|op.Chunk)%stretchPage != 0 || !r.uniform(p, from, to) {
		return n, 0
	}
	whole := int((to - from) / op.Chunk)
	counted = min(n, whole)
	switch {
	case counted == whole:
		r.byEnd++
	case cut == &r.cutFree:
		r.byFree++
	default:
		r.byHorizon++
	}
	return n, counted
}

// past is the count of the cut of a chunk that would end at end, past the
// horizon: the StepUntil deadline, or the queue's root.
func (r *stretchRun) past(end time.Duration) *int {
	if end > r.deadline || r.eng.Now() >= r.deadline {
		return &r.cutDeadline
	}
	return &r.cutHeap
}

// uniform reports whether the pages of p's [from, to), from a page
// boundary, are all untouched or all resident, asking page by page.
func (r *stretchRun) uniform(p *Process, from, to int64) bool {
	first := -1
	for pg := from; pg < to; pg += stretchPage {
		f, ok := r.m.Untouched(p.PID(), pg, min(stretchPage, to-pg))
		if !ok || first >= 0 && f != first {
			return false
		}
		first = f
	}
	return true
}

// regionProgram runs a list of phases. With chunked set it returns each
// region as one chunked op; otherwise it returns the region's chunks one
// op at a time, as plain ops. With run set it logs every phase's start;
// plain phases with disk I/O need run, for its device.
type regionProgram struct {
	run     *stretchRun
	chunked bool
	id      int
	phases  []stretchPhase
	i, rep  int   // the phase in hand and, in a plain one, ops returned
	cur     int64 // next chunk's offset in a region
	mem     MemOp
	io      IOOp
}

func (g *regionProgram) Next(p *Process, op *Op) {
	for g.i < len(g.phases) {
		ph := &g.phases[g.i]
		switch {
		case ph.chunk == 0 && g.rep < ph.repeat:
			g.start(p, g.rep == 0)
			g.rep++
			*op = ph.op
			if op.Mem != nil {
				g.mem = *op.Mem
				op.Mem = &g.mem
			}
			if op.IO != nil {
				g.io = *op.IO
				g.io.Device = g.run.dev
				op.IO = &g.io
			}
			return
		case ph.chunk > 0 && g.cur < ph.to && g.chunked:
			g.start(p, true)
			g.mem = MemOp{Offset: g.cur, Length: ph.to - g.cur, Write: ph.write}
			*op = Op{Mem: &g.mem, Chunk: ph.chunk, Compute: ph.compute, LastCompute: ph.lastCompute}
			g.cur = ph.to
			return
		case ph.chunk > 0 && g.cur < ph.to:
			g.start(p, g.cur == ph.from)
			length, c := min(ph.chunk, ph.to-g.cur), ph.compute
			if length < ph.chunk {
				c = ph.lastCompute
			}
			g.mem = MemOp{Offset: g.cur, Length: length, Write: ph.write}
			*op = Op{Mem: &g.mem, Compute: c}
			g.cur += length
			return
		}
		g.i, g.rep = g.i+1, 0
		if g.i < len(g.phases) {
			g.cur = g.phases[g.i].from
		}
	}
	*op = Op{Done: true, ExitCode: g.id}
}

// start logs the start of the phase in hand, with the CPU time then.
func (g *regionProgram) start(p *Process, first bool) {
	if first && g.run != nil {
		g.run.note("p%d phase%d cpu %v", g.id, g.i, p.CPUTime())
	}
}

// run runs the script, its regions as chunked ops or one plain op a chunk,
// with stretches on or off, stepping the engine event by event to each
// deadline and then dry. It logs the clock and the sequence counter after
// every dispatch, every phase start (with the CPU time), signal, cache
// fill and exit, and at every deadline each process's CPU time and paging
// counters, the manager's counters and its layout.
func (s stretchScript) run(chunked, stretched bool) *stretchRun {
	defer func(v bool, f func(*Process, int, int)) { stretchOps, stretchSeen = v, f }(stretchOps, stretchSeen)
	eng := sim.New()
	dev := disk.New(eng, "sda", disk.Config{
		SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20,
	})
	m, err := memory.New(eng, dev, memory.Config{
		PageSize: stretchPage, RAMBytes: int64(s.ramPages) * stretchPage,
		InitialCacheBytes: int64(s.cachePages) * stretchPage, SwapBytes: int64(s.swapPages) * stretchPage,
		PageClusterPages: 4, MinorFaultCost: s.faultCost,
	})
	if err != nil {
		panic(err)
	}
	k := NewKernel(eng, "node1", s.cores, m)
	r := &stretchRun{eng: eng, m: m, k: k, dev: dev, cost: s.faultCost, probe: func() {}}
	stretchOps, stretchSeen = stretched, r.seen
	procs := make([]*Process, len(s.procs))
	for i, sp := range s.procs {
		eng.At(sp.at, func() {
			prog := &regionProgram{run: r, chunked: chunked, id: i, phases: sp.phases, cur: sp.phases[0].from}
			p, err := k.Spawn(fmt.Sprintf("p%d", i), sp.mem, prog, func(p *Process, code int) {
				r.note("p%d exit %d %+v", i, code, p.MemoryStats())
			})
			if err != nil {
				panic(err)
			}
			procs[i] = p
		})
	}
	for _, sg := range s.sigs {
		eng.At(sg.at, func() {
			if p := procs[sg.proc]; p != nil {
				r.note("p%d %v: %v", sg.proc, sg.sig, k.Signal(p.PID(), sg.sig))
			}
		})
	}
	for _, f := range s.fills {
		eng.At(f.at, func() {
			m.CacheFill(int64(f.pages) * stretchPage)
			r.note("fill %d: free %d", f.pages, m.FreeBytes())
		})
	}
	state := func(when string) {
		for i, p := range procs {
			if p != nil {
				r.note("%s: p%d %v cpu %v %+v", when, i, p.State(), p.CPUTime(), p.MemoryStats())
			}
		}
		layout, err := m.Layout()
		r.note("%s: %+v %v\n%s", when, m.Stats(), err, layout)
	}
	for _, dl := range append(s.deadlines, math.MaxInt64) {
		r.deadline = dl
		for eng.StepUntil(dl) {
			r.note("step")
		}
		if dl < math.MaxInt64 {
			eng.RunUntil(dl)
			state("until")
		}
	}
	state("end")
	for i, p := range procs {
		if p == nil {
			r.final += fmt.Sprintf("p%d never spawned\n", i)
			continue
		}
		r.final += fmt.Sprintf("p%d %v cpu %v stopped %v stops %d conts %d exited %v code %d\n",
			i, p.State(), p.CPUTime(), p.StoppedTime(), p.Stops(), p.Conts(), p.exitedAt, p.ExitCode())
	}
	k.Release()
	m.Release()
	eng.Release()
	return r
}

// compareStretchRuns runs s three ways: every chunk of a region returned
// by Next as a plain op, the reference; each region as one chunked op,
// with stretches off; and so with stretches on. It reports how the latter
// two differ from the reference, if they do, and the run with stretches.
func compareStretchRuns(s stretchScript) (*stretchRun, string) {
	want := s.run(false, false)
	got := s.run(true, true)
	if diff := diffStretchRuns(s.run(true, false), want, "chunked"); diff != "" {
		return got, diff
	}
	if diff := diffStretchRuns(got, want, "stretches"); diff != "" {
		return got, diff
	}
	if got.mispredicted > 0 {
		return got, fmt.Sprintf("%d stretches were not the ones foreseen", got.mispredicted)
	}
	return got, ""
}

// diffStretchRuns reports how run got, named name, differs from want, the
// run of plain ops one at a time, if it does.
func diffStretchRuns(got, want *stretchRun, name string) string {
	for i := range max(len(got.log), len(want.log)) {
		if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
			at := func(log []string) string {
				if i < len(log) {
					return log[i]
				}
				return "(end)"
			}
			return fmt.Sprintf("entry %d of the log differs:\n%s %s\none by one %s\n(%d entries before agree; last: %v)",
				i, name, at(got.log), at(want.log), i, got.log[max(i-3, 0):i])
		}
	}
	if got.final != want.final {
		return fmt.Sprintf("final state differs:\n%s\n%s\none by one\n%s", name, got.final, want.final)
	}
	return ""
}

// TestStretchesMatchOneOpAtATime runs random kernel scripts with each
// region returned as one chunked op, with stretches on and off, and
// requires the same run as with its chunks returned one plain op at a
// time: the clock and the sequence counter after every event; every phase start, with the CPU time then; signals,
// cache fills and exits; at every deadline each process's CPU time and
// paging counters, the manager's counters and its layout, the runs and
// stacks that Manager.Layout checks and describes; and the final
// accounting. The scripts' regions start off page boundaries and have
// chunks that are not whole pages; spaces are partly touched, swapped or
// stopped when a region runs; cache fills and competing processes run
// free frames down; ops end on instants where other events are due; and
// RunUntil deadlines fall among the ops. Floors make sure stretches run
// and that each of the kernel's cuts happens: a chunk past the deadline or
// the queue's root, a swapped page, too few free frames.
func TestStretchesMatchOneOpAtATime(t *testing.T) {
	rng := sim.NewRNG(47)
	var floors stretchRun
	for trial := range 2500 {
		s := randomStretchScript(rng)
		got, diff := compareStretchRuns(s)
		if diff != "" {
			t.Fatalf("trial %d (%d cores, %d processes, %d RAM pages, deadlines %v): %s", trial, s.cores, len(s.procs), s.ramPages, s.deadlines, diff)
		}
		floors.stretches += got.stretches
		floors.batched += got.batched
		floors.cutBusy += got.cutBusy
		floors.cutDeadline += got.cutDeadline
		floors.cutHeap += got.cutHeap
		floors.cutSwap += got.cutSwap
		floors.cutFree += got.cutFree
		floors.counted += got.counted
		floors.byHorizon += got.byHorizon
		floors.byFree += got.byFree
		floors.byEnd += got.byEnd
	}
	t.Logf("%d chunks in %d stretches; stretches cut by %d deadlines, %d queued entries, %d swapped pages, %d free-frame shortfalls (%d compute sets full)",
		floors.batched, floors.stretches, floors.cutDeadline, floors.cutHeap, floors.cutSwap, floors.cutFree, floors.cutBusy)
	t.Logf("%d chunks counted at once; counts ended by %d horizons, %d free-frame shortfalls, %d last whole chunks",
		floors.counted, floors.byHorizon, floors.byFree, floors.byEnd)
	if floors.stretches < 10000 || floors.batched < 50000 || floors.cutDeadline < 800 || floors.cutHeap < 20000 ||
		floors.cutSwap < 2500 || floors.cutFree < 4000 ||
		floors.counted < 6000 || floors.byHorizon < 3000 || floors.byFree < 600 || floors.byEnd < 1200 {
		t.Fatal("too few cases exercised")
	}
}

// FuzzBatchedOps draws stretch scripts from the fuzzer's bytes and requires
// the same run of chunked ops, with stretches on and off, as of plain ops
// one at a time, as TestStretchesMatchOneOpAtATime does for seeded ones.
func FuzzBatchedOps(f *testing.F) {
	rng := sim.NewRNG(53)
	for range 8 {
		seed := make([]byte, 96)
		for i := range seed {
			seed[i] = byte(rng.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := randomStretchScript(&byteDraws{b: data})
		if _, diff := compareStretchRuns(s); diff != "" {
			t.Fatalf("%d cores, %d processes, %d RAM pages, deadlines %v: %s", s.cores, len(s.procs), s.ramPages, s.deadlines, diff)
		}
	})
}

// BenchmarkOpBatch runs a lone process that allocates 2 GB in 8 MB chunks
// and reads them back, each pass one chunked op: 512 chunks, run as two
// stretches.
func BenchmarkOpBatch(b *testing.B) {
	b.ReportAllocs()
	stretches := 0
	defer func(f func(*Process, int, int)) { stretchSeen = f }(stretchSeen)
	stretchSeen = func(_ *Process, n, _ int) {
		if n >= 2 {
			stretches++
		}
	}
	const size, chunk = 2 << 30, 8 << 20
	touch := chunk * time.Second / (2 << 30)
	phases := []stretchPhase{
		{to: size, chunk: chunk, write: true, compute: touch},
		{to: size, chunk: chunk, compute: touch},
	}
	for range b.N {
		eng := sim.New()
		d := disk.New(eng, "sda", disk.Config{SeekTime: time.Millisecond, ReadBandwidth: 100 << 20, WriteBandwidth: 100 << 20})
		m, err := memory.New(eng, d, memory.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		k := NewKernel(eng, "node1", 4, m)
		stretches = 0
		if _, err := k.Spawn("w", size, &regionProgram{chunked: true, phases: phases}, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
		if stretches != 2 {
			b.Fatalf("%d stretches, want 2", stretches)
		}
		k.Release()
		m.Release()
		eng.Release()
	}
}
