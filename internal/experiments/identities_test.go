package experiments

import (
	"fmt"
	"testing"
	"time"

	"hadooppreempt/internal/core"
	"hadooppreempt/internal/mapreduce"
)

// rpcDelay is the cost of one heartbeat RPC exchange (mapreduce's
// rpcDelay): an out-of-band heartbeat follows a freed slot by this much.
const rpcDelay = 10 * time.Millisecond

// pairedRun is one seed's wait, susp and kill runs of a two-job setup.
type pairedRun struct {
	wait, susp, kill *TwoJobResult
}

// runPaired runs the two-job scenario under wait, susp and kill with the
// same seed.
func runPaired(t *testing.T, p TwoJobParams) pairedRun {
	t.Helper()
	run := func(prim core.Primitive) *TwoJobResult {
		p.Primitive = prim
		out, err := RunTwoJob(p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return pairedRun{wait: run(core.Wait), susp: run(core.Suspend), kill: run(core.Kill)}
}

// sameValue records v under key and fails if key already holds another
// value.
func sameValue(t *testing.T, seen map[string]time.Duration, key string, v time.Duration) {
	t.Helper()
	if old, ok := seen[key]; ok && old != v {
		t.Fatalf("%s: %v here, %v elsewhere", key, v, old)
	}
	seen[key] = v
}

// TestTwoJobPairedSeedIdentities pins the exact structure the two-job
// grids hold wherever nothing pages: all of twojob (r = 10..90%) and
// pressure's th_mem_mb 0 and 1024 (2 GB tl, r = 25, 50, 75%), at seeds
// 1-8, each seed run under wait, susp and kill. The timeline behind each
// relation, with L tl's launch (its first heartbeat), S the heartbeat at
// which tl's reported progress reaches r (th's submission), R a lone
// task's run time from launch to exit, and every freed slot answered by
// an out-of-band heartbeat rpcDelay later:
//
//   - wait: tl runs [L, L+R], th launches rpcDelay after tl exits and its
//     job completes rpcDelay after th exits, so the makespan is
//     L + R_tl + R_th + 2 rpcDelay.
//   - susp: th launches rpcDelay after the SIGTSTP at S; its completion
//     (rpcDelay after its exit) resumes tl, whose input stream then pays
//     one more disk seek, and tl's job completes rpcDelay after its exit.
//     So susp's makespan is wait's plus rpcDelay + SeekTime, and th's
//     sojourn is R_th + 2 rpcDelay.
//   - kill: the cleanup attempt holds the slot for CleanupCost after S,
//     then th runs as under susp and tl reruns from scratch. So kill's
//     makespan is wait's plus (S - L) + CleanupCost + rpcDelay, where
//     S - L is a whole number of heartbeat intervals that depends on tl
//     and r alone, and th's sojourn is susp's plus CleanupCost.
//
// Where tl and th are the same task (twojob), R_tl = R_th, which ties
// th's sojourn under susp to wait's makespan. susp and wait waste no CPU,
// and no task swaps in more than it swapped out.
func TestTwoJobPairedSeedIdentities(t *testing.T) {
	cfg := mapreduce.DefaultClusterConfig()
	hb, cleanup, seek := cfg.Engine.HeartbeatInterval, cfg.Engine.CleanupCost, cfg.Node.Disk.SeekTime
	type setup struct {
		name         string
		tlMem, thMem int64
		rs           []float64
	}
	setups := []setup{{name: "twojob", rs: ProgressSweep()}}
	for _, mb := range []int64{0, 1024} {
		setups = append(setups, setup{fmt.Sprintf("pressure th_mem_mb %d", mb), WorstCaseMemory, mb << 20, []float64{25, 50, 75}})
	}
	// kill's extra makespan depends on tl alone: on its memory and r.
	killExtras := make(map[string]time.Duration)
	killKey := func(s setup, r float64) string {
		return fmt.Sprintf("kill - wait makespan with %d MB tl at r=%v", s.tlMem>>20, r)
	}
	for _, s := range setups {
		seen := make(map[string]time.Duration)
		for _, r := range s.rs {
			for seed := uint64(1); seed <= 8; seed++ {
				p := DefaultTwoJobParams()
				p.PreemptAt, p.Seed, p.TLExtraMemory, p.THExtraMemory = r/100, seed, s.tlMem, s.thMem
				o := runPaired(t, p)
				at := fmt.Sprintf("%s r=%v seed %d", s.name, r, seed)
				for prim, out := range map[string]*TwoJobResult{"wait": o.wait, "susp": o.susp, "kill": o.kill} {
					if out.SwapInTL > out.SwapOutTL || out.SwapInTH > out.SwapOutTH {
						t.Fatalf("%s %s: swapped in more than out: tl %d > %d or th %d > %d",
							at, prim, out.SwapInTL, out.SwapOutTL, out.SwapInTH, out.SwapOutTH)
					}
				}
				if o.wait.WastedWork != 0 || o.susp.WastedWork != 0 {
					t.Fatalf("%s: wait wasted %v and susp %v of CPU", at, o.wait.WastedWork, o.susp.WastedWork)
				}
				if d := o.susp.Makespan - o.wait.Makespan; d != rpcDelay+seek {
					t.Fatalf("%s: susp makespan exceeds wait's by %v, want rpcDelay + SeekTime = %v", at, d, rpcDelay+seek)
				}
				killExtra := o.kill.Makespan - o.wait.Makespan
				sameValue(t, killExtras, killKey(s, r), killExtra)
				sl := killExtra - cleanup - rpcDelay
				if sl <= 0 || sl%hb != 0 {
					t.Fatalf("%s: kill makespan exceeds wait's by %v, not CleanupCost + rpcDelay + a whole number of %v heartbeats",
						at, killExtra, hb)
				}
				sameValue(t, seen, "susp th sojourn", o.susp.SojournTH)
				if d := o.kill.SojournTH - o.susp.SojournTH; d != cleanup {
					t.Fatalf("%s: th's sojourn under kill exceeds susp's by %v, want CleanupCost = %v", at, d, cleanup)
				}
				if s.tlMem == s.thMem {
					// tl and th are the same task: wait's makespan is
					// L + 2 R + 2 rpcDelay, and L = S - (S - L).
					launch := o.susp.THSubmittedAt - sl
					if got, want := 2*o.susp.SojournTH, o.wait.Makespan-launch+2*rpcDelay; got != want {
						t.Fatalf("%s: twice th's susp sojourn is %v, want wait's makespan - L + 2 rpcDelay = %v", at, got, want)
					}
				}
			}
		}
		t.Logf("%s: susp th sojourn %v, %s: %v", s.name, seen["susp th sojourn"], killKey(s, s.rs[0]), killExtras[killKey(s, s.rs[0])])
	}
}

// TestTwoJobIdentitiesFollowTheirParameters moves the seek time and the
// cleanup cost and checks that susp's and kill's extra makespans over
// wait's move with them, as TestTwoJobPairedSeedIdentities derives them.
func TestTwoJobIdentitiesFollowTheirParameters(t *testing.T) {
	base := mapreduce.DefaultClusterConfig()
	cfg := base
	cfg.Node.Disk.SeekTime = 3 * time.Millisecond
	cfg.Engine.CleanupCost = 700 * time.Millisecond
	p := DefaultTwoJobParams()
	p.Seed = 3
	o := runPaired(t, p)
	p.Cluster = &cfg
	moved := runPaired(t, p)
	if d := moved.susp.Makespan - moved.wait.Makespan; d != rpcDelay+cfg.Node.Disk.SeekTime {
		t.Fatalf("with a %v seek, susp's makespan exceeds wait's by %v", cfg.Node.Disk.SeekTime, d)
	}
	if got, want := moved.kill.Makespan-moved.wait.Makespan, o.kill.Makespan-o.wait.Makespan+cfg.Engine.CleanupCost-base.Engine.CleanupCost; got != want {
		t.Fatalf("with a %v cleanup, kill's makespan exceeds wait's by %v, want %v", cfg.Engine.CleanupCost, got, want)
	}
}

// TestPagingCellBooksWhatItsNodePaged checks the paging grids' books
// against their node's counters, over 2 GB tl and th of 0, 1024, 2048 or
// 2560 MB, r = 25, 50 and 75%, seeds 1-3, each under wait, susp and kill:
// 108 runs, 18 of which page.
//
//   - tl's and th's booked swap-out bytes sum to the bytes the node's
//     memory manager paged out, their swap-in bytes to those it paged in,
//     and no task swaps in more than it swapped out.
//   - The disk wrote exactly the paged-out bytes: these map-only jobs
//     write no output.
//   - Under wait and susp, which read each input once, the disk read both
//     inputs and the paged-in bytes.
//   - susp's makespan exceeds wait's by at least the time the disk takes
//     to read the paged-in bytes.
func TestPagingCellBooksWhatItsNodePaged(t *testing.T) {
	bw := mapreduce.DefaultClusterConfig().Node.Disk.ReadBandwidth
	paging := 0
	for _, thMB := range []int64{0, 1024, 2048, 2560} {
		for _, r := range []float64{25, 50, 75} {
			for seed := uint64(1); seed <= 3; seed++ {
				p := DefaultTwoJobParams()
				p.PreemptAt, p.Seed, p.TLExtraMemory, p.THExtraMemory = r/100, seed, WorstCaseMemory, thMB<<20
				o := runPaired(t, p)
				at := fmt.Sprintf("th %d MB r=%v seed %d", thMB, r, seed)
				for prim, out := range map[string]*TwoJobResult{"wait": o.wait, "susp": o.susp, "kill": o.kill} {
					m, d := out.Memory, out.Disk
					if out.SwapOutTL+out.SwapOutTH != m.PagedOutBytes || out.SwapInTL+out.SwapInTH != m.PagedInBytes {
						t.Fatalf("%s %s: tasks booked %d + %d bytes out and %d + %d in, the node paged %d out and %d in",
							at, prim, out.SwapOutTL, out.SwapOutTH, out.SwapInTL, out.SwapInTH, m.PagedOutBytes, m.PagedInBytes)
					}
					if out.SwapInTL > out.SwapOutTL || out.SwapInTH > out.SwapOutTH {
						t.Fatalf("%s %s: swapped in more than out: tl %d > %d or th %d > %d",
							at, prim, out.SwapInTL, out.SwapOutTL, out.SwapInTH, out.SwapOutTH)
					}
					if d.BytesWritten != m.PagedOutBytes {
						t.Fatalf("%s %s: the disk wrote %d bytes, the node paged out %d", at, prim, d.BytesWritten, m.PagedOutBytes)
					}
					if prim != "kill" && d.BytesRead != 2*p.InputBytes+m.PagedInBytes {
						t.Fatalf("%s %s: the disk read %d bytes, want two %d-byte inputs and %d paged in",
							at, prim, d.BytesRead, p.InputBytes, m.PagedInBytes)
					}
					if m.PagedOutBytes > 0 {
						paging++
					}
				}
				in := o.susp.Memory.PagedInBytes
				if extra, bound := o.susp.Makespan-o.wait.Makespan, time.Duration(float64(in)/bw*float64(time.Second)); extra < bound {
					t.Fatalf("%s: susp's makespan exceeds wait's by %v, less than the %v its %d paged-in bytes take to read",
						at, extra, bound, in)
				}
			}
		}
	}
	t.Logf("%d of 108 runs paged", paging)
	if paging < 18 {
		t.Fatalf("%d runs paged, want at least 18", paging)
	}
}
