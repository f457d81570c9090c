// Memorypressure: the paper's worst case (§IV-C) — stateful tasks that
// allocate 2 GB each on a 4 GB node, so suspending one and running the
// other forces the OS to page the suspended task out. The example prints
// the paging traffic and where the suspend primitive's overhead lands
// relative to kill and wait (the Figure 3 / Figure 4 story).
//
//	go run ./examples/memorypressure
package main

import (
	"fmt"
	"log"
	"time"

	hp "hadooppreempt"
	"hadooppreempt/internal/experiments"
	"hadooppreempt/internal/sweep"
)

func main() {
	fmt.Println("worst case: tl and th each write 2 GB of state on a 4 GB node")
	fmt.Println()
	fmt.Printf("%-8s %14s %12s %14s %14s\n", "primitive", "th sojourn", "makespan", "tl paged out", "tl paged in")

	type row struct {
		prim     hp.Primitive
		sojourn  time.Duration
		makespan time.Duration
		out, in  int64
	}
	var rows []row
	for _, prim := range []hp.Primitive{hp.Wait, hp.Kill, hp.Suspend} {
		p := hp.DefaultTwoJobParams()
		p.Primitive = prim
		p.PreemptAt = 0.5
		p.TLExtraMemory = 2 << 30
		p.THExtraMemory = 2 << 30
		out, err := hp.RunTwoJob(p)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{prim, out.SojournTH, out.Makespan, out.SwapOutTL, out.SwapInTL})
		fmt.Printf("%-8v %13.1fs %11.1fs %13dM %13dM\n",
			prim, out.SojournTH.Seconds(), out.Makespan.Seconds(),
			out.SwapOutTL>>20, out.SwapInTL>>20)
	}
	fmt.Println()
	susp, kill, wait := rows[2], rows[1], rows[0]
	fmt.Printf("suspension paged %d MB of tl's state through swap, costing\n",
		(susp.out+susp.in)>>20)
	fmt.Printf("  +%.1fs sojourn vs kill and +%.1fs makespan vs wait —\n",
		(susp.sojourn - kill.sojourn).Seconds(), (susp.makespan - wait.makespan).Seconds())
	fmt.Println("  still the only primitive close to best on BOTH metrics.")
	fmt.Println()
	fmt.Println("sweep th's allocation (Figure 4): overhead is linear in swapped bytes")
	res, err := experiments.RunFigure("4", 1, sweep.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%12s %12s %14s %14s\n", "th memory", "paged (MB)", "sojourn ovh", "makespan ovh")
	for _, pt := range res.(*experiments.Figure4Result).Points {
		fmt.Printf("%11dM %12.0f %13.1fs %13.1fs\n",
			pt.THMemoryBytes>>20, pt.PagedMB, pt.SojournOverheadSec, pt.MakespanOverheadSec)
	}
}
