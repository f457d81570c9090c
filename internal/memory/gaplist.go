package memory

// Gap buffers over the ordered interval lists (frame extents and page
// runs). The reclaim clock sweeps frames in order, allocations consume the
// frames reclaim just freed, and touches walk pages sequentially, so
// splits and merges cluster around one moving position; keeping the
// slice's spare capacity as a movable gap at that position makes each
// insert/delete O(distance since the last edit) — effectively O(1) —
// instead of O(list length). The type is deliberately concrete: a generic
// version pays dictionary-call overhead on the search and access paths,
// which are the hottest code of a node that pages. Page-run lists stay plain
// slices — they are short enough that splice copies beat the extra
// indirection of a gap.

// gapGrow is how much the gap widens when it runs out.
const gapGrow = 64

type extList struct {
	buf []frameExt
	gs  int // physical index where the gap starts (== logical index)
	gl  int // gap length
	// hint is the last search result; search checks it and its
	// successor before bisecting. Only managers whose list is built
	// search it. Counted over the seed-1, 20-rep grids, the hint
	// answers 99.5% of the searches of pressure's 60 such managers,
	// 99.4% of worstcase's 180, 63% of footprint's 60 and 96-97% on
	// the cycles and victim grids; no manager of the other grids, nor
	// of a 250- or 1200-job trace replay, builds its list. Correctness
	// never depends on it: extents are disjoint, so a containment hit
	// is the right entry no matter how indices shifted.
	hint int
}

func (g *extList) len() int { return len(g.buf) - g.gl }

// at returns the element at logical index i. The pointer is valid only
// until the next insert or delete.
func (g *extList) at(i int) *frameExt {
	if i >= g.gs {
		i += g.gl
	}
	return &g.buf[i]
}

// reset empties the list, keeping capacity.
func (g *extList) reset() {
	g.gs = 0
	g.gl = len(g.buf)
}

// assign makes es the list's entries, with the gap after the last one.
// es may share the list's buffer, as one built by appending to g.buf[:0]
// does.
func (g *extList) assign(es []frameExt) {
	g.buf = es[:cap(es)]
	g.gs, g.gl = len(es), cap(es)-len(es)
}

// moveGap relocates the gap to logical index i.
func (g *extList) moveGap(i int) {
	switch {
	case i < g.gs:
		copy(g.buf[i+g.gl:g.gs+g.gl], g.buf[i:g.gs])
	case i > g.gs:
		copy(g.buf[g.gs:], g.buf[g.gs+g.gl:i+g.gl])
	}
	g.gs = i
}

// insert places e at logical index i, shifting later entries up.
func (g *extList) insert(i int, e frameExt) {
	g.moveGap(i)
	if g.gl == 0 {
		nb := make([]frameExt, len(g.buf)+gapGrow)
		copy(nb, g.buf[:g.gs])
		copy(nb[g.gs+gapGrow:], g.buf[g.gs:])
		g.buf = nb
		g.gl = gapGrow
	}
	g.buf[g.gs] = e
	g.gs++
	g.gl--
}

// delete removes the entry at logical index i.
func (g *extList) delete(i int) {
	g.moveGap(i + 1)
	g.gs--
	g.gl++
}

// search returns the logical index of the extent containing frame f (the
// last entry whose start is <= f).
func (g *extList) search(f int32) int {
	n := g.len()
	if h := g.hint; h < n {
		if e := g.at(h); e.start <= f {
			if f < e.start+e.n {
				return h
			}
			if h+1 < n {
				if e2 := g.at(h + 1); e2.start <= f && f < e2.start+e2.n {
					g.hint = h + 1
					return h + 1
				}
			}
		}
	}
	// Bisect one physical half of the buffer, without translating each
	// probe through at: the entries after the gap when f lies at or past
	// the first of them, else the entries before it.
	half, base := g.buf[:g.gs], 0
	if after := g.gs + g.gl; after < len(g.buf) && g.buf[after].start <= f {
		half, base = g.buf[after:], g.gs
	}
	lo, hi := 0, len(half)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if half[mid].start <= f {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	g.hint = base + lo
	return base + lo
}

// freeOwner turns every anonymous extent of owner into free frames, each
// merged with its free neighbours, in one pass over the extents that
// meet [lo, hi), the span of owner's frames. No two free extents are
// ever adjacent, so this is exactly the list that freeing owner's frames
// range by range through replaceExts leaves. The pass streams the
// extents across the gap, which ends up just past the rewritten ones.
func (g *extList) freeOwner(owner PID, lo, hi int32) {
	g.moveGap(g.search(lo))
	w, r := g.gs, g.gs+g.gl // write and read positions in buf
	for r < len(g.buf) && g.buf[r].start < hi {
		e := g.buf[r]
		r++
		if e.kind == extAnon && e.owner == owner {
			e = frameExt{start: e.start, n: e.n, kind: extFree}
		}
		if e.kind == extFree && w > 0 && g.buf[w-1].kind == extFree {
			g.buf[w-1].n += e.n
			continue
		}
		g.buf[w] = e
		w++
	}
	// A free extent starting at hi joins the freed one that ends there.
	if r < len(g.buf) && g.buf[r].kind == extFree && w > 0 && g.buf[w-1].kind == extFree {
		g.buf[w-1].n += g.buf[r].n
		r++
	}
	g.gs, g.gl = w, r-w
}
