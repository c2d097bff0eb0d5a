package kernel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// accLeaf is the signature of the vector accumulate leaf.
type accLeaf = func(hits []uint64, ppos, ghostPos, frc, gfrc []vec.V, shift *[32]vec.V, c ljCoef, pot, vir float64) (int, float64, float64)

// namedAcc is one accumulate path under test; a nil leaf is the Go loop
// alone.
type namedAcc struct {
	name string
	leaf accLeaf
}

// accumulates returns the Go loop and, when this CPU runs it, the vector
// accumulate leaf; without it, tb says so.
func accumulates(tb testing.TB) []namedAcc {
	out := []namedAcc{{"go", nil}}
	if v, ok := vectorAccumulate(); ok {
		out = append(out, namedAcc{"vector", v})
	} else {
		tb.Log("no AVX2 on this CPU (or no vector leaf on this GOARCH): the vector accumulate leaf is not run")
	}
	return out
}

// accState is what the accumulate phase reads and writes.
type accState struct {
	ppos, ghostPos []vec.V
	frc, gfrc      []vec.V
	pot, vir       float64
}

// clone copies the accumulators; the positions are shared.
func (st accState) clone() accState {
	st.frc, st.gfrc = slices.Clone(st.frc), slices.Clone(st.gfrc)
	return st
}

// runAccumulate runs pass.accumulate over hits on a shift grid whose round
// terms are shift, with the accumulate leaf set to leaf (nil: the Go loop
// alone), adding into st in place. It returns the panic the pass raised,
// if any; st's sums are then those the pass had written back.
func runAccumulate(leaf accLeaf, pair potential.Pair, shift *[32]vec.V, hits []uint64, st *accState) (panicked any) {
	selected := accumulateLJ
	accumulateLJ = leaf
	cl := &CellLists{pair: pair, useShift: true, shift: *shift, ppos: st.ppos, ghostPos: st.ghostPos}
	ps := pass{cl: cl, frc: st.frc, gfrc: st.gfrc, pot: st.pot, vir: st.vir}
	defer func() {
		accumulateLJ = selected
		st.pot, st.vir = ps.pot, ps.vir
		panicked = recover()
	}()
	ps.accumulate(hits)
	return nil
}

// diff names the first accumulator of st that does not carry want's bits
// (two NaNs agree), or returns "". With sums false only the forces count.
func (st accState) diff(want accState, sums bool) string {
	if sums && !sameOrNaN(vec.New(st.pot, st.vir, 0), vec.New(want.pot, want.vir, 0)) {
		return fmt.Sprintf("pot %v vir %v, want %v %v", st.pot, st.vir, want.pot, want.vir)
	}
	for i, f := range st.frc {
		if !sameOrNaN(f, want.frc[i]) {
			return fmt.Sprintf("frc[%d] %v, want %v", i, f, want.frc[i])
		}
	}
	for i, f := range st.gfrc {
		if !sameOrNaN(f, want.gfrc[i]) {
			return fmt.Sprintf("gfrc[%d] %v, want %v", i, f, want.gfrc[i])
		}
	}
	return ""
}

// shiftTable is NewCellLists's round-term table for a box of edges l.
func shiftTable(l vec.V) *[32]vec.V {
	var shift [32]vec.V
	tx, ty, tz := wrapTerms(l.X), wrapTerms(l.Y), wrapTerms(l.Z)
	for code := range 27 {
		shift[code] = vec.V{X: tx[code%3], Y: ty[code/3%3], Z: tz[code/9]}
	}
	return &shift
}

// hitOf packs a hit as the search phase does.
func hitOf(a int, code uint8, ghost bool, b int) uint64 {
	h := uint64(a)<<hitAShift + uint64(code)<<hitCodeShift + uint64(b)
	if ghost {
		h += hitGhost
	}
	return h
}

// Special inputs of FuzzAccumulateLeaf, planted at a random hit.
const (
	accPlain     = iota
	accNaN       // a's X is NaN
	accPosInf    // a ghost b's Y is +Inf
	accNegInf    // a hosted b's Z is -Inf
	accAtCutoff  // r2 = rc2 exactly: a shifted potential's energy is about 0
	accNearCut   // r2 one ulp of a coordinate beyond rc2
	accTiny      // r2 subnormal: sr2 overflows and the force is NaN
	accSelf      // a hosted b equal to a, which no shift grid makes
	accOutOfBand // an index one past its slice: both paths panic
	accSpecials
)

// accInput draws the state and hits of one FuzzAccumulateLeaf case: 16
// hosted and 9 ghost positions in a cell of side 2.5 of a box of edge 10,
// accumulators already holding forces and sums, and nHits hits in runs of
// run hits sharing a, a share ghostPct % of them naming a ghost b, each with
// a random round term, then plants the special.
func accInput(seed uint64, nHits, run int, ghostPct uint8, special uint8) (hits []uint64, st accState) {
	const nh, ng = 16, 9
	r := rng.New(seed)
	pos := func(n int) []vec.V {
		out := make([]vec.V, n)
		for i := range out {
			out[i] = r.InBox(vec.New(2.5, 2.5, 2.5))
		}
		return out
	}
	st = accState{ppos: pos(nh), ghostPos: pos(ng), frc: pos(nh), gfrc: pos(ng), pot: r.Uniform(-9, 9), vir: r.Uniform(-9, 9)}
	a := r.Intn(nh)
	for i := range nHits {
		if i%run == 0 {
			a = r.Intn(nh)
		}
		code := uint8(r.Intn(27))
		if ghost := r.Intn(100) < int(ghostPct); ghost {
			hits = append(hits, hitOf(a, code, true, r.Intn(ng)))
		} else {
			b := r.Intn(nh - 1)
			if b >= a {
				b++ // b != a, as on every shift grid
			}
			hits = append(hits, hitOf(a, code, false, b))
		}
	}
	if nHits == 0 {
		return hits, st
	}
	i := r.Intn(nHits)
	h := hits[i]
	ha, hb, ghost := int(h>>hitAShift), int(h%hitGhost), h&hitGhost != 0
	exact := func(p, q vec.V) { // t = 0, b hosted: d = p - q exactly
		if hb == ha {
			hb = (ha + 1) % nh
		}
		hits[i] = hitOf(ha, 0, false, hb)
		st.ppos[ha], st.ppos[hb] = p, q
	}
	switch special % accSpecials {
	case accNaN:
		st.ppos[ha].X = math.NaN()
	case accPosInf:
		hits[i] = hitOf(ha, uint8(h>>hitCodeShift%32), true, hb%ng)
		st.ghostPos[hb%ng].Y = math.Inf(1)
	case accNegInf:
		if ghost {
			st.ghostPos[hb].Z = math.Inf(-1)
		} else {
			st.ppos[hb].Z = math.Inf(-1)
		}
	case accAtCutoff:
		// dx = 1.25 - 3.75 = -2.5 exactly, so r2 = 6.25 exactly.
		exact(vec.New(1.25, 0.5, 0.75), vec.New(3.75, 0.5, 0.75))
	case accNearCut:
		exact(vec.New(1.25, 0.5, 0.75), vec.New(math.Nextafter(3.75, 4), 0.5, 0.75))
	case accTiny:
		exact(vec.New(1e-160, 0, 0), vec.Zero)
	case accSelf:
		hits[i] = hitOf(ha, uint8(h>>hitCodeShift%32), false, ha)
	case accOutOfBand:
		if ghost {
			hits[i] = hitOf(ha, 0, true, ng)
		} else {
			hits[i] = hitOf(nh, 0, false, hb)
		}
	}
	return hits, st
}

// FuzzAccumulateLeaf: the accumulate phase leaves the same bits in frc,
// gfrc, pot and vir with the vector leaf as with the Go loop alone, on 0 to
// 63 hits (every tail length), hosted and ghost neighbours, runs of up to 16
// hits sharing a, shifted and unshifted Lennard-Jones with varied eps and
// sigma, r2 exactly at and just beyond the cut-off, and subnormal r2, where
// the force overflows to NaN on both sides. A NaN or infinite coordinate
// must give NaN on both sides. An index past its slice must panic on both
// sides after the same hits, with the same forces stored. Without AVX2
// there is nothing to compare, and it says so.
func FuzzAccumulateLeaf(f *testing.F) {
	seed := uint64(1)
	for n := range 10 {
		for _, shifted := range []bool{false, true} {
			f.Add(seed, uint8(n), uint8(3), uint8(30), shifted, uint8(accPlain))
			seed++
		}
	}
	for special := range uint8(accSpecials) {
		for _, n := range []uint8{1, 4, 5, 8, 11, 16} {
			f.Add(seed, n, uint8(seed%17), uint8(seed*29%101), seed%2 == 0, special)
			seed++
		}
	}
	f.Add(uint64(99), uint8(63), uint8(15), uint8(0), true, uint8(accPlain))
	f.Add(uint64(98), uint8(40), uint8(15), uint8(100), false, uint8(accPlain))
	f.Fuzz(func(t *testing.T, seed uint64, nHits, run, ghostPct uint8, shifted bool, special uint8) {
		vector, ok := vectorAccumulate()
		if !ok {
			t.Skip("no AVX2 on this CPU (or no vector leaf on this GOARCH): nothing to compare")
		}
		lj, err := potential.NewLJ(0.5+float64(seed%7)/4, 0.9+float64(seed%5)/20, 2.5, shifted)
		if err != nil {
			t.Fatal(err)
		}
		hits, st := accInput(seed, int(nHits)%64, int(run)%16+1, ghostPct%101, special)
		shift := shiftTable(vec.New(10, 10, 10))
		want, got := st.clone(), st.clone()
		wantPanic := runAccumulate(nil, lj, shift, hits, &want)
		gotPanic := runAccumulate(vector, lj, shift, hits, &got)
		if (wantPanic == nil) != (gotPanic == nil) {
			t.Fatalf("Go loop panicked with %v, vector leaf with %v", wantPanic, gotPanic)
		}
		if msg := got.diff(want, wantPanic == nil); msg != "" {
			t.Fatalf("%d hits: %s", len(hits), msg)
		}
		switch special % accSpecials {
		case accNaN, accPosInf, accNegInf: // f*r2 is 0*Inf or NaN
			if len(hits) > 0 && (!math.IsNaN(want.vir) || !math.IsNaN(got.vir)) {
				t.Fatalf("a non-finite coordinate left vir at %v (Go) and %v (vector), want NaN", want.vir, got.vir)
			}
		}
	})
}

// searchedHits returns the hits of one whole force pass over cl's cells,
// in visiting order, found by passes that cannot flush: each resumes where
// the last one stopped.
func searchedHits(tb testing.TB, cl *CellLists) []uint64 {
	tb.Helper()
	var all []uint64
	end := cl.NumHosted()
	for from := (cursor{}); from.i < end; {
		ps := pass{cl: cl, hits: new([hitCap]uint64)}
		next := ps.walk(from, end)
		if next == from {
			tb.Fatal("a cell pair larger than the hit buffer")
		}
		all = append(all, ps.hits[:ps.n]...)
		from = next
	}
	return all
}

// BenchmarkKernelAccumulateLeaf times the accumulate phase alone, with the
// Go loop and with the vector leaf, over the hits of a whole force pass in
// hit-buffer windows as the owner flushes them: on BenchmarkKernelDisordered's
// 50k state (about 4 particles per cell) and on a uniform gas of 40 per
// cell, where runs sharing a are long. It reports the time per hit.
func BenchmarkKernelAccumulateLeaf(b *testing.B) {
	pr, err := kernelPresetByName("50k")
	if err != nil {
		b.Fatal(err)
	}
	sys, g50, err := pr.Build()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(50)
	for i, p := range sys.Set.Pos {
		sys.Set.Pos[i] = g50.Box.Wrap(p.Add(vec.New(r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1))))
	}
	g6 := gridOf(b, 6, 6, 6)
	states := []struct {
		name string
		g    space.Grid
		pos  []vec.V
	}{
		{"disordered", g50, sys.Set.Pos},
		{"ppc=40", g6, randomGas(g6, 40*g6.NumCells(), 40)},
	}
	paths := accumulates(b)
	for _, s := range states {
		cells := make([]int, s.g.NumCells())
		for c := range cells {
			cells[c] = c
		}
		cl := NewCellLists(s.g, 1)
		cl.SetHosted(cells)
		cl.SealGhosts()
		if bad := cl.Bin(s.pos); bad >= 0 {
			b.Fatal("bin failed")
		}
		cl.pair, cl.rc2 = ljBench, 6.25
		hits := searchedHits(b, cl)
		for _, p := range paths {
			b.Run(fmt.Sprintf("%s/%s", s.name, p.name), func(b *testing.B) {
				selected := accumulateLJ
				accumulateLJ = p.leaf
				defer func() { accumulateLJ = selected }()
				ps := pass{cl: cl, frc: make([]vec.V, len(cl.ppos))}
				b.ResetTimer()
				for range b.N {
					clear(ps.frc)
					for lo := 0; lo < len(hits); lo += hitCap {
						ps.accumulate(hits[lo:min(lo+hitCap, len(hits))])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(hits)), "ns/hit")
			})
		}
	}
}
