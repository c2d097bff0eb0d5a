package kernel

import (
	"fmt"
	"math"
	"testing"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// splitResult is a system computed as several domains and put back together
// the way the engine does it: every particle's force is its host's
// accumulator plus the ghost forces the other domains return for its cell.
type splitResult struct {
	frc              []vec.V // by global particle index
	pot, vir         float64 // summed over domains
	pairs, evaluated int64   // summed over domains
}

// computeSplit deals the cells of g to nDom domains by owner, computes every
// domain with the rest of the system imported as ghosts, and assembles the
// result. visit, when set, sees each domain's CellLists after its Compute.
func computeSplit(t *testing.T, g space.Grid, pair potential.Pair, global []vec.V, nDom int, owner func(cell int) int, visit func(dom int, cl *CellLists)) splitResult {
	t.Helper()
	res := splitResult{frc: make([]vec.V, len(global))}
	byCell := make(map[int][]int) // global indices in global order: the order buildFlat stages a cell in
	for i, p := range global {
		byCell[g.CellOf(p)] = append(byCell[g.CellOf(p)], i)
	}
	for dom := 0; dom < nDom; dom++ {
		pred := func(cell int) bool { return owner(cell) == dom }
		local := &particle.Set{}
		var globalOf []int
		for i, p := range global {
			if pred(g.CellOf(p)) {
				local.Add(int64(i), p, vec.Zero)
				globalOf = append(globalOf, i)
			}
		}
		cl := buildFlat(t, g, local, global, pred)
		pot, vir, pairs := cl.Compute(pair, local)
		res.pot += pot
		res.vir += vir
		res.pairs += pairs
		res.evaluated += cl.Evaluated()
		for li, gi := range globalOf {
			res.frc[gi] = res.frc[gi].Add(local.Frc[li])
		}
		for _, gc := range cl.GhostCells() {
			back := cl.GhostForces(gc)
			if len(back) != len(byCell[gc]) {
				t.Fatalf("domain %d returns %d forces for ghost cell %d, which holds %d particles", dom, len(back), gc, len(byCell[gc]))
			}
			for j, gi := range byCell[gc] {
				res.frc[gi] = res.frc[gi].Add(back[j])
			}
		}
		if visit != nil {
			visit(dom, cl)
		}
	}
	return res
}

// TestFlatGhostSplitMatchesBruteForce splits the box into two hosts at a
// cell boundary; each side computes with the other side's particles as
// ghosts. Hosted accumulators plus returned ghost forces must equal the
// brute-force forces, and the summed energies the brute-force total.
func TestFlatGhostSplitMatchesBruteForce(t *testing.T) {
	sys, g := setup(t)
	lj := potential.NewPaperLJ()
	for i := range sys.Set.Pos {
		if i%2 == 0 { // off the lattice, so forces are nonzero
			sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(0.1, -0.07, 0.05)))
		}
	}
	wantFrc, wantPot := bruteForce(g.Box, lj, sys.Set.Pos)
	half := g.Nx / 2
	side := func(cell int) int {
		if ix, _, _ := g.Coords(cell); ix < half {
			return 0
		}
		return 1
	}
	res := computeSplit(t, g, lj, sys.Set.Pos, 2, side, func(dom int, cl *CellLists) {
		returned := 0
		for _, gc := range cl.GhostCells() {
			for _, f := range cl.GhostForces(gc) {
				if f != vec.Zero {
					returned++
				}
			}
		}
		if returned == 0 {
			t.Errorf("side %d returns no ghost force: the split evaluates nothing across the boundary", dom)
		}
	})
	for i := range wantFrc {
		if wantFrc[i].Dist(res.frc[i]) > 1e-9*(1+wantFrc[i].Norm()) {
			t.Fatalf("particle %d force %v, brute force %v", i, res.frc[i], wantFrc[i])
		}
	}
	if math.Abs(res.pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
		t.Errorf("summed pot = %v, want %v", res.pot, wantPot)
	}
}

// censusOf is the candidate-pair census of the domain owner == dom, from the
// cell populations alone: every pair within a hosted cell, every pair of two
// hosted neighbor cells once, every pair of a hosted cell with a neighbor
// cell hosted elsewhere — the count Compute has always returned as pairs.
func censusOf(g space.Grid, pop []int64, owner func(cell int) int, dom int) (n int64) {
	var nb []int
	for c := 0; c < g.NumCells(); c++ {
		if owner(c) != dom {
			continue
		}
		n += pop[c] * (pop[c] - 1) / 2
		nb = g.Neighbors26(c, nb[:0])
		for _, nc := range nb {
			if owner(nc) != dom || nc > c {
				n += pop[c] * pop[nc]
			}
		}
	}
	return n
}

// TestSplitDomainsEvaluateEachPairOnce is the property behind the ownership
// rule — the host of the lower cell id evaluates the pair — over random
// ownership maps: 2 to 6 domains dealt by column or cell by cell, on grids
// down to one and two cells a side (deduplicated stencils, per-pair minimum
// image) and with a dimension of three. For every
// map, over all domains: each pair of neighboring cells hosted by two
// different domains is evaluated by exactly the lower cell's (the other
// keeps a count-only entry), so the evaluated pairs add up exactly to the
// pair count of the same system computed as one domain; the pair counts add
// up to the census Compute has always reported, cross-boundary pairs on both
// sides; the assembled forces are the one-domain forces and sum to zero; and
// energy and virial add up to the one-domain values.
func TestSplitDomainsEvaluateEachPairOnce(t *testing.T) {
	lj := potential.NewPaperLJ()
	dims := [][3]int{{2, 2, 2}, {1, 4, 3}, {2, 5, 4}, {3, 3, 3}, {3, 4, 5}, {4, 4, 4}, {6, 5, 4}}
	r := rng.New(20261003)
	all := func(int) int { return 0 }
	for _, d := range dims {
		g := gridOf(t, d[0], d[1], d[2])
		for trial := 0; trial < 4; trial++ {
			name := fmt.Sprintf("%dx%dx%d/trial %d", d[0], d[1], d[2], trial)
			pos := randomGas(g, 12*g.NumCells(), r.Uint64())
			pos = crowd(pos, g, 0, 0, 0, 40, r) // a droplet on a cell corner, whoever hosts it
			pop := make([]int64, g.NumCells())
			for _, p := range pos {
				pop[g.CellOf(p)]++
			}
			nDom := 2 + r.Intn(5)
			deal := make([]int, g.NumCells())
			for c := range deal {
				deal[c] = r.Intn(nDom)
			}
			owner := func(cell int) int { return deal[cell] }
			if trial%2 == 0 { // whole columns, the balancer's unit
				owner = func(cell int) int { return deal[g.ColumnOf(cell)] }
			}
			one := computeSplit(t, g, lj, pos, 1, all, nil)
			if one.evaluated != one.pairs || one.pairs != censusOf(g, pop, all, 0) {
				t.Fatalf("%s: one domain evaluates %d of %d pairs, census %d", name, one.evaluated, one.pairs, censusOf(g, pop, all, 0))
			}
			var census int64
			for dom := 0; dom < nDom; dom++ {
				census += censusOf(g, pop, owner, dom)
			}
			split := computeSplit(t, g, lj, pos, nDom, owner, func(dom int, cl *CellLists) {
				// The rule itself, entry by entry.
				for s, c := range cl.HostedCells() {
					for k := cl.stStart[s]; k < cl.stStart[s+1]; k++ {
						if e := cl.stencil[k]; e < 0 {
							gc := cl.ghostCells[-1-e]
							if (cl.stCode[k] == countOnly) != (gc < c) {
								t.Fatalf("%s domain %d: cell %d x ghost %d has code %d", name, dom, c, gc, cl.stCode[k])
							}
						}
					}
				}
			})
			if split.evaluated != one.pairs {
				t.Errorf("%s: %d domains evaluate %d pairs, one domain %d", name, nDom, split.evaluated, one.pairs)
			}
			if split.pairs != census {
				t.Errorf("%s: pair counts sum to %d, census %d", name, split.pairs, census)
			}
			if split.pairs <= split.evaluated {
				t.Errorf("%s: no cross-boundary pair was counted twice (%d pairs, %d evaluated)", name, split.pairs, split.evaluated)
			}
			var total vec.V
			var scale float64
			for i, f := range split.frc {
				total = total.Add(f)
				scale = max(scale, f.Norm())
				if f.Dist(one.frc[i]) > 1e-9*(1+one.frc[i].Norm()) {
					t.Fatalf("%s: particle %d force %v, one domain %v", name, i, f, one.frc[i])
				}
			}
			if total.Norm() > 1e-10*scale {
				t.Errorf("%s: total force %v (largest %g)", name, total, scale)
			}
			if math.Abs(split.pot-one.pot) > 1e-12*math.Abs(one.pot) || math.Abs(split.vir-one.vir) > 1e-12*math.Abs(one.vir) {
				t.Errorf("%s: energy %v virial %v, one domain %v %v", name, split.pot, split.vir, one.pot, one.vir)
			}
		}
	}
}
