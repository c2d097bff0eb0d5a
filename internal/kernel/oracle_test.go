package kernel

// The retired full-stencil kernel, retained in test code as a second
// oracle next to the map kernel (kernel_map_test.go). It visits every
// ordered (cell, neighbor) pair — no Newton's-third-law halving — so each
// hosted-hosted pair is evaluated twice, once from each side, with the
// energy and virial split half per visit. Any pair the half-stencil
// traversal skips or double-counts therefore shows up as a force or
// energy mismatch against this kernel, through an entirely different
// traversal order than the production code.

import (
	"math"
	"testing"

	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// fullStencilForces computes forces one-sidedly over the full 26-neighbor
// stencil: for every hosted particle it scans its own cell and all
// distinct neighbor cells (hosted and ghost alike) and accumulates only
// its own side of each interaction, with energy and virial counted half
// per visit. Hosted-hosted pairs are visited twice so their energy sums to
// the full pair energy; ghost pairs are visited once and contribute half —
// the one-sided domain split Compute had before the lower cell's host took
// the whole pair. Returns the forces
// (indexed like s.Pos), this domain's energy share and the number of
// one-sided pair visits (2*hosted + ghost pairs).
func fullStencilForces(
	g space.Grid,
	pair potential.Pair,
	pos []vec.V,
	cellMap map[int][]int,
	hosted map[int]bool,
	ghost map[int][]vec.V,
) (frc []vec.V, potE float64, pairs int64) {
	frc = make([]vec.V, len(pos))
	rc2 := pair.Cutoff() * pair.Cutoff()
	box := g.Box
	var nbBuf []int
	for cell, locals := range cellMap {
		for _, i := range locals {
			// Own cell: all other residents.
			for _, j := range locals {
				if j == i {
					continue
				}
				pairs++
				d := box.Displacement(pos[i], pos[j])
				r2 := d.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				en, f := pair.EnergyForce(r2)
				potE += en / 2
				frc[i] = frc[i].Add(d.Scale(f))
			}
			// All 26 distinct neighbor cells, hosted or ghost.
			nbBuf = g.Neighbors26(cell, nbBuf[:0])
			for _, nc := range nbBuf {
				var others []vec.V
				if hosted[nc] {
					for _, j := range cellMap[nc] {
						others = append(others, pos[j])
					}
				} else {
					others = ghost[nc]
				}
				for _, q := range others {
					pairs++
					d := box.Displacement(pos[i], q)
					r2 := d.Norm2()
					if r2 >= rc2 || r2 == 0 {
						continue
					}
					en, f := pair.EnergyForce(r2)
					potE += en / 2
					frc[i] = frc[i].Add(d.Scale(f))
				}
			}
		}
	}
	return frc, potE, pairs
}

// TestFullStencilOracleMatchesBruteForce anchors the oracle itself: on an
// all-hosted system its forces and energy must match the plain O(N^2)
// reference.
func TestFullStencilOracleMatchesBruteForce(t *testing.T) {
	sys, g := setup(t)
	lj := potential.NewPaperLJ()
	for i := range sys.Set.Pos {
		sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(0.09, -0.13, 0.06)))
	}
	cellMap, hosted := buildMaps(g, sys.Set, func(int) bool { return true })
	frc, pot, _ := fullStencilForces(g, lj, sys.Set.Pos, cellMap, hosted, nil)
	wantFrc, wantPot := bruteForce(g.Box, lj, sys.Set.Pos)
	if math.Abs(pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
		t.Errorf("pot = %v, want %v", pot, wantPot)
	}
	for i := range wantFrc {
		if wantFrc[i].Dist(frc[i]) > 1e-9*(1+wantFrc[i].Norm()) {
			t.Fatalf("force %d mismatch: %v vs %v", i, frc[i], wantFrc[i])
		}
	}
}

// TestPropertyRandomizedConfigs is the property test of the half-stencil
// kernel: randomized configurations spanning grid geometries from the
// degenerate 1x1x1 (every neighbor is the cell itself) through 2x2x2 and
// 3x3x3 (wrap-collision territory, the MinImage slow path) up to >= 4
// cells per side (the precomputed-shift fast path), each checked against
// three independent oracles: the brute-force O(N^2) sum, the retired
// full-stencil kernel, and — bit for bit — the historical map kernel.
func TestPropertyRandomizedConfigs(t *testing.T) {
	lj := potential.NewPaperLJ()
	cases := []struct {
		n   int
		rho float64
		nc  int // expected cells per side, pinned so geometry can't drift
	}{
		{26, 0.4, 1},
		{100, 0.4, 2},
		{256, 0.4, 3},
		{500, 0.3, 4},
		{864, 0.256, 6},
	}
	for _, tc := range cases {
		for trial := 0; trial < 3; trial++ {
			seed := uint64(tc.n*10 + trial + 1)
			sys, err := workload.LatticeGas(tc.n, tc.rho, 0.722, seed)
			if err != nil {
				t.Fatal(err)
			}
			g, err := space.NewGrid(sys.Box, 2.5)
			if err != nil {
				t.Fatal(err)
			}
			if g.Nx != tc.nc || g.Ny != tc.nc || g.Nz != tc.nc {
				t.Fatalf("N=%d rho=%g: grid %dx%dx%d, want %d^3", tc.n, tc.rho, g.Nx, g.Ny, g.Nz, tc.nc)
			}
			r := rng.New(seed ^ 0xBEEF)
			for i := range sys.Set.Pos {
				sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(
					0.9*(r.Float64()-0.5), 0.9*(r.Float64()-0.5), 0.9*(r.Float64()-0.5))))
			}

			wantFrc, wantPot := bruteForce(g.Box, lj, sys.Set.Pos)
			cellMap, hosted := buildMaps(g, sys.Set, func(int) bool { return true })
			fsFrc, fsPot, fsPairs := fullStencilForces(g, lj, sys.Set.Pos, cellMap, hosted, nil)
			ref := sys.Set.Clone()
			ref.ZeroForces()
			mapPot := mapPairForces(g, lj, ref, cellMap, hosted, nil).pot

			if math.Abs(fsPot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
				t.Fatalf("N=%d trial %d: full-stencil pot %v vs brute %v", tc.n, trial, fsPot, wantPot)
			}
			got := sys.Set.Clone()
			got.ZeroForces()
			cl := buildFlat(t, g, got, nil, func(int) bool { return true })
			pot, _, pairs := cl.Compute(lj, got)
			// The full stencil visits every hosted pair from both sides.
			if fsPairs != 2*pairs {
				t.Fatalf("N=%d trial %d: full-stencil pairs %d != 2*%d",
					tc.n, trial, fsPairs, pairs)
			}
			if math.Abs(pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
				t.Fatalf("N=%d trial %d: pot %v vs brute %v", tc.n, trial, pot, wantPot)
			}
			for i := range wantFrc {
				if got.Frc[i].Dist(wantFrc[i]) > 1e-9*(1+wantFrc[i].Norm()) {
					t.Fatalf("N=%d trial %d: force %d vs brute", tc.n, trial, i)
				}
				if got.Frc[i].Dist(fsFrc[i]) > 1e-9*(1+fsFrc[i].Norm()) {
					t.Fatalf("N=%d trial %d: force %d vs full stencil", tc.n, trial, i)
				}
			}
			if math.Float64bits(pot) != math.Float64bits(mapPot) {
				t.Fatalf("N=%d trial %d: pot bits differ from map kernel", tc.n, trial)
			}
			for i := range ref.Frc {
				if got.Frc[i] != ref.Frc[i] {
					t.Fatalf("N=%d trial %d: force %d bits differ from map kernel", tc.n, trial, i)
				}
			}
		}
	}
}
