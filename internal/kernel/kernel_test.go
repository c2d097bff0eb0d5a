package kernel

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// bruteForce computes reference forces and energy with a plain O(N^2) loop.
func bruteForce(box space.Box, pair potential.Pair, pos []vec.V) ([]vec.V, float64) {
	frc := make([]vec.V, len(pos))
	var pot float64
	rc2 := pair.Cutoff() * pair.Cutoff()
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			d := box.Displacement(pos[i], pos[j])
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			en, f := pair.EnergyForce(r2)
			pot += en
			fv := d.Scale(f)
			frc[i] = frc[i].Add(fv)
			frc[j] = frc[j].Sub(fv)
		}
	}
	return frc, pot
}

func setup(t *testing.T) (workload.System, space.Grid) {
	t.Helper()
	sys, err := workload.LatticeGas(256, 0.4, 0.722, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGrid(sys.Box, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	return sys, g
}

// buildMaps assembles the map-kernel inputs for the subset of cells chosen
// by hostedPred, exactly as the engines used to.
func buildMaps(g space.Grid, s *particle.Set, hostedPred func(cell int) bool) (cellMap map[int][]int, hosted map[int]bool) {
	cellMap = make(map[int][]int)
	hosted = make(map[int]bool)
	for c := 0; c < g.NumCells(); c++ {
		if hostedPred(c) {
			hosted[c] = true
			cellMap[c] = nil
		}
	}
	for i := range s.Pos {
		c := g.CellOf(s.Pos[i])
		if hosted[c] {
			cellMap[c] = append(cellMap[c], i)
		}
	}
	return cellMap, hosted
}

// buildFlat assembles a ready-to-Compute CellLists for the hosted subset,
// importing every ghost cell's positions from the global system.
func buildFlat(t *testing.T, g space.Grid, shards int, local *particle.Set, global []vec.V, hostedPred func(cell int) bool) *CellLists {
	t.Helper()
	var cells []int
	for c := 0; c < g.NumCells(); c++ {
		if hostedPred(c) {
			cells = append(cells, c)
		}
	}
	cl := NewCellLists(g, shards)
	t.Cleanup(cl.Close)
	cl.SetHosted(cells)
	if bad := cl.Bin(local.Pos); bad >= 0 {
		t.Fatalf("particle %d outside hosted set", bad)
	}
	byCell := make(map[int][]vec.V)
	for _, p := range global {
		byCell[g.CellOf(p)] = append(byCell[g.CellOf(p)], p)
	}
	cl.ClearGhosts()
	for _, gc := range cl.GhostCells() {
		cl.StageGhost(gc, byCell[gc])
	}
	cl.SealGhosts()
	return cl
}

// localSubset extracts the particles of the hosted cells, preserving global
// order, and returns the local set plus global->local index map.
func localSubset(g space.Grid, sys *particle.Set, hostedPred func(cell int) bool) (*particle.Set, map[int]int) {
	local := &particle.Set{}
	idxOf := map[int]int{}
	for i := range sys.Pos {
		if hostedPred(g.CellOf(sys.Pos[i])) {
			idxOf[i] = local.Add(sys.ID[i], sys.Pos[i], sys.Vel[i])
		}
	}
	return local, idxOf
}

func TestFlatAllHostedMatchesBruteForce(t *testing.T) {
	sys, g := setup(t)
	lj := potential.NewPaperLJ()
	// Jiggle off the lattice so forces are nonzero.
	for i := range sys.Set.Pos {
		if i%2 == 0 {
			sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(0.1, -0.07, 0.05)))
		}
	}
	for _, shards := range []int{1, 2, 8} {
		cl := buildFlat(t, g, shards, sys.Set, nil, func(int) bool { return true })
		sys.Set.ZeroForces()
		pot, _, pairs := cl.Compute(lj, sys.Set)
		if pairs <= 0 {
			t.Fatal("no pairs evaluated")
		}
		wantFrc, wantPot := bruteForce(g.Box, lj, sys.Set.Pos)
		if math.Abs(pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
			t.Errorf("shards=%d: pot = %v, want %v", shards, pot, wantPot)
		}
		for i := range wantFrc {
			if wantFrc[i].Dist(sys.Set.Frc[i]) > 1e-9*(1+wantFrc[i].Norm()) {
				t.Fatalf("shards=%d: force %d mismatch", shards, i)
			}
		}
	}
}

// TestFlatMatchesMapKernel cross-checks the flat kernel against the
// historical map-based kernel on randomized configurations — random hosted
// column subsets (so hosted regions have ragged ghost boundaries and empty
// cells) with the rest of the system imported as ghosts. Shard count 1 must
// reproduce the map kernel bit for bit (identical summation order, the
// property the golden experiment traces rely on), the forces it returns for
// the ghost cells included; shard counts 2 and 8 must agree to rounding and
// produce the identical pair and evaluated counts.
func TestFlatMatchesMapKernel(t *testing.T) {
	sys, g := setup(t)
	lj := potential.NewPaperLJ()
	r := rng.New(7)
	for trial := 0; trial < 6; trial++ {
		// Jiggle positions fresh each trial.
		for i := range sys.Set.Pos {
			sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(
				0.4*(r.Float64()-0.5), 0.4*(r.Float64()-0.5), 0.4*(r.Float64()-0.5))))
		}
		// Random hosted column subset (always at least one column).
		hostedCols := make(map[int]bool)
		for col := 0; col < g.NumColumns(); col++ {
			if r.Float64() < 0.4 {
				hostedCols[col] = true
			}
		}
		hostedCols[r.Intn(g.NumColumns())] = true
		pred := func(cell int) bool { return hostedCols[g.ColumnOf(cell)] }

		local, _ := localSubset(g, sys.Set, pred)
		cellMap, hosted := buildMaps(g, local, pred)
		ghost := make(map[int][]vec.V)
		for i := range sys.Set.Pos {
			c := g.CellOf(sys.Set.Pos[i])
			if !hosted[c] {
				ghost[c] = append(ghost[c], sys.Set.Pos[i])
			}
		}
		ref := local.Clone()
		ref.ZeroForces()
		want := mapPairForces(g, lj, ref, cellMap, hosted, ghost)
		wantPot, wantPairs := want.pot, want.pairs

		for _, shards := range []int{1, 2, 8} {
			got := local.Clone()
			got.ZeroForces()
			cl := buildFlat(t, g, shards, got, sys.Set.Pos, pred)
			pot, _, pairs := cl.Compute(lj, got)
			if pairs != wantPairs || cl.Evaluated() != want.evaluated {
				t.Fatalf("trial %d shards=%d: pairs = %d evaluated = %d, want %d %d", trial, shards, pairs, cl.Evaluated(), wantPairs, want.evaluated)
			}
			if d := diffGhostForces(cl, want.ghost, float64(min(shards-1, 1))*1e-9); d != "" {
				t.Fatalf("trial %d shards=%d: %s", trial, shards, d)
			}
			if shards == 1 {
				// Bit-exact: identical summation order by construction.
				if math.Float64bits(pot) != math.Float64bits(wantPot) {
					t.Fatalf("trial %d: pot bits differ: %v vs %v", trial, pot, wantPot)
				}
				for i := range ref.Frc {
					if got.Frc[i] != ref.Frc[i] {
						t.Fatalf("trial %d: force %d bits differ: %v vs %v", trial, i, got.Frc[i], ref.Frc[i])
					}
				}
			} else {
				if math.Abs(pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
					t.Fatalf("trial %d shards=%d: pot = %v, want %v", trial, shards, pot, wantPot)
				}
				for i := range ref.Frc {
					if got.Frc[i].Dist(ref.Frc[i]) > 1e-9*(1+ref.Frc[i].Norm()) {
						t.Fatalf("trial %d shards=%d: force %d mismatch", trial, shards, i)
					}
				}
			}
		}
	}
}

// TestFlatShardDeterminism pins the determinism contract: the same shard
// count twice gives bit-identical results.
func TestFlatShardDeterminism(t *testing.T) {
	sys, g := setup(t)
	lj := potential.NewPaperLJ()
	for i := range sys.Set.Pos {
		sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(0.11, -0.03, 0.07)))
	}
	for _, shards := range []int{2, 8} {
		var pots [2]float64
		var frcs [2][]vec.V
		for rep := 0; rep < 2; rep++ {
			s := sys.Set.Clone()
			s.ZeroForces()
			cl := buildFlat(t, g, shards, s, nil, func(int) bool { return true })
			pots[rep], _, _ = cl.Compute(lj, s)
			frcs[rep] = append([]vec.V(nil), s.Frc...)
		}
		if math.Float64bits(pots[0]) != math.Float64bits(pots[1]) {
			t.Fatalf("shards=%d: energy not reproducible", shards)
		}
		for i := range frcs[0] {
			if frcs[0][i] != frcs[1][i] {
				t.Fatalf("shards=%d: force %d not reproducible", shards, i)
			}
		}
	}
}

// TestFlatEmpty covers empty-cell and empty-system edge cases.
func TestFlatEmpty(t *testing.T) {
	sys, g := setup(t)
	lj := potential.NewPaperLJ()
	empty := &particle.Set{}
	cl := buildFlat(t, g, 2, empty, sys.Set.Pos, func(cell int) bool {
		ix, _, _ := g.Coords(cell)
		return ix == 0
	})
	pot, vir, pairs := cl.Compute(lj, empty)
	if pot != 0 || vir != 0 || pairs != 0 {
		t.Fatalf("empty local set computed pot=%v vir=%v pairs=%d", pot, vir, pairs)
	}
	if len(cl.ghostPos) == 0 {
		t.Fatal("ghost arena empty despite imported neighbors")
	}
}

// TestGhostStagingContract pins the halo side of the kernel: ghost cells may
// be staged in any order and seal into the same arena, and every way a halo
// can be wrong — a cell staged twice, a cell that is no ghost, a ghost left
// out — panics instead of sealing an arena with a cell silently empty.
func TestGhostStagingContract(t *testing.T) {
	sys, g := setup(t)
	pred := func(cell int) bool { ix, _, _ := g.Coords(cell); return ix == 0 }
	local, _ := localSubset(g, sys.Set, pred)
	cl := buildFlat(t, g, 1, local, sys.Set.Pos, pred)
	ghosts := cl.GhostCells()
	if len(ghosts) < 2 {
		t.Fatalf("%d ghost cells, need two", len(ghosts))
	}
	byCell := make(map[int][]vec.V)
	for _, p := range sys.Set.Pos {
		byCell[g.CellOf(p)] = append(byCell[g.CellOf(p)], p)
	}
	want := slices.Clone(cl.ghostPos)

	cl.ClearGhosts()
	for i := len(ghosts) - 1; i >= 0; i-- { // descending: the reverse of buildFlat
		cl.StageGhost(ghosts[i], byCell[ghosts[i]])
	}
	cl.SealGhosts()
	if !slices.Equal(cl.ghostPos, want) {
		t.Error("ghost arena depends on the order the cells were staged in")
	}

	panics := func(name, wantMsg string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, wantMsg) {
				t.Errorf("%s: panic %q, want one containing %q", name, msg, wantMsg)
			}
		}()
		fn()
	}
	panics("duplicate", fmt.Sprintf("ghost cell %d staged twice", ghosts[1]), func() {
		cl.ClearGhosts()
		cl.StageGhost(ghosts[1], nil)
		cl.StageGhost(ghosts[1], nil)
	})
	panics("hosted cell", "not in the ghost set", func() {
		cl.ClearGhosts()
		cl.StageGhost(cl.HostedCells()[0], nil)
	})
	panics("missing", fmt.Sprintf("ghost cell %d was not staged", ghosts[1]), func() {
		cl.ClearGhosts()
		for i, gc := range ghosts {
			if i != 1 {
				cl.StageGhost(gc, nil)
			}
		}
		cl.SealGhosts()
	})
}

// crowd appends n positions scattered through cell (ix, iy, iz) of g.
func crowd(pos []vec.V, g space.Grid, ix, iy, iz, n int, r *rng.Source) []vec.V {
	sx, sy, sz := g.CellSize()
	for i := 0; i < n; i++ {
		pos = append(pos, vec.New((float64(ix)+r.Float64())*sx, (float64(iy)+r.Float64())*sy, (float64(iz)+r.Float64())*sz))
	}
	return pos
}

// TestZeroAllocSteadyState is the CI gate for the kernel's allocation
// contract: after warm-up, a full per-step cycle — Bin, ghost staging and
// sealing, Compute — performs zero heap allocations, for the serial kernel
// and for sharded ones, with one search worker and with helpers. The domain is the tiny preset's western half plus
// one crowded corner — 320 particles in a cell, 320 in its hosted neighbour
// and 320 in a ghost one — so the hit buffer is flushed mid-pass (a row of
// 319 cell mates after rows that filled it) and cell pairs larger than the
// whole buffer (320 x 320) are split, all inside the measured cycle.
func TestZeroAllocSteadyState(t *testing.T) {
	pr, err := kernelPresetByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sys, g, err := pr.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	global := slices.Clone(sys.Set.Pos)
	global = crowd(global, g, 0, 2, 2, 320, r)
	global = crowd(global, g, 1, 2, 2, 320, r)
	global = crowd(global, g, g.Nx-1, 2, 2, 320, r)
	if 320*320 <= hitCap {
		t.Fatal("the crowded cell pair fits the hit buffer: nothing is split")
	}
	lj := potential.NewPaperLJ()
	half := g.Nx / 2
	pred := func(cell int) bool { ix, _, _ := g.Coords(cell); return ix < half }
	local := &particle.Set{}
	byCell := make(map[int][]vec.V)
	for i, p := range global {
		c := g.CellOf(p)
		byCell[c] = append(byCell[c], p)
		if pred(c) {
			local.Add(int64(i), p, vec.Zero)
		}
	}
	for _, sw := range [][2]int{{1, 1}, {1, 3}, {2, 1}, {2, 2}, {8, 1}, {8, 3}} {
		shards, workers := sw[0], sw[1]
		cl := buildFlat(t, g, shards, local, global, pred)
		cl.SetSearchWorkers(workers)
		step := func() {
			if bad := cl.Bin(local.Pos); bad >= 0 {
				t.Fatal("bin failed")
			}
			cl.ClearGhosts()
			for _, gc := range cl.GhostCells() {
				cl.StageGhost(gc, byCell[gc])
			}
			cl.SealGhosts()
			local.ZeroForces()
			cl.Compute(lj, local)
		}
		for i := 0; i < 3; i++ {
			step() // warm-up: buffer growth, worker pool start
		}
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("shards=%d workers=%d: %v allocs per step, want 0", shards, workers, allocs)
		}
	}
}

// TestBinGrowsWithHeadroom pins Bin's growth policy: a population that
// creeps up by one particle per step — a rank gathering a droplet — must not
// reallocate the part-order arrays at every new maximum.
func TestBinGrowsWithHeadroom(t *testing.T) {
	g := gridOf(t, 4, 4, 4)
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	pos := randomGas(g, 1000+64, 5)
	for _, shards := range []int{1, 2} {
		cl := NewCellLists(g, shards)
		cl.SetHosted(cells)
		growths, last := 0, [4]int{}
		for n := 1000; n <= len(pos); n++ {
			if bad := cl.Bin(pos[:n]); bad >= 0 {
				t.Fatalf("particle %d not binned", bad)
			}
			caps := [4]int{cap(cl.pslot), cap(cl.part), cap(cl.ppos), cap(cl.pfrc[shards-1])}
			for k, c := range caps {
				if c < n {
					t.Fatalf("array %d holds %d of %d particles", k, c, n)
				}
			}
			if caps != last {
				growths++
				last = caps
			}
		}
		if growths > 2 {
			t.Errorf("shards=%d: 65 bins of a creeping population grew the arrays %d times, want at most 2", shards, growths)
		}
	}
}

func TestExternalForces(t *testing.T) {
	s := &particle.Set{}
	s.Add(0, vec.New(1, 0, 0), vec.Zero)
	well := potential.HarmonicWell{Center: vec.Zero, K: 2, L: vec.New(100, 100, 100)}
	e := ExternalForces(well, s)
	if math.Abs(e-1) > 1e-12 {
		t.Errorf("energy = %v, want 1", e)
	}
	if s.Frc[0].Dist(vec.New(-2, 0, 0)) > 1e-12 {
		t.Errorf("force = %v", s.Frc[0])
	}
	if ExternalForces(potential.NoField{}, s) != 0 {
		t.Error("NoField energy nonzero")
	}
}
