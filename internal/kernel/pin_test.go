package kernel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/vec"
)

// TestShardPin pins every bit the kernel produces: an FNV-1a hash over the
// hosted forces, the forces returned for every ghost cell, the potential
// energy, the virial and the pair and evaluated counts on the tiny preset,
// jiggled off its lattice, with a random subset of columns hosted and the
// rest imported as ghosts. The expected hash was recorded when the lower
// cell's host took every cross-boundary pair (a declared re-baseline: before
// it each side evaluated its half one-sided), and it has not moved since, so
// any reordering of a floating-point sum — in the force pass or in the
// scatter into the caller's forces — shows up here. (The name is older than
// the kernel's one summation order: it once pinned a hash per intra-rank
// shard count.) What the bits mean is checked next to them: this domain and
// its complement, assembled, are the brute-force forces.
func TestShardPin(t *testing.T) {
	pr, err := kernelPresetByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sys, g, err := pr.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(20)
	for i := range sys.Set.Pos {
		sys.Set.Pos[i] = g.Box.Wrap(sys.Set.Pos[i].Add(vec.New(
			r.Uniform(-0.3, 0.3), r.Uniform(-0.3, 0.3), r.Uniform(-0.3, 0.3))))
	}
	hostedCols := make([]bool, g.Nx*g.Ny)
	for col := range hostedCols {
		hostedCols[col] = r.Float64() < 0.5
	}
	pred := func(cell int) bool { return hostedCols[g.ColumnOf(cell)] }
	local, _ := localSubset(g, sys.Set, pred)
	if local.Len() < 400 || local.Len() > 900 {
		t.Fatalf("%d of %d particles hosted: the subset is no longer a real split", local.Len(), sys.Set.Len())
	}

	const want = 0xf762229f53555dbb
	lj := potential.NewPaperLJ()
	wantFrc, wantPot := bruteForce(g.Box, lj, sys.Set.Pos)
	side := func(cell int) int {
		if pred(cell) {
			return 0
		}
		return 1
	}
	s := local.Clone()
	s.ZeroForces()
	cl := buildFlat(t, g, s, sys.Set.Pos, pred)
	pot, vir, pairs := cl.Compute(lj, s)

	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, f := range s.Frc {
		put(math.Float64bits(f.X))
		put(math.Float64bits(f.Y))
		put(math.Float64bits(f.Z))
	}
	for _, gc := range cl.GhostCells() {
		for _, f := range cl.GhostForces(gc) {
			put(math.Float64bits(f.X))
			put(math.Float64bits(f.Y))
			put(math.Float64bits(f.Z))
		}
	}
	put(math.Float64bits(pot))
	put(math.Float64bits(vir))
	put(uint64(pairs))
	put(uint64(cl.Evaluated()))
	if got := h.Sum64(); got != want {
		t.Errorf("hash %#016x, want %#016x (pot=%v vir=%v pairs=%d)", got, uint64(want), pot, vir, pairs)
	}

	both := computeSplit(t, g, lj, sys.Set.Pos, 2, side, nil)
	if math.Abs(both.pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
		t.Errorf("the two sides' energies sum to %v, brute force %v", both.pot, wantPot)
	}
	for i, f := range both.frc {
		if f.Dist(wantFrc[i]) > 1e-9*(1+wantFrc[i].Norm()) {
			t.Fatalf("particle %d force %v, brute force %v", i, f, wantFrc[i])
		}
	}
}
