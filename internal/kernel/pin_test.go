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

// TestShardPin pins every bit the kernel produces at each shard count: an
// FNV-1a hash over the hosted forces, the forces returned for every ghost
// cell, the potential energy, the virial and the pair and evaluated counts
// on the tiny preset, jiggled off its lattice, with a random subset of
// columns hosted and the rest imported as ghosts. The expected hashes were
// recorded when the lower cell's host took every cross-boundary pair (a
// declared re-baseline: before it each side evaluated its half one-sided),
// so any reordering of a floating-point sum — in the force pass or in either
// shard reduce — shows up here, at the shard counts the map oracle (bit-exact
// at shards=1 only) cannot reach. What the bits mean is
// checked next to them: this domain and its complement, assembled, are the
// brute-force forces.
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
	hostedCols := make([]bool, g.NumColumns())
	for col := range hostedCols {
		hostedCols[col] = r.Float64() < 0.5
	}
	pred := func(cell int) bool { return hostedCols[g.ColumnOf(cell)] }
	local, _ := localSubset(g, sys.Set, pred)
	if local.Len() < 400 || local.Len() > 900 {
		t.Fatalf("%d of %d particles hosted: the subset is no longer a real split", local.Len(), sys.Set.Len())
	}

	want := map[int]uint64{1: 0xf762229f53555dbb, 2: 0x9018c23509922938, 8: 0x45ec3519546d8b60}
	lj := potential.NewPaperLJ()
	wantFrc, wantPot := bruteForce(g.Box, lj, sys.Set.Pos)
	side := func(cell int) int {
		if pred(cell) {
			return 0
		}
		return 1
	}
	for _, shards := range []int{1, 2, 8} {
		s := local.Clone()
		s.ZeroForces()
		cl := buildFlat(t, g, shards, s, sys.Set.Pos, pred)
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
		if got := h.Sum64(); got != want[shards] {
			t.Errorf("shards=%d: hash %#016x, want %#016x (pot=%v vir=%v pairs=%d)",
				shards, got, want[shards], pot, vir, pairs)
		}

		both := computeSplit(t, g, shards, lj, sys.Set.Pos, 2, side, nil)
		if math.Abs(both.pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
			t.Errorf("shards=%d: the two sides' energies sum to %v, brute force %v", shards, both.pot, wantPot)
		}
		for i, f := range both.frc {
			if f.Dist(wantFrc[i]) > 1e-9*(1+wantFrc[i].Norm()) {
				t.Fatalf("shards=%d: particle %d force %v, brute force %v", shards, i, f, wantFrc[i])
			}
		}
	}
}
