package kernel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// TestShardPin pins every bit the kernel produces at each shard count: an
// FNV-1a hash over the forces, the potential energy, the virial and the pair
// count on the tiny preset, jiggled off its lattice, with a random subset of
// columns hosted and the rest imported as ghosts. The expected hashes were
// recorded from the kernel as it stood before the search/accumulate split,
// so any reordering of a floating-point sum — in the force pass or in the
// shard reduce — shows up here, at the shard counts the map oracle (bit-exact
// at shards=1 only) cannot reach.
func TestShardPin(t *testing.T) {
	pr, err := workload.KernelPresetByName("tiny")
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

	want := map[int]uint64{1: 0x406f5ba5c1cda42a, 2: 0x514c38d05e97521e, 8: 0x8d6c5fcc857a6808}
	lj := potential.NewPaperLJ()
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
		put(math.Float64bits(pot))
		put(math.Float64bits(vir))
		put(uint64(pairs))
		if got := h.Sum64(); got != want[shards] {
			t.Errorf("shards=%d: hash %#016x, want %#016x (pot=%v vir=%v pairs=%d)",
				shards, got, want[shards], pot, vir, pairs)
		}
	}
}
