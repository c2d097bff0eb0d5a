package kernel

import (
	"math"
	"testing"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// softPair is a Pair that is not *potential.LJ, so the kernel evaluates it
// through the interface: e = k (1 - r2/rc2)^2, a smooth repulsion.
type softPair struct{ k, rc float64 }

func (p softPair) Cutoff() float64 { return p.rc }
func (p softPair) EnergyForce(r2 float64) (e, f float64) {
	u := 1 - r2/(p.rc*p.rc)
	return p.k * u * u, 4 * p.k * u / (p.rc * p.rc)
}

// sameOrNaN is sameBits (topology_oracle_test.go) with two NaNs agreeing whatever their payloads,
// which follow from the order of an addition's operands only.
func sameOrNaN(a, b vec.V) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(a.X, b.X) && eq(a.Y, b.Y) && eq(a.Z, b.Z)
}

// exactVsMap computes the domain selected by pred with the map oracle and
// with the flat kernel, and requires every output of the flat kernel —
// each force component, hosted or returned to a ghost cell, the energy, the
// virial, the pair count and the evaluated count — to carry the oracle's
// bits. It returns the forces and the pair count for the caller's own
// assertions.
func exactVsMap(t *testing.T, g space.Grid, pair potential.Pair, global []vec.V, pred func(cell int) bool) ([]vec.V, int64) {
	t.Helper()
	local := &particle.Set{}
	for i, p := range global {
		if pred(g.CellOf(p)) {
			local.Add(int64(i), p, vec.Zero)
		}
	}
	cellMap, hosted := buildMaps(g, local, pred)
	ghost := make(map[int][]vec.V)
	for _, p := range global {
		if c := g.CellOf(p); !hosted[c] {
			ghost[c] = append(ghost[c], p)
		}
	}
	ref := local.Clone()
	ref.ZeroForces()
	want := mapPairForces(g, pair, ref, cellMap, hosted, ghost)

	got := local.Clone()
	got.ZeroForces()
	cl := buildFlat(t, g, got, global, pred)
	pot, vir, pairs := cl.Compute(pair, got)
	if pairs != want.pairs || cl.Evaluated() != want.evaluated {
		t.Fatalf("pairs %d evaluated %d, oracle %d %d", pairs, cl.Evaluated(), want.pairs, want.evaluated)
	}
	if !sameOrNaN(vec.New(pot, vir, 0), vec.New(want.pot, want.vir, 0)) {
		t.Fatalf("pot %v vir %v, oracle %v %v", pot, vir, want.pot, want.vir)
	}
	for i, f := range got.Frc {
		if !sameOrNaN(f, ref.Frc[i]) {
			t.Fatalf("force %d: %v, oracle %v", i, f, ref.Frc[i])
		}
	}
	if d := diffGhostForces(cl, want.ghost); d != "" {
		t.Fatal(d)
	}
	return ref.Frc, want.pairs
}

// randomGas scatters n particles uniformly through g's box.
func randomGas(g space.Grid, n int, seed uint64) []vec.V {
	r := rng.New(seed)
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = r.InBox(g.Box.L)
	}
	return pos
}

// TestKernelSemantics holds the corners of the pair test that a rewrite of
// the inner loops could move without any physical run noticing.
func TestKernelSemantics(t *testing.T) {
	lj := potential.NewPaperLJ()
	all := func(int) bool { return true }

	// A NaN position fails both rejection tests (r2 >= rc2, r2 == 0), so it
	// is a hit: it poisons its own force and that of every neighbour in the
	// 27 cells around it, where the engines' guards find it — and no other.
	t.Run("NaN is a hit", func(t *testing.T) {
		g := gridOf(t, 6, 6, 6)
		pos := randomGas(g, 500, 11)
		pos[17].Y = math.NaN()
		frc, _ := exactVsMap(t, g, lj, pos, all)
		poisoned := 0
		for _, f := range frc {
			if !f.IsFinite() {
				poisoned++
			}
		}
		if poisoned < 2 || poisoned == len(frc) {
			t.Fatalf("%d of %d forces poisoned, want the NaN particle's neighbourhood only", poisoned, len(frc))
		}
	})

	// Coincident particles (always cell mates) are skipped — the potential
	// is singular at 0 — but they were examined, so the work count, which the
	// oracle takes before its distance test, includes them.
	t.Run("coincident pair", func(t *testing.T) {
		g := gridOf(t, 6, 6, 6)
		pos := randomGas(g, 400, 12)
		pos[1] = pos[0]
		home := g.ColumnOf(g.CellOf(pos[0]))
		for _, pred := range []func(int) bool{all, func(cell int) bool { return g.ColumnOf(cell)%2 == home%2 }} {
			frc, _ := exactVsMap(t, g, lj, pos, pred)
			for i, f := range frc {
				if !f.IsFinite() {
					t.Fatalf("force %d = %v: the coincident pair was evaluated", i, f)
				}
			}
		}
	})

	t.Run("interface pair", func(t *testing.T) {
		g := gridOf(t, 5, 4, 6)
		east := func(cell int) bool { ix, _, _ := g.Coords(cell); return ix >= 2 }
		exactVsMap(t, g, softPair{k: 3, rc: 2.5}, randomGas(g, 600, 13), east)
		exactVsMap(t, g, softPair{k: 3, rc: 2.5}, randomGas(g, 600, 14), all)
	})

	// A dimension below 4: the round term is per pair (minimum image), and
	// below 3 the stencil is deduplicated.
	t.Run("min-image grids", func(t *testing.T) {
		for _, dims := range [][3]int{{3, 3, 3}, {2, 5, 4}} {
			g := gridOf(t, dims[0], dims[1], dims[2])
			pos := randomGas(g, 40*g.NumCells(), 15)
			exactVsMap(t, g, lj, pos, all)
			exactVsMap(t, g, lj, pos, func(cell int) bool { return g.ColumnOf(cell)%2 == 0 })
			exactVsMap(t, g, softPair{k: 2, rc: 2.5}, pos, func(cell int) bool { return g.ColumnOf(cell)%3 != 1 })
		}
	})

	// Cells more crowded than the hit buffer is large: 320 x 320 candidates
	// are split by rows of a, and a row of 4200 — longer than the whole
	// buffer — goes in pieces, with flushes between; order and bits hold.
	t.Run("crowded cells", func(t *testing.T) {
		g := gridOf(t, 6, 6, 6)
		west := func(cell int) bool { ix, _, _ := g.Coords(cell); return ix < 3 }
		r := rng.New(17)
		pos := randomGas(g, 300, 18)
		pos = crowd(pos, g, 0, 2, 2, 320, r)
		pos = crowd(pos, g, 1, 2, 2, 320, r)
		pos = crowd(pos, g, 5, 2, 2, 320, r)
		exactVsMap(t, g, lj, pos, west)
		pos = crowd(pos[:300], g, 2, 4, 4, hitCap+104, r)
		pos = crowd(pos, g, 3, 4, 4, 3, r)
		pos = crowd(pos, g, 2, 3, 4, 3, r)
		exactVsMap(t, g, softPair{k: 1, rc: 2.5}, pos, west)
	})

	// A 2x2x2 block in the middle of the box: ghost cells on all six faces,
	// twelve edges and eight corners, the higher ones evaluated with their
	// forces returned, the lower ones only counted.
	t.Run("ghosts on every side", func(t *testing.T) {
		g := gridOf(t, 6, 6, 6)
		block := func(cell int) bool {
			ix, iy, iz := g.Coords(cell)
			return ix/2 == 1 && iy/2 == 1 && iz/2 == 1
		}
		exactVsMap(t, g, lj, randomGas(g, 1500, 16), block)
	})
}
