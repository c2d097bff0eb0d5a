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

// FuzzCellListsConstruction drives the CSR cell-list and half-stencil
// construction through degenerate geometries the simulation presets never
// produce: single-cell and two-cell grids (every neighbor offset wraps
// onto a handful of distinct cells), particles exactly on cell boundaries,
// empty cells, empty hosted sets of ragged column shapes, and minimum-image
// wrap terms in all of them. Each input drives the single-walk SetHosted and
// the map-based construction it replaced (topology_oracle_test.go) and
// compares everything they build, is checked for the CSR invariants, and is
// then cross-checked bit-for-bit against the historical map kernel at
// shards=1 and to rounding at shards=2.
func FuzzCellListsConstruction(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(40), uint64(^uint64(0)), uint8(0)) // 1x1x1, all hosted
	f.Add(uint64(2), uint16(31), uint16(120), uint64(0x5), uint8(3))      // 2x2x2, ragged columns, snapped
	f.Add(uint64(3), uint16(62), uint16(0), uint64(1), uint8(0))          // 3x3x3, empty system
	f.Add(uint64(4), uint16(93), uint16(250), uint64(0xF0F0), uint8(255)) // 4x4x4, heavy snapping
	f.Add(uint64(5), uint16(7), uint16(200), uint64(0xAAAA), uint8(16))   // 3x2x1 anisotropic
	f.Fuzz(func(t *testing.T, seed uint64, dims uint16, n uint16, hostMask uint64, snap uint8) {
		nx := 1 + int(dims)%5
		ny := 1 + (int(dims)/5)%5
		nz := 1 + (int(dims)/25)%5
		const rc = 2.5
		box, err := space.NewBox(vec.New(float64(nx)*rc, float64(ny)*rc, float64(nz)*rc))
		if err != nil {
			t.Fatal(err)
		}
		g, err := space.NewGridWithDims(box, nx, ny, nz)
		if err != nil {
			t.Fatal(err)
		}
		nPart := int(n) % 257
		r := rng.New(seed | 1)
		global := make([]vec.V, nPart)
		for i := range global {
			p := r.InBox(box.L)
			// Snap some coordinates onto exact cell boundaries (multiples
			// of the cell side) so CellOf sees edge values.
			if snap > 0 && r.Intn(256) < int(snap) {
				p.X = rc * math.Floor(p.X/rc)
			}
			if snap > 0 && r.Intn(256) < int(snap) {
				p.Y = rc * math.Floor(p.Y/rc)
			}
			global[i] = box.Wrap(p)
		}

		// Hosted columns from the mask bits, at least one.
		hostedCols := make(map[int]bool)
		for col := 0; col < g.NumColumns(); col++ {
			if hostMask&(1<<(col%64)) != 0 {
				hostedCols[col] = true
			}
		}
		if len(hostedCols) == 0 {
			hostedCols[int(seed)%g.NumColumns()] = true
		}
		pred := func(cell int) bool { return hostedCols[g.ColumnOf(cell)] }

		local := &particle.Set{}
		for i, p := range global {
			if pred(g.CellOf(p)) {
				local.Add(int64(i), p, vec.Zero)
			}
		}
		lj := potential.NewPaperLJ()

		for _, shards := range []int{1, 2} {
			got := local.Clone()
			got.ZeroForces()
			cl := buildFlat(t, g, shards, got, global, pred)

			// The topology itself, list for list and round term for round
			// term, against the map-based construction.
			var cells []int
			for c := 0; c < g.NumCells(); c++ {
				if pred(c) {
					cells = append(cells, c)
				}
			}
			if d := diffTopology(cl, setHostedMap(g, shards, cells)); d != "" {
				t.Fatalf("shards=%d: %s", shards, d)
			}

			// CSR invariants: offsets monotone, part a permutation of the
			// local indices, every particle binned into a hosted cell it
			// actually occupies.
			seen := make([]bool, got.Len())
			for s := 0; s < cl.NumHosted(); s++ {
				cell := cl.SlotCell(s)
				if !pred(cell) {
					t.Fatalf("hosted slot %d maps to unhosted cell %d", s, cell)
				}
				for _, i := range cl.SlotParticles(s) {
					if seen[i] {
						t.Fatalf("particle %d binned twice", i)
					}
					seen[i] = true
					if g.CellOf(got.Pos[i]) != cell {
						t.Fatalf("particle %d binned into cell %d but positioned in %d",
							i, cell, g.CellOf(got.Pos[i]))
					}
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("particle %d missing from the CSR", i)
				}
			}

			pot, _, pairs := cl.Compute(lj, got)

			ref := local.Clone()
			ref.ZeroForces()
			cellMap, hosted := buildMaps(g, ref, pred)
			ghost := make(map[int][]vec.V)
			for _, p := range global {
				if c := g.CellOf(p); !hosted[c] {
					ghost[c] = append(ghost[c], p)
				}
			}
			want := mapPairForces(g, lj, ref, cellMap, hosted, ghost)
			wantPot := want.pot
			if pairs != want.pairs || cl.Evaluated() != want.evaluated {
				t.Fatalf("shards=%d: pairs %d evaluated %d, map kernel %d %d", shards, pairs, cl.Evaluated(), want.pairs, want.evaluated)
			}
			if d := diffGhostForces(cl, want.ghost, float64(shards-1)*1e-9); d != "" {
				t.Fatalf("shards=%d: %s", shards, d)
			}
			if shards == 1 {
				if math.Float64bits(pot) != math.Float64bits(wantPot) {
					t.Fatalf("pot bits %v differ from map kernel %v", pot, wantPot)
				}
				for i := range ref.Frc {
					if got.Frc[i] != ref.Frc[i] {
						t.Fatalf("force %d bits differ from map kernel", i)
					}
				}
			} else {
				if math.Abs(pot-wantPot) > 1e-9*(1+math.Abs(wantPot)) {
					t.Fatalf("shards=%d: pot %v, map kernel %v", shards, pot, wantPot)
				}
				for i := range ref.Frc {
					if got.Frc[i].Dist(ref.Frc[i]) > 1e-9*(1+ref.Frc[i].Norm()) {
						t.Fatalf("shards=%d: force %d mismatch vs map kernel", shards, i)
					}
				}
			}
		}
	})
}
