package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"permcell/internal/decomp"
	"permcell/internal/dlb"
	"permcell/internal/particle"
	"permcell/internal/space"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// faceSystem fills a cubic box of nc cells per side with particles at
// every combination of per-axis coordinates drawn from the cell faces k*s,
// the cell centres k*s + s/2 and L - ulp, the largest position below the
// box edge. The cell side s = L/nc is the first of 2.5, 2.501, ... at which
// L - ulp divided by s rounds up to nc, so Locator's clamp decides that
// particle's cell; where none does within 1000 tries (nc a power of two,
// where L/nc is exact), s is 2.5. The IDs run against index order and every velocity
// is distinct, so a deal that reorders, drops or mixes up particles cannot
// pass for a correct one.
func faceSystem(t *testing.T, nc int) (workload.System, space.Grid) {
	t.Helper()
	l := 2.5 * float64(nc)
	for j := 0; j < 1000; j++ {
		if try := (2.5 + float64(j)*1e-3) * float64(nc); int(math.Nextafter(try, 0)/(try/float64(nc))) >= nc {
			l = try
			break
		}
	}
	box, err := space.NewCubicBox(l)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := g.CellSize()
	var coord []float64
	for k := 0; k < nc; k++ {
		coord = append(coord, float64(k)*s, float64(k)*s+s/2)
	}
	coord = append(coord, math.Nextafter(box.L.X, 0))
	n := len(coord) * len(coord) * len(coord)
	set := &particle.Set{}
	for i := 0; i < n; i++ {
		x, y, z := coord[i%len(coord)], coord[i/len(coord)%len(coord)], coord[i/len(coord)/len(coord)]
		set.Add(int64(n-i), vec.V{X: x, Y: y, Z: z}, vec.V{X: float64(i), Y: -float64(i), Z: 0.5})
	}
	return workload.System{Box: box, Set: set}, g
}

// scanDeal is the reference deal for one rank: a CellOf call on every
// particle of the system, keeping those in the rank's hosted cells, in
// index order.
func scanDeal(g space.Grid, sys workload.System, own ownership) (id []int64, pos, vel []vec.V) {
	hosted := make(map[int]bool)
	for _, c := range own.hostedCells(nil) {
		hosted[c] = true
	}
	for i := range sys.Set.Pos {
		if hosted[g.CellOf(sys.Set.Pos[i])] {
			id = append(id, sys.Set.ID[i])
			pos = append(pos, sys.Set.Pos[i])
			vel = append(vel, sys.Set.Vel[i])
		}
	}
	return id, pos, vel
}

// TestInitialDealMatchesScan holds the engine's initial deal — one cell
// lookup per particle, shared by every rank — to a per-rank CellOf scan:
// each rank's step-0 snapshot must carry exactly the scan's particles, bit
// for bit and in the same order, over the column ledger at every P and m
// below and over every static shape.
func TestInitialDealMatchesScan(t *testing.T) {
	type tcase struct {
		name string
		p, m int
		d    *decomp.Decomposition
	}
	var cases []tcase
	for _, p := range []int{4, 9, 16} {
		for _, m := range []int{2, 3} {
			cases = append(cases, tcase{name: fmt.Sprintf("ledger/P=%d/m=%d", p, m), p: p, m: m})
		}
	}
	const staticNC = 12
	_, sg := faceSystem(t, staticNC)
	for _, sh := range []struct {
		shape decomp.Shape
		p     int
	}{{decomp.Plane, 4}, {decomp.SquarePillar, 4}, {decomp.SquarePillar, 9}, {decomp.Cube, 8}} {
		d, err := decomp.New(sh.shape, sg, sh.p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tcase{name: fmt.Sprintf("%v/P=%d", sh.shape, sh.p), p: sh.p, d: d})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := staticNC
			if tc.d == nil {
				nc = int(math.Round(math.Sqrt(float64(tc.p)))) * tc.m
			}
			sys, g := faceSystem(t, nc)
			cfg := baseConfig(g, tc.p)
			cfg.Decomp = tc.d
			var layout dlb.Layout
			if tc.d == nil {
				var err error
				if layout, err = cfg.Layout(); err != nil {
					t.Fatal(err)
				}
			}
			e, err := NewEngine(cfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Finish()
			st, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for r, fr := range st.Frames {
				var own ownership = fixedOwner{d: tc.d, rank: r}
				if tc.d == nil {
					lg, err := dlb.RestoreLedger(layout, r, nil)
					if err != nil {
						t.Fatal(err)
					}
					own = &ledgerOwner{g: g, lg: lg}
				}
				id, pos, vel := scanDeal(g, sys, own)
				if !reflect.DeepEqual(fr.ID, id) || !reflect.DeepEqual(fr.Pos, pos) || !reflect.DeepEqual(fr.Vel, vel) {
					t.Errorf("rank %d: initial set of %d particles differs from the %d-particle scan", r, len(fr.ID), len(id))
				}
				total += len(fr.ID)
			}
			if total != sys.Set.Len() {
				t.Errorf("ranks hold %d particles, the system %d", total, sys.Set.Len())
			}
		})
	}
}
