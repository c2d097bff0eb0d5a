package decomp

import (
	"testing"

	"permcell/internal/space"
)

func cubicGrid(t *testing.T, nc int) space.Grid {
	t.Helper()
	b, err := space.NewCubicBox(float64(nc) * 2.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(b, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkPartition(t *testing.T, d *Decomposition) {
	t.Helper()
	counts := make([]int, d.P)
	for c := 0; c < d.Grid.NumCells(); c++ {
		o := d.OwnerOf(c)
		if o < 0 || o >= d.P {
			t.Fatalf("cell %d owned by out-of-range rank %d", c, o)
		}
		counts[o]++
	}
	want := d.Grid.NumCells() / d.P
	for r, n := range counts {
		if n != want {
			t.Errorf("rank %d owns %d cells, want %d", r, n, want)
		}
	}
}

func TestPlanePartition(t *testing.T) {
	g := cubicGrid(t, 12)
	d, err := NewPlane(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, d)
	// Plane domains touch exactly 2 neighbor PEs.
	for r := 0; r < 4; r++ {
		if nb := d.NeighborRanks(r); len(nb) != 2 {
			t.Errorf("rank %d has %d neighbor PEs, want 2", r, len(nb))
		}
	}
}

func TestPlaneRejectsIndivisible(t *testing.T) {
	g := cubicGrid(t, 10)
	if _, err := NewPlane(g, 3); err == nil {
		t.Error("Nx=10, P=3 accepted")
	}
}

func TestSquarePillarPartition(t *testing.T) {
	g := cubicGrid(t, 12)
	d, err := NewSquarePillar(g, 9) // m = 4
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, d)
	// Pillar domains touch exactly 8 neighbor PEs.
	for r := 0; r < 9; r++ {
		if nb := d.NeighborRanks(r); len(nb) != 8 {
			t.Errorf("rank %d has %d neighbor PEs, want 8", r, len(nb))
		}
	}
	// Each PE's cells form whole columns: all z-cells of a column share owner.
	for col := 0; col < g.Nx*g.Ny; col++ {
		cells := g.CellsInColumn(col, nil)
		for _, c := range cells[1:] {
			if d.OwnerOf(c) != d.OwnerOf(cells[0]) {
				t.Fatalf("column %d split across PEs", col)
			}
		}
	}
}

func TestSquarePillarRejectsBadInputs(t *testing.T) {
	g := cubicGrid(t, 12)
	if _, err := NewSquarePillar(g, 5); err == nil {
		t.Error("non-square P accepted")
	}
	if _, err := NewSquarePillar(g, 25); err == nil {
		t.Error("Nx=12 not divisible by 5 accepted")
	}
}

func TestCubePartition(t *testing.T) {
	g := cubicGrid(t, 12)
	d, err := NewCube(g, 27) // blocks of 4^3
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, d)
	for r := 0; r < 27; r++ {
		if nb := d.NeighborRanks(r); len(nb) != 26 {
			t.Errorf("rank %d has %d neighbor PEs, want 26", r, len(nb))
		}
	}
}

func TestCubeRejectsBadInputs(t *testing.T) {
	g := cubicGrid(t, 12)
	if _, err := NewCube(g, 9); err == nil {
		t.Error("non-cube P accepted")
	}
}

func TestCellsOfMatchesOwner(t *testing.T) {
	g := cubicGrid(t, 6)
	d, err := NewSquarePillar(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < 4; r++ {
		for _, c := range d.CellsOf(r) {
			if d.OwnerOf(c) != r {
				t.Fatalf("CellsOf(%d) returned foreign cell %d", r, c)
			}
			total++
		}
	}
	if total != g.NumCells() {
		t.Errorf("CellsOf covers %d cells, want %d", total, g.NumCells())
	}
}

func TestGhostCellsMatchClosedForm(t *testing.T) {
	// On conforming grids the measured ghost-cell count must equal the
	// closed-form surface analysis.
	const nc = 12
	g := cubicGrid(t, nc)

	plane, _ := NewPlane(g, 4)
	a, err := AnalyzeSurface(Plane, nc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := plane.GhostCells(0); got != a.GhostCells {
		t.Errorf("plane ghosts: measured %d, closed form %d", got, a.GhostCells)
	}

	pillar, _ := NewSquarePillar(g, 9)
	a, err = AnalyzeSurface(SquarePillar, nc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := pillar.GhostCells(0); got != a.GhostCells {
		t.Errorf("pillar ghosts: measured %d, closed form %d", got, a.GhostCells)
	}

	cube, _ := NewCube(g, 27)
	a, err = AnalyzeSurface(Cube, nc, 27)
	if err != nil {
		t.Fatal(err)
	}
	if got := cube.GhostCells(0); got != a.GhostCells {
		t.Errorf("cube ghosts: measured %d, closed form %d", got, a.GhostCells)
	}
}

func TestSurfaceOrderingMidSizeMachines(t *testing.T) {
	// The paper's point (Section 2.2): for mid-size runs the square pillar
	// beats the plane on ghost volume while needing far fewer neighbor PEs
	// than the cube. nc=64 cells per side, P=64 admits all three shapes.
	plane, err := AnalyzeSurface(Plane, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	pillar, err := AnalyzeSurface(SquarePillar, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := AnalyzeSurface(Cube, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pillar.GhostCells >= plane.GhostCells {
		t.Errorf("pillar ghosts %d >= plane ghosts %d", pillar.GhostCells, plane.GhostCells)
	}
	if cube.GhostCells >= pillar.GhostCells {
		t.Errorf("cube ghosts %d >= pillar ghosts %d (cube should win on volume)", cube.GhostCells, pillar.GhostCells)
	}
	if !(plane.NeighborPEs < pillar.NeighborPEs && pillar.NeighborPEs < cube.NeighborPEs) {
		t.Error("neighbor-PE ordering plane < pillar < cube violated")
	}
}

func TestAnalyzeSurfaceErrors(t *testing.T) {
	if _, err := AnalyzeSurface(Plane, 10, 3); err == nil {
		t.Error("plane indivisible accepted")
	}
	if _, err := AnalyzeSurface(SquarePillar, 12, 5); err == nil {
		t.Error("pillar non-square accepted")
	}
	if _, err := AnalyzeSurface(Cube, 12, 5); err == nil {
		t.Error("cube non-cube accepted")
	}
	if _, err := AnalyzeSurface(Shape(42), 12, 4); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestShapeString(t *testing.T) {
	if Plane.String() != "plane" || SquarePillar.String() != "square-pillar" || Cube.String() != "cube" {
		t.Error("shape names wrong")
	}
}

// TestCheckIsNewsRule: New refuses exactly what Check refuses, and Check,
// which a run spec's validation calls before any grid exists, allocates
// nothing on an accepted shape.
func TestCheckIsNewsRule(t *testing.T) {
	g := cubicGrid(t, 12)
	for _, shape := range []Shape{Plane, SquarePillar, Cube, Shape(7)} {
		for _, p := range []int{0, 1, 3, 4, 5, 8, 9, 16, 27} {
			_, nerr := New(shape, g, p)
			cerr := Check(shape, 12, 12, 12, p)
			if (nerr == nil) != (cerr == nil) {
				t.Errorf("%v p=%d: New %v, Check %v", shape, p, nerr, cerr)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if Check(SquarePillar, 12, 12, 12, 9) != nil || Check(Cube, 12, 12, 12, 8) != nil {
			t.Fatal("accepted shapes refused")
		}
	}); n != 0 {
		t.Errorf("Check allocates %v times", n)
	}
}
