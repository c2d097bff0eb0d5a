package space

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"permcell/internal/rng"
	"permcell/internal/vec"
)

func mustBox(t *testing.T, l float64) Box {
	t.Helper()
	b, err := NewCubicBox(l)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBoxRejectsBadEdges(t *testing.T) {
	for _, l := range []vec.V{{}, {X: -1, Y: 1, Z: 1}, {X: 1, Y: 0, Z: 1}} {
		if _, err := NewBox(l); err == nil {
			t.Errorf("NewBox(%v) succeeded, want error", l)
		}
	}
}

func TestCubicBoxForDensity(t *testing.T) {
	b, err := CubicBoxForDensity(1000, 0.256)
	if err != nil {
		t.Fatal(err)
	}
	rho := 1000 / b.Volume()
	if math.Abs(rho-0.256) > 1e-12 {
		t.Errorf("density = %v, want 0.256", rho)
	}
	if _, err := CubicBoxForDensity(0, 0.5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := CubicBoxForDensity(10, -1); err == nil {
		t.Error("rho<0 accepted")
	}
}

func TestBoxDisplacementMinImage(t *testing.T) {
	b := mustBox(t, 10)
	p, q := vec.New(9.5, 0, 5), vec.New(0.5, 9.5, 5)
	d := b.Displacement(p, q)
	want := vec.New(-1, 0.5, 0)
	if d.Dist(want) > 1e-12 {
		t.Errorf("Displacement = %v, want %v", d, want)
	}
	if got := d.Norm2(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("|Displacement|^2 = %v, want 1.25", got)
	}
}

func TestNewGridCellSizeAtLeastCutoff(t *testing.T) {
	b := mustBox(t, 30)
	g, err := NewGrid(b, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nx != 12 || g.Ny != 12 || g.Nz != 12 {
		t.Fatalf("grid dims = %dx%dx%d, want 12^3", g.Nx, g.Ny, g.Nz)
	}
	sx, sy, sz := g.CellSize()
	if sx < 2.5 || sy < 2.5 || sz < 2.5 {
		t.Errorf("cell size %v %v %v below cut-off", sx, sy, sz)
	}
}

func TestNewGridRejectsBadCutoff(t *testing.T) {
	b := mustBox(t, 10)
	if _, err := NewGrid(b, 0); err == nil {
		t.Error("rc=0 accepted")
	}
}

func TestNewGridTinyBox(t *testing.T) {
	b := mustBox(t, 1)
	g, err := NewGrid(b, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 1 {
		t.Errorf("tiny box cells = %d, want 1", g.NumCells())
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	b := mustBox(t, 12)
	g, _ := NewGridWithDims(b, 3, 4, 5)
	for idx := 0; idx < g.NumCells(); idx++ {
		ix, iy, iz := g.Coords(idx)
		if g.Index(ix, iy, iz) != idx {
			t.Fatalf("round trip failed for %d -> (%d,%d,%d)", idx, ix, iy, iz)
		}
		if ix < 0 || ix >= 3 || iy < 0 || iy >= 4 || iz < 0 || iz >= 5 {
			t.Fatalf("coords out of range: (%d,%d,%d)", ix, iy, iz)
		}
	}
}

func TestWrapCoords(t *testing.T) {
	b := mustBox(t, 12)
	g, _ := NewGridWithDims(b, 4, 4, 4)
	cases := []struct{ in, want [3]int }{
		{[3]int{-1, 0, 0}, [3]int{3, 0, 0}},
		{[3]int{4, 5, -5}, [3]int{0, 1, 3}},
		{[3]int{8, -8, 7}, [3]int{0, 0, 3}},
	}
	for _, c := range cases {
		x, y, z := g.WrapCoords(c.in[0], c.in[1], c.in[2])
		if [3]int{x, y, z} != c.want {
			t.Errorf("WrapCoords(%v) = (%d,%d,%d), want %v", c.in, x, y, z, c.want)
		}
	}
}

func TestCellOfInRange(t *testing.T) {
	b := mustBox(t, 10)
	g, _ := NewGridWithDims(b, 4, 4, 4)
	s := rng.New(1)
	for i := 0; i < 10000; i++ {
		p := vec.New(s.Uniform(-30, 30), s.Uniform(-30, 30), s.Uniform(-30, 30))
		c := g.CellOf(p)
		if c < 0 || c >= g.NumCells() {
			t.Fatalf("CellOf(%v) = %d out of range", p, c)
		}
	}
}

func TestCellOfBoundary(t *testing.T) {
	b := mustBox(t, 10)
	g, _ := NewGridWithDims(b, 4, 4, 4)
	// A coordinate exactly at the box edge must wrap to cell 0, not fall off.
	c := g.CellOf(vec.New(10, 10, 10))
	if c != 0 {
		t.Errorf("CellOf(L) = %d, want 0", c)
	}
	// Just below the edge lands in the last cell.
	c = g.CellOf(vec.New(10-1e-9, 10-1e-9, 10-1e-9))
	if c != g.NumCells()-1 {
		t.Errorf("CellOf(L-eps) = %d, want %d", c, g.NumCells()-1)
	}
}

func TestNeighbors26Count(t *testing.T) {
	b := mustBox(t, 12)
	g, _ := NewGridWithDims(b, 4, 4, 4)
	for idx := 0; idx < g.NumCells(); idx++ {
		nb := g.Neighbors26(idx, nil)
		if len(nb) != 26 {
			t.Fatalf("cell %d has %d neighbors, want 26", idx, len(nb))
		}
		seen := map[int]bool{}
		for _, n := range nb {
			if n == idx {
				t.Fatalf("cell %d is its own neighbor", idx)
			}
			if seen[n] {
				t.Fatalf("cell %d has duplicate neighbor %d", idx, n)
			}
			seen[n] = true
		}
	}
}

func TestNeighbors26SmallGridDedup(t *testing.T) {
	b := mustBox(t, 6)
	g, _ := NewGridWithDims(b, 2, 2, 2)
	// In a 2x2x2 grid every other cell is a neighbor exactly once.
	nb := g.Neighbors26(0, nil)
	if len(nb) != 7 {
		t.Fatalf("2x2x2 grid: %d neighbors, want 7", len(nb))
	}
}

// neighbors26Map is the map-deduplicated walk Neighbors26 used to be, kept
// as the oracle for the scan-deduplicated one.
func neighbors26Map(g Grid, idx int, dst []int) []int {
	ix, iy, iz := g.Coords(idx)
	seen := map[int]bool{idx: true}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := g.CellOfCoords(ix+dx, iy+dy, iz+dz)
				if !seen[n] {
					seen[n] = true
					dst = append(dst, n)
				}
			}
		}
	}
	return dst
}

// TestNeighbors26MatchesMapOracle compares the walk with its oracle, element
// for element, on every grid of up to 5 cells per dimension — all the
// shapes where wrapped offsets collide and a few where none do — and checks
// that a non-empty dst is extended, not scanned.
func TestNeighbors26MatchesMapOracle(t *testing.T) {
	b := mustBox(t, 10)
	for nx := 1; nx <= 5; nx++ {
		for ny := 1; ny <= 5; ny++ {
			for nz := 1; nz <= 5; nz++ {
				g, _ := NewGridWithDims(b, nx, ny, nz)
				for idx := 0; idx < g.NumCells(); idx++ {
					want := neighbors26Map(g, idx, nil)
					// The prefix holds a neighbor id on purpose: only what
					// this call appended may be deduplicated against.
					prefix := []int{g.CellOfCoords(1, 1, 1), idx}
					got := g.Neighbors26(idx, prefix)
					if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
						t.Fatalf("%dx%dx%d cell %d: got %v, want %v after the prefix", nx, ny, nz, idx, got, want)
					}
				}
			}
		}
	}
}

func TestNeighbors26Symmetric(t *testing.T) {
	b := mustBox(t, 15)
	g, _ := NewGridWithDims(b, 5, 3, 4)
	adj := make(map[[2]int]bool)
	for idx := 0; idx < g.NumCells(); idx++ {
		for _, n := range g.Neighbors26(idx, nil) {
			adj[[2]int{idx, n}] = true
		}
	}
	for k := range adj {
		if !adj[[2]int{k[1], k[0]}] {
			t.Fatalf("neighbor relation not symmetric for %v", k)
		}
	}
}

func TestColumns(t *testing.T) {
	b := mustBox(t, 12)
	g, _ := NewGridWithDims(b, 4, 3, 5)
	for col := 0; col < g.Nx*g.Ny; col++ {
		ix, iy := g.ColumnCoords(col)
		if g.ColumnIndex(ix, iy) != col {
			t.Fatalf("column round trip failed for %d", col)
		}
		cells := g.CellsInColumn(col, nil)
		if len(cells) != g.Nz {
			t.Fatalf("column %d has %d cells, want %d", col, len(cells), g.Nz)
		}
		for _, c := range cells {
			if g.ColumnOf(c) != col {
				t.Fatalf("cell %d reports column %d, want %d", c, g.ColumnOf(c), col)
			}
		}
	}
}

func TestColumnsPartitionCells(t *testing.T) {
	b := mustBox(t, 12)
	g, _ := NewGridWithDims(b, 3, 4, 2)
	seen := make([]bool, g.NumCells())
	for col := 0; col < g.Nx*g.Ny; col++ {
		for _, c := range g.CellsInColumn(col, nil) {
			if seen[c] {
				t.Fatalf("cell %d in two columns", c)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("cell %d in no column", c)
		}
	}
}

func TestMinImageWithinCutoffOfNeighborCells(t *testing.T) {
	// Property: two particles within the cut-off are always in the same or
	// neighboring cells — the fundamental premise of DDM force computation.
	b := mustBox(t, 20)
	const rc = 2.5
	g, err := NewGrid(b, rc)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(99)
	f := func(seedShift uint64) bool {
		p := s.InBox(b.L)
		// Random displacement of length < rc.
		d := s.MaxwellVelocity(1, 1)
		if d.Norm() == 0 {
			return true
		}
		d = d.Scale(s.Uniform(0, rc*0.999) / d.Norm())
		q := b.Wrap(p.Add(d))
		cp, cq := g.CellOf(p), g.CellOf(q)
		if cp == cq {
			return true
		}
		for _, n := range g.Neighbors26(cp, nil) {
			if n == cq {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// cellByDivision is CellOf as it was before Locator: wrap by Floor
// division, cell sizes divided out per call, one division per axis.
func cellByDivision(g Grid, p vec.V) int {
	wrap := func(x, l float64) float64 {
		x -= math.Floor(x/l) * l
		if x >= l {
			x -= l
		}
		return x
	}
	l := g.Box.L
	sx, sy, sz := l.X/float64(g.Nx), l.Y/float64(g.Ny), l.Z/float64(g.Nz)
	ix := clampCell(int(wrap(p.X, l.X)/sx), g.Nx)
	iy := clampCell(int(wrap(p.Y, l.Y)/sy), g.Ny)
	iz := clampCell(int(wrap(p.Z, l.Z)/sz), g.Nz)
	return g.Index(ix, iy, iz)
}

// edgeProbes returns coordinates along an edge of length l cut into n
// cells: ±0, the ulp neighbours of 0, of l and of every cell edge,
// negatives, several periods out, NaN and the infinities.
func edgeProbes(l float64, n int) []float64 {
	inf := math.Inf(1)
	xs := []float64{0, math.Copysign(0, -1), math.Nextafter(0, 1), math.Nextafter(0, -1),
		-0.3 * l, -l, 3.7 * l, -3.7 * l, 5 * l, -5*l - 1e-9, math.NaN(), inf, -inf}
	for i := range n + 1 {
		e := l * float64(i) / float64(n)
		xs = append(xs, math.Nextafter(e, -inf), e, math.Nextafter(e, inf))
	}
	return xs
}

// TestLocatorMatchesDivisionForm: the Locator that Bin and migrate hold,
// and CellOf, place every probe and random position in the cell the
// division form does, on grids of 1 to 13 cells a side in non-cubic boxes.
func TestLocatorMatchesDivisionForm(t *testing.T) {
	s := rng.New(27)
	for n := 1; n <= 13; n++ {
		for _, l := range []vec.V{{X: 10, Y: 10, Z: 10}, {X: 30.24, Y: 17.5, Z: 9.1}, {X: 3, Y: 100, Z: math.Pi}} {
			b, err := NewBox(l)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := NewGridWithDims(b, n, n%5+1, (n*7)%13+1)
			loc := g.Locator()
			check := func(p vec.V) {
				want := cellByDivision(g, p)
				if got := loc.Cell(p); got != want {
					t.Fatalf("%dx%dx%d grid in %v: Locator.Cell(%v) = %d, division form %d", g.Nx, g.Ny, g.Nz, l, p, got, want)
				}
				if got := g.CellOf(p); got != want {
					t.Fatalf("%dx%dx%d grid in %v: CellOf(%v) = %d, division form %d", g.Nx, g.Ny, g.Nz, l, p, got, want)
				}
			}
			xs, ys, zs := edgeProbes(l.X, g.Nx), edgeProbes(l.Y, g.Ny), edgeProbes(l.Z, g.Nz)
			for i, x := range xs {
				check(vec.New(x, ys[i%len(ys)], zs[(3*i)%len(zs)]))
				check(vec.New(s.Uniform(0, l.X), x/l.X*l.Y, zs[i%len(zs)]))
				check(vec.New(x, x, x))
			}
			for range 2000 {
				check(vec.New(s.Uniform(0, l.X), s.Uniform(0, l.Y), s.Uniform(0, l.Z)))
				check(vec.New(s.Uniform(-2*l.X, 3*l.X), s.Uniform(-2*l.Y, 3*l.Y), s.Uniform(-2*l.Z, 3*l.Z)))
			}
		}
	}
}

// BenchmarkCellOf times the per-particle cell lookup of Bin and migrate
// (a Locator taken once) against CellOf, which works the cell sizes out on
// every call, over 6 912 in-box positions on the condensation's 12^3 grid.
func BenchmarkCellOf(b *testing.B) {
	box, _ := NewCubicBox(30.24)
	g, _ := NewGridWithDims(box, 12, 12, 12)
	s := rng.New(27)
	pos := make([]vec.V, 6912)
	for i := range pos {
		pos[i] = s.InBox(box.L)
	}
	run := func(b *testing.B, cell func(vec.V) int) {
		sum := 0
		for b.Loop() {
			for _, p := range pos {
				sum += cell(p)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pos)), "ns/particle")
	}
	b.Run("locator", func(b *testing.B) { run(b, g.Locator().Cell) })
	b.Run("CellOf", func(b *testing.B) { run(b, g.CellOf) })
}
