package space

import (
	"fmt"
	"math"
	"slices"

	"permcell/internal/vec"
)

// Grid partitions a periodic box into Nx x Ny x Nz cells. Cell sides are at
// least the interaction cut-off, so force computation only needs a cell and
// its 26 periodic neighbors. Cells are addressed either by (ix, iy, iz)
// coordinates or by a flat index ix + Nx*(iy + Ny*iz).
//
// A column (ix, iy) is the stack of all Nz cells sharing that cross-section
// coordinate; square-pillar domains and the DLB protocol redistribute whole
// columns.
type Grid struct {
	Box        Box
	Nx, Ny, Nz int
}

// NewGrid returns the finest grid whose cell sides are all >= rc. There must
// be at least one cell per dimension; for correctness of the 26-neighbor
// force search under periodicity the grid is valid with any dimension >= 1
// (neighbors are deduplicated by the force engines when dimensions are < 3).
func NewGrid(b Box, rc float64) (Grid, error) {
	if rc <= 0 {
		return Grid{}, fmt.Errorf("space: cut-off must be positive, got %g", rc)
	}
	nx := int(math.Floor(b.L.X / rc))
	ny := int(math.Floor(b.L.Y / rc))
	nz := int(math.Floor(b.L.Z / rc))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if nz < 1 {
		nz = 1
	}
	return Grid{Box: b, Nx: nx, Ny: ny, Nz: nz}, nil
}

// NewGridWithDims returns a grid with exactly the given cell counts.
func NewGridWithDims(b Box, nx, ny, nz int) (Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return Grid{}, fmt.Errorf("space: grid dims must be >= 1, got %dx%dx%d", nx, ny, nz)
	}
	return Grid{Box: b, Nx: nx, Ny: ny, Nz: nz}, nil
}

// NumCells returns the total number of cells C.
func (g Grid) NumCells() int { return g.Nx * g.Ny * g.Nz }

// CellSize returns the edge lengths of one cell.
func (g Grid) CellSize() (sx, sy, sz float64) {
	return g.Box.L.X / float64(g.Nx), g.Box.L.Y / float64(g.Ny), g.Box.L.Z / float64(g.Nz)
}

// Index flattens cell coordinates. Coordinates must already be in range.
func (g Grid) Index(ix, iy, iz int) int {
	return ix + g.Nx*(iy+g.Ny*iz)
}

// Coords inverts Index.
func (g Grid) Coords(idx int) (ix, iy, iz int) {
	ix = idx % g.Nx
	idx /= g.Nx
	iy = idx % g.Ny
	iz = idx / g.Ny
	return
}

// WrapCoords maps possibly out-of-range cell coordinates into the grid under
// periodicity.
func (g Grid) WrapCoords(ix, iy, iz int) (int, int, int) {
	return mod(ix, g.Nx), mod(iy, g.Ny), mod(iz, g.Nz)
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// CellOfCoords returns the flat index of the (wrapped) cell coordinates.
func (g Grid) CellOfCoords(ix, iy, iz int) int {
	ix, iy, iz = g.WrapCoords(ix, iy, iz)
	return g.Index(ix, iy, iz)
}

// CellOf returns the flat index of the cell containing position p. The
// position is wrapped into the box first, so any finite p is valid. It is
// Locator().Cell(p); loops over many positions take the Locator once.
func (g Grid) CellOf(p vec.V) int { return g.Locator().Cell(p) }

// Locator is a Grid's position-to-cell lookup with the cell sizes worked out
// once. Cell is the only cell arithmetic in the package: CellOf calls it,
// so a hot loop holding a Locator gets the same cells bit for bit.
type Locator struct {
	l          vec.V
	sx, sy, sz float64
	nx, ny, nz int
}

// Locator returns the grid's cell lookup.
func (g Grid) Locator() Locator {
	sx, sy, sz := g.CellSize()
	return Locator{l: g.Box.L, sx: sx, sy: sy, sz: sz, nx: g.Nx, ny: g.Ny, nz: g.Nz}
}

// Cell returns the flat index of the cell containing p, wrapped into the
// box first. A position already inside the box costs one division per axis:
// vec.Wrap returns such a component unchanged without dividing.
func (c Locator) Cell(p vec.V) int {
	q := p.Wrap(c.l)
	ix := clampCell(int(q.X/c.sx), c.nx)
	iy := clampCell(int(q.Y/c.sy), c.ny)
	iz := clampCell(int(q.Z/c.sz), c.nz)
	return ix + c.nx*(iy+c.ny*iz)
}

// clampCell guards against q == L after floating point rounding.
func clampCell(i, n int) int {
	if i >= n {
		return n - 1
	}
	if i < 0 {
		return 0
	}
	return i
}

// Neighbors26 appends to dst the flat indices of the (up to) 26 distinct
// cells surrounding idx under periodic wrapping, excluding idx itself, and
// returns the extended slice. When a grid dimension is small (< 3), wrapped
// neighbor coordinates collide; duplicates and self are removed so force
// engines never double count. The order is dz, dy, dx ascending with the
// first occurrence kept. It allocates nothing beyond growing dst: with
// every dimension >= 3 the 26 cells are distinct by construction, and below
// that the duplicates are found by scanning the few entries already
// appended.
func (g Grid) Neighbors26(idx int, dst []int) []int {
	ix, iy, iz := g.Coords(idx)
	dedupe := g.Nx < 3 || g.Ny < 3 || g.Nz < 3
	base := len(dst)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := g.CellOfCoords(ix+dx, iy+dy, iz+dz)
				if dedupe && (n == idx || slices.Contains(dst[base:], n)) {
					continue
				}
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// ColumnIndex flattens column coordinates (ix, iy).
func (g Grid) ColumnIndex(ix, iy int) int { return ix + g.Nx*iy }

// ColumnCoords inverts ColumnIndex.
func (g Grid) ColumnCoords(col int) (ix, iy int) { return col % g.Nx, col / g.Nx }

// ColumnOf returns the column index of cell idx.
func (g Grid) ColumnOf(idx int) int {
	ix, iy, _ := g.Coords(idx)
	return g.ColumnIndex(ix, iy)
}

// CellsInColumn appends the flat indices of the Nz cells in column col to
// dst and returns the extended slice.
func (g Grid) CellsInColumn(col int, dst []int) []int {
	ix, iy := g.ColumnCoords(col)
	for iz := 0; iz < g.Nz; iz++ {
		dst = append(dst, g.Index(ix, iy, iz))
	}
	return dst
}
