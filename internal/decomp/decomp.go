// Package decomp implements the three static domain shapes of 3-D domain
// decomposition discussed in Section 2.2 and Fig. 2 of the paper — plane,
// square pillar, and cube — together with the communication-surface
// analysis that motivates the square-pillar choice for mid-size machines.
package decomp

import (
	"fmt"
	"math"

	"permcell/internal/space"
	"permcell/internal/topology"
)

// Shape selects one of the paper's three domain shapes.
type Shape int

// The three domain shapes of Fig. 2.
const (
	Plane Shape = iota
	SquarePillar
	Cube
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Plane:
		return "plane"
	case SquarePillar:
		return "square-pillar"
	case Cube:
		return "cube"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Decomposition is a static cell-to-PE assignment for a given shape.
type Decomposition struct {
	Shape Shape
	Grid  space.Grid
	P     int
	owner []int // cell -> rank
}

// New builds the decomposition of the given shape over grid g and p PEs.
func New(shape Shape, g space.Grid, p int) (*Decomposition, error) {
	switch shape {
	case Plane:
		return NewPlane(g, p)
	case SquarePillar:
		return NewSquarePillar(g, p)
	case Cube:
		return NewCube(g, p)
	default:
		return nil, fmt.Errorf("decomp: unknown shape %v", shape)
	}
}

// NewPlane slices the grid into P slabs along x; PEs form a virtual ring.
// Grid.Nx must be divisible by P.
func NewPlane(g space.Grid, p int) (*Decomposition, error) {
	if p < 1 || g.Nx%p != 0 {
		return nil, fmt.Errorf("decomp: plane needs Nx (%d) divisible by P (%d)", g.Nx, p)
	}
	t := g.Nx / p
	d := &Decomposition{Shape: Plane, Grid: g, P: p, owner: make([]int, g.NumCells())}
	for c := range d.owner {
		ix, _, _ := g.Coords(c)
		d.owner[c] = ix / t
	}
	return d, nil
}

// NewSquarePillar assigns each PE an m x m block of cell columns, with
// m = C^(1/3)/P^(1/2) (Fig. 7). It requires a cubic grid (Nx == Ny), a
// perfect-square P, and Nx divisible by sqrt(P).
func NewSquarePillar(g space.Grid, p int) (*Decomposition, error) {
	tor, err := topology.NewSquareTorus(p)
	if err != nil {
		return nil, fmt.Errorf("decomp: square pillar: %w", err)
	}
	s := tor.Px
	if g.Nx != g.Ny {
		return nil, fmt.Errorf("decomp: square pillar needs Nx == Ny, got %dx%d", g.Nx, g.Ny)
	}
	if g.Nx%s != 0 {
		return nil, fmt.Errorf("decomp: square pillar needs Nx (%d) divisible by sqrt(P) (%d)", g.Nx, s)
	}
	m := g.Nx / s
	d := &Decomposition{Shape: SquarePillar, Grid: g, P: p, owner: make([]int, g.NumCells())}
	for c := range d.owner {
		ix, iy, _ := g.Coords(c)
		d.owner[c] = tor.Rank(ix/m, iy/m)
	}
	return d, nil
}

// NewCube assigns each PE a cubic block of cells; P must be a perfect cube
// dividing the (cubic) grid evenly.
func NewCube(g space.Grid, p int) (*Decomposition, error) {
	tor, err := topology.NewCubicTorus(p)
	if err != nil {
		return nil, fmt.Errorf("decomp: cube: %w", err)
	}
	s := tor.Px
	if g.Nx != g.Ny || g.Ny != g.Nz {
		return nil, fmt.Errorf("decomp: cube needs a cubic grid, got %dx%dx%d", g.Nx, g.Ny, g.Nz)
	}
	if g.Nx%s != 0 {
		return nil, fmt.Errorf("decomp: cube needs Nx (%d) divisible by cbrt(P) (%d)", g.Nx, s)
	}
	m := g.Nx / s
	d := &Decomposition{Shape: Cube, Grid: g, P: p, owner: make([]int, g.NumCells())}
	for c := range d.owner {
		ix, iy, iz := g.Coords(c)
		d.owner[c] = tor.Rank(ix/m, iy/m, iz/m)
	}
	return d, nil
}

// OwnerOf returns the rank owning cell c.
func (d *Decomposition) OwnerOf(c int) int { return d.owner[c] }

// CellsOf returns all cells owned by rank.
func (d *Decomposition) CellsOf(rank int) []int {
	var out []int
	for c, o := range d.owner {
		if o == rank {
			out = append(out, c)
		}
	}
	return out
}

// GhostCells returns the number of remote cells whose particle data rank
// must import every step (its communication surface).
func (d *Decomposition) GhostCells(rank int) int {
	seen := make([]bool, len(d.owner))
	n := 0
	var nbs []int // one Neighbors26 buffer for the whole walk
	for c, o := range d.owner {
		if o != rank {
			continue
		}
		nbs = d.Grid.Neighbors26(c, nbs[:0])
		for _, nb := range nbs {
			if d.owner[nb] != rank && !seen[nb] {
				seen[nb] = true
				n++
			}
		}
	}
	return n
}

// NeighborRanks returns the distinct ranks whose cells border rank's
// domain — the PEs rank must exchange messages with.
func (d *Decomposition) NeighborRanks(rank int) []int {
	seen := make([]bool, d.P)
	seen[rank] = true
	var out []int
	var nbs []int // one Neighbors26 buffer for the whole walk
	for c, o := range d.owner {
		if o != rank {
			continue
		}
		nbs = d.Grid.Neighbors26(c, nbs[:0])
		for _, nb := range nbs {
			if r := d.owner[nb]; !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// SurfaceAnalysis summarizes one shape's communication demands for a grid
// with C cells on P PEs (closed-form, matching GhostCells on conforming
// grids): the ghost-cell count and the neighbor-PE count per PE.
type SurfaceAnalysis struct {
	Shape       Shape
	GhostCells  int
	NeighborPEs int
}

// AnalyzeSurface returns the closed-form communication surface for the
// given shape with a cubic grid of side nc (C = nc^3) on p PEs. Errors
// mirror the constructors' divisibility requirements. The analysis assumes
// each domain spans at least 3 cells in decomposed directions so that
// opposite faces touch different neighbors (no double counting).
func AnalyzeSurface(shape Shape, nc, p int) (SurfaceAnalysis, error) {
	switch shape {
	case Plane:
		if nc%p != 0 {
			return SurfaceAnalysis{}, fmt.Errorf("decomp: nc %% p != 0")
		}
		// Two faces of nc x nc cells; 2 ring neighbors.
		return SurfaceAnalysis{Shape: shape, GhostCells: 2 * nc * nc, NeighborPEs: 2}, nil
	case SquarePillar:
		s := int(math.Round(math.Sqrt(float64(p))))
		if s*s != p || nc%s != 0 {
			return SurfaceAnalysis{}, fmt.Errorf("decomp: p not square or nc %% sqrt(p) != 0")
		}
		m := nc / s
		// Perimeter ring of columns: (m+2)^2 - m^2 = 4m+4 columns of nc cells.
		return SurfaceAnalysis{Shape: shape, GhostCells: (4*m + 4) * nc, NeighborPEs: 8}, nil
	case Cube:
		s := int(math.Round(math.Cbrt(float64(p))))
		if s*s*s != p || nc%s != 0 {
			return SurfaceAnalysis{}, fmt.Errorf("decomp: p not cube or nc %% cbrt(p) != 0")
		}
		m := nc / s
		return SurfaceAnalysis{Shape: shape, GhostCells: (m+2)*(m+2)*(m+2) - m*m*m, NeighborPEs: 26}, nil
	default:
		return SurfaceAnalysis{}, fmt.Errorf("decomp: unknown shape %v", shape)
	}
}
