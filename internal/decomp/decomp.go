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

// Check reports whether p PEs can take the given shape over an nx x ny x nz
// grid: Plane slices Nx into P slabs (Nx divisible by P); SquarePillar
// needs Nx == Ny, a perfect-square P and Nx divisible by sqrt(P); Cube
// needs a cubic grid, a perfect-cube P and Nx divisible by cbrt(P). It is
// the one copy of those rules — New applies it, and so does a run spec's
// validation before any grid exists — and it allocates nothing on success.
func Check(shape Shape, nx, ny, nz, p int) error {
	switch shape {
	case Plane:
		if p < 1 || nx%p != 0 {
			return fmt.Errorf("decomp: plane needs Nx (%d) divisible by P (%d)", nx, p)
		}
	case SquarePillar:
		tor, err := topology.NewSquareTorus(p)
		if err != nil {
			return fmt.Errorf("decomp: square pillar: %w", err)
		}
		if nx != ny {
			return fmt.Errorf("decomp: square pillar needs Nx == Ny, got %dx%d", nx, ny)
		}
		if nx%tor.Px != 0 {
			return fmt.Errorf("decomp: square pillar needs Nx (%d) divisible by sqrt(P) (%d)", nx, tor.Px)
		}
	case Cube:
		tor, err := topology.NewCubicTorus(p)
		if err != nil {
			return fmt.Errorf("decomp: cube: %w", err)
		}
		if nx != ny || ny != nz {
			return fmt.Errorf("decomp: cube needs a cubic grid, got %dx%dx%d", nx, ny, nz)
		}
		if nx%tor.Px != 0 {
			return fmt.Errorf("decomp: cube needs Nx (%d) divisible by cbrt(P) (%d)", nx, tor.Px)
		}
	default:
		return fmt.Errorf("decomp: unknown shape %v", shape)
	}
	return nil
}

// New builds the decomposition of the given shape over grid g and p PEs,
// which must pass Check. Plane PEs form a virtual ring; square-pillar PEs
// own m x m blocks of cell columns, m = C^(1/3)/P^(1/2) (Fig. 7), on a
// sqrt(P) x sqrt(P) torus; cube PEs own cubic blocks on a cbrt(P)^3 torus.
func New(shape Shape, g space.Grid, p int) (*Decomposition, error) {
	if err := Check(shape, g.Nx, g.Ny, g.Nz, p); err != nil {
		return nil, err
	}
	var owner func(ix, iy, iz int) int
	switch shape {
	case Plane:
		t := g.Nx / p
		owner = func(ix, _, _ int) int { return ix / t }
	case SquarePillar:
		tor, _ := topology.NewSquareTorus(p) // Check passed
		m := g.Nx / tor.Px
		owner = func(ix, iy, _ int) int { return tor.Rank(ix/m, iy/m) }
	default: // Cube
		tor, _ := topology.NewCubicTorus(p)
		m := g.Nx / tor.Px
		owner = func(ix, iy, iz int) int { return tor.Rank(ix/m, iy/m, iz/m) }
	}
	d := &Decomposition{Shape: shape, Grid: g, P: p, owner: make([]int, g.NumCells())}
	for c := range d.owner {
		d.owner[c] = owner(g.Coords(c))
	}
	return d, nil
}

// NewPlane is New(Plane, g, p).
func NewPlane(g space.Grid, p int) (*Decomposition, error) { return New(Plane, g, p) }

// NewSquarePillar is New(SquarePillar, g, p).
func NewSquarePillar(g space.Grid, p int) (*Decomposition, error) { return New(SquarePillar, g, p) }

// NewCube is New(Cube, g, p).
func NewCube(g space.Grid, p int) (*Decomposition, error) { return New(Cube, g, p) }

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
// given shape with a cubic grid of side nc (C = nc^3) on p PEs; its errors
// are Check's. The analysis assumes
// each domain spans at least 3 cells in decomposed directions so that
// opposite faces touch different neighbors (no double counting).
func AnalyzeSurface(shape Shape, nc, p int) (SurfaceAnalysis, error) {
	if err := Check(shape, nc, nc, nc, p); err != nil {
		return SurfaceAnalysis{}, err
	}
	switch shape {
	case Plane:
		// Two faces of nc x nc cells; 2 ring neighbors.
		return SurfaceAnalysis{Shape: shape, GhostCells: 2 * nc * nc, NeighborPEs: 2}, nil
	case SquarePillar:
		m := nc / int(math.Round(math.Sqrt(float64(p))))
		// Perimeter ring of columns: (m+2)^2 - m^2 = 4m+4 columns of nc cells.
		return SurfaceAnalysis{Shape: shape, GhostCells: (4*m + 4) * nc, NeighborPEs: 8}, nil
	default: // Cube
		m := nc / int(math.Round(math.Cbrt(float64(p))))
		return SurfaceAnalysis{Shape: shape, GhostCells: (m+2)*(m+2)*(m+2) - m*m*m, NeighborPEs: 26}, nil
	}
}
