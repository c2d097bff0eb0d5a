// Package topology maps processing-element ranks onto the virtual
// interconnects of the paper: a 2-D torus with 8-neighbor relationships
// (square-pillar domains, the DLB substrate) and a 3-D torus (cube domains).
package topology

import (
	"fmt"
	"math"
)

// Offset is a relative coordinate step on a torus.
type Offset struct{ DI, DJ int }

// The 8 neighbor offsets of a 2-D torus in row-major scan order. The DLB
// protocol's three cases partition these (Section 2.3):
//
//	Case 1 (may receive my movable cells):  (-1,-1), (-1,0), (0,-1)
//	Case 2 (nothing can be exchanged):      (-1,+1), (+1,-1)
//	Case 3 (may get their own cells back):  (0,+1), (+1,0), (+1,+1)
var (
	Offsets8 = []Offset{
		{-1, -1}, {-1, 0}, {-1, 1},
		{0, -1}, {0, 1},
		{1, -1}, {1, 0}, {1, 1},
	}
	// UpLeft is the Case-1 offset set.
	UpLeft = []Offset{{-1, -1}, {-1, 0}, {0, -1}}
	// DownRight is the Case-3 offset set.
	DownRight = []Offset{{0, 1}, {1, 0}, {1, 1}}
)

// Torus2D is a Px x Py periodic grid of ranks; rank = i*Py + j for
// coordinates (i, j) with 0 <= i < Px, 0 <= j < Py. Square-pillar DDM uses
// a square torus (Px == Py == sqrt(P)).
type Torus2D struct{ Px, Py int }

// NewTorus2D returns a Px x Py torus.
func NewTorus2D(px, py int) (Torus2D, error) {
	if px < 1 || py < 1 {
		return Torus2D{}, fmt.Errorf("topology: torus dims must be >= 1, got %dx%d", px, py)
	}
	return Torus2D{Px: px, Py: py}, nil
}

// NewSquareTorus returns the sqrt(P) x sqrt(P) torus for a perfect-square
// rank count P, the layout square-pillar DDM requires.
func NewSquareTorus(p int) (Torus2D, error) {
	s := int(math.Round(math.Sqrt(float64(p))))
	if s < 1 || s*s != p {
		return Torus2D{}, fmt.Errorf("topology: P=%d is not a perfect square", p)
	}
	return NewTorus2D(s, s)
}

// Size returns the number of ranks.
func (t Torus2D) Size() int { return t.Px * t.Py }

// Rank returns the rank at (wrapped) coordinates (i, j).
func (t Torus2D) Rank(i, j int) int { return mod(i, t.Px)*t.Py + mod(j, t.Py) }

// Coords returns the coordinates of rank r.
func (t Torus2D) Coords(r int) (i, j int) { return r / t.Py, r % t.Py }

// Neighbors8 returns the 8 neighbor ranks of r in Offsets8 order. On tori
// with a dimension < 3 the same rank can appear under several offsets; the
// slice always has length 8 and preserves offset identity, which the DLB
// protocol relies on. Use UniqueNeighbors for a deduplicated set.
func (t Torus2D) Neighbors8(r int) []int {
	i, j := t.Coords(r)
	out := make([]int, len(Offsets8))
	for k, o := range Offsets8 {
		out[k] = t.Rank(i+o.DI, j+o.DJ)
	}
	return out
}

// UniqueNeighbors returns the distinct neighbor ranks of r, excluding r
// itself.
func (t Torus2D) UniqueNeighbors(r int) []int {
	seen := map[int]bool{r: true}
	var out []int
	for _, n := range t.Neighbors8(r) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Torus3D is a periodic Px x Py x Pz grid of ranks (cube-domain DDM).
type Torus3D struct{ Px, Py, Pz int }

// NewTorus3D returns a 3-D torus.
func NewTorus3D(px, py, pz int) (Torus3D, error) {
	if px < 1 || py < 1 || pz < 1 {
		return Torus3D{}, fmt.Errorf("topology: torus dims must be >= 1, got %dx%dx%d", px, py, pz)
	}
	return Torus3D{Px: px, Py: py, Pz: pz}, nil
}

// NewCubicTorus returns the cbrt(P)^3 torus for a perfect-cube P.
func NewCubicTorus(p int) (Torus3D, error) {
	s := int(math.Round(math.Cbrt(float64(p))))
	if s < 1 || s*s*s != p {
		return Torus3D{}, fmt.Errorf("topology: P=%d is not a perfect cube", p)
	}
	return NewTorus3D(s, s, s)
}

// Size returns the number of ranks.
func (t Torus3D) Size() int { return t.Px * t.Py * t.Pz }

// Rank returns the rank at (wrapped) coordinates.
func (t Torus3D) Rank(i, j, k int) int {
	return (mod(i, t.Px)*t.Py+mod(j, t.Py))*t.Pz + mod(k, t.Pz)
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
