// Package space models the periodic simulation box and the cubic cell grid
// that the domain decomposition method is built on. Cells have side length
// >= the potential cut-off, so all interactions of a particle are confined
// to its own cell and the 26 neighboring cells (Section 2.2 of the paper).
package space

import (
	"fmt"
	"math"

	"permcell/internal/vec"
)

// Box is a rectangular simulation box with periodic boundary conditions.
// Positions live in [0, L) per component.
type Box struct {
	L vec.V
}

// NewBox returns a box with the given edge lengths. All edges must be
// positive.
func NewBox(l vec.V) (Box, error) {
	if l.X <= 0 || l.Y <= 0 || l.Z <= 0 {
		return Box{}, fmt.Errorf("space: box edges must be positive, got %v", l)
	}
	return Box{L: l}, nil
}

// NewCubicBox returns a cubic box with edge length l.
func NewCubicBox(l float64) (Box, error) {
	return NewBox(vec.New(l, l, l))
}

// CubicBoxForDensity returns the cubic box whose volume holds n particles at
// reduced density rho.
func CubicBoxForDensity(n int, rho float64) (Box, error) {
	if n <= 0 || rho <= 0 {
		return Box{}, fmt.Errorf("space: need positive n and rho, got n=%d rho=%g", n, rho)
	}
	l := math.Cbrt(float64(n) / rho)
	return NewCubicBox(l)
}

// Volume returns the box volume.
func (b Box) Volume() float64 { return b.L.X * b.L.Y * b.L.Z }

// Wrap maps p into the box under periodic boundary conditions.
func (b Box) Wrap(p vec.V) vec.V { return p.Wrap(b.L) }

// MinImage returns the minimum-image displacement vector for d.
func (b Box) MinImage(d vec.V) vec.V { return d.MinImage(b.L) }

// Displacement returns the minimum-image displacement from q to p (p - q).
func (b Box) Displacement(p, q vec.V) vec.V { return b.MinImage(p.Sub(q)) }
