// Package vec provides minimal 3-D vector arithmetic used throughout the
// molecular dynamics engines. Vectors are small value types; all operations
// return new values and never allocate.
package vec

import (
	"fmt"
	"math"
)

// V is a 3-D vector in Cartesian coordinates.
type V struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V { return V{x, y, z} }

// Zero is the zero vector.
var Zero = V{}

// Add returns v + w.
func (v V) Add(w V) V { return V{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V) Sub(w V) V { return V{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V) Scale(s float64) V { return V{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v . w.
func (v V) Dot(w V) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm2 returns |v|^2.
func (v V) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v V) Norm() float64 { return math.Sqrt(v.Norm2()) }

// MulAdd returns v + s*w, the fused update used by integrators.
func (v V) MulAdd(s float64, w V) V {
	return V{v.X + s*w.X, v.Y + s*w.Y, v.Z + s*w.Z}
}

// Dist returns the Euclidean distance |v - w|.
func (v V) Dist(w V) float64 { return v.Sub(w).Norm() }

// IsFinite reports whether all three components are finite numbers.
func (v V) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v V) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Wrap maps v into the half-open box [0, l) per component, assuming the box
// edge lengths l are positive. It handles coordinates an arbitrary number of
// periods outside the box.
//
// A component with 0 < x < l is returned as it is, without a division:
// there x/l rounds to a value below 1, Floor gives +0 and the general form
// would subtract +0, which leaves x's bits alone. Zero, -0 (which the
// general form turns into +0), negatives, values >= l, NaN and Inf take the
// general form.
func (v V) Wrap(l V) V {
	return V{wrap1(v.X, l.X), wrap1(v.Y, l.Y), wrap1(v.Z, l.Z)}
}

func wrap1(x, l float64) float64 {
	if 0 < x && x < l {
		return x
	}
	x -= math.Floor(x/l) * l
	// Guard against x == l after rounding when x was a tiny negative value.
	if x >= l {
		x -= l
	}
	return x
}

// MinImage returns the minimum-image displacement of v in a periodic box
// with edge lengths l: each component is shifted by a multiple of the box
// length into (-l/2, l/2].
func (v V) MinImage(l V) V {
	return V{minImage1(v.X, l.X), minImage1(v.Y, l.Y), minImage1(v.Z, l.Z)}
}

func minImage1(d, l float64) float64 {
	d -= math.Round(d/l) * l
	return d
}
