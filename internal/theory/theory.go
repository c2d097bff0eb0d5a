// Package theory implements the analysis of Section 4.1: the theoretical
// upper bound f(m, n) on the particle concentration ratio C_0/C up to which
// the permanent-cell DLB can still allocate computational load uniformly.
//
// With C' = [m^2 + 3(m-1)^2] C^(1/3) cells in the maximum domain and
// concentration factor n = (C'_0/C') / (C_0/C), uniform balancing requires
//
//	C_0/C <= f(m, n) = 3(m-1)^2 / ( m^2 (n-1) + 3 n (m-1)^2 )   (eq. 8)
//
// with the specializations (eqs. 9-11)
//
//	f(2, n) = 3 / (7n - 4)
//	f(3, n) = 4 / (7n - 3)  [reduced from 12/(21n - 9)]
//	f(4, n) = 27 / (43n - 16)
//
// and the ordering f(2,n) <= f(3,n) <= f(4,n) for n >= 1 (eq. 12).
package theory

import "fmt"

// F returns the theoretical upper bound f(m, n) of eq. 8. m must be >= 2
// (with m = 1 there are no movable cells and no balancing is possible) and
// n must be >= 1 by construction of the concentration factor.
func F(m int, n float64) (float64, error) {
	if m < 2 {
		return 0, fmt.Errorf("theory: f(m,n) requires m >= 2, got m=%d", m)
	}
	if n < 1 {
		return 0, fmt.Errorf("theory: concentration factor must satisfy n >= 1, got %g", n)
	}
	mm := float64(m * m)
	w := 3 * float64((m-1)*(m-1))
	den := mm*(n-1) + n*w
	if den <= 0 {
		// Only possible at n == 1 where den = 3(m-1)^2 > 0 for m >= 2;
		// defensive all the same.
		return 0, fmt.Errorf("theory: degenerate denominator for m=%d n=%g", m, n)
	}
	return w / den, nil
}

// MustF is F for known-valid inputs; it panics on error. Intended for the
// experiment harnesses where m and n are fixed constants.
func MustF(m int, n float64) float64 {
	v, err := F(m, n)
	if err != nil {
		panic(err)
	}
	return v
}

// CPrimeColumns returns the maximum-domain size in columns,
// m^2 + 3(m-1)^2 (the column form of C' in Section 4.1).
func CPrimeColumns(m int) int { return m*m + 3*(m-1)*(m-1) }

// FCube returns the cube-domain analogue of eq. 8, derived in this
// repository as the paper's future-work extension: with
// cube domains of m^3 cells on a 3-D torus, the permanent shell is the
// three high faces, a PE can host at most Q = m^3 + 7(m-1)^3 cells, and the
// same derivation yields
//
//	f_cube(m, n) = 7(m-1)^3 / ( m^3 (n-1) + 7 n (m-1)^3 ).
func FCube(m int, n float64) (float64, error) {
	if m < 2 {
		return 0, fmt.Errorf("theory: f_cube(m,n) requires m >= 2, got m=%d", m)
	}
	if n < 1 {
		return 0, fmt.Errorf("theory: concentration factor must satisfy n >= 1, got %g", n)
	}
	mm := float64(m * m * m)
	w := 7 * float64((m-1)*(m-1)*(m-1))
	den := mm*(n-1) + n*w
	if den <= 0 {
		return 0, fmt.Errorf("theory: degenerate denominator for m=%d n=%g", m, n)
	}
	return w / den, nil
}

// MustFCube is FCube for known-valid inputs.
func MustFCube(m int, n float64) float64 {
	v, err := FCube(m, n)
	if err != nil {
		panic(err)
	}
	return v
}

// QCubeCells returns the cube-domain maximum hosted cell count,
// m^3 + 7(m-1)^3.
func QCubeCells(m int) int { return m*m*m + 7*(m-1)*(m-1)*(m-1) }
