// Package potential implements the interaction models used by the
// simulators: the truncated Lennard-Jones pair potential of the paper (plain
// and energy-shifted) and external one-body fields (a central harmonic well
// used to drive particle concentration quickly in the accelerated
// experiments).
package potential

import (
	"fmt"

	"permcell/internal/vec"
)

// Pair is a short-range pair potential. Implementations are pure functions
// of the squared separation and safe for concurrent use.
type Pair interface {
	// Cutoff returns the interaction cut-off distance r_c.
	Cutoff() float64
	// EnergyForce returns the pair energy e and the force factor f for a
	// squared separation r2 (0 < r2 <= Cutoff^2). The force on particle i is
	// f * (r_i - r_j); the force on j is the negative.
	EnergyForce(r2 float64) (e, f float64)
}

// LJ is the (4*eps)*((sig/r)^12 - (sig/r)^6) Lennard-Jones potential
// truncated at Cut. If Shift is true the energy is shifted so that it is
// continuous (zero) at the cut-off; forces are identical either way.
type LJ struct {
	Eps, Sigma, Cut float64
	Shift           bool
	shiftE          float64
}

// NewLJ returns a truncated Lennard-Jones potential. eps, sigma and cut must
// be positive; cut is in the same units as sigma.
func NewLJ(eps, sigma, cut float64, shift bool) (*LJ, error) {
	if eps <= 0 || sigma <= 0 || cut <= 0 {
		return nil, fmt.Errorf("potential: LJ parameters must be positive (eps=%g sigma=%g cut=%g)", eps, sigma, cut)
	}
	lj := &LJ{Eps: eps, Sigma: sigma, Cut: cut, Shift: shift}
	if shift {
		e, _ := lj.raw(cut * cut)
		lj.shiftE = e
	}
	return lj, nil
}

// NewPaperLJ returns the paper's reduced-unit potential: eps = sigma = 1,
// cut-off 2.5, unshifted (the classical Verlet/Heermann setup).
func NewPaperLJ() *LJ {
	lj, err := NewLJ(1, 1, 2.5, false)
	if err != nil {
		panic(err) // unreachable: constants are valid
	}
	return lj
}

// Cutoff implements Pair.
func (lj *LJ) Cutoff() float64 { return lj.Cut }

func (lj *LJ) raw(r2 float64) (e, f float64) {
	sr2 := lj.Sigma * lj.Sigma / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	e = 4 * lj.Eps * (sr12 - sr6)
	f = 24 * lj.Eps * (2*sr12 - sr6) / r2
	return e, f
}

// EnergyForce implements Pair.
func (lj *LJ) EnergyForce(r2 float64) (e, f float64) {
	e, f = lj.raw(r2)
	return e - lj.shiftE, f
}

// External is a one-body field. Implementations must be safe for concurrent
// use.
type External interface {
	// EnergyForce returns the field energy and force for a particle at p.
	EnergyForce(p vec.V) (e float64, f vec.V)
}

// HarmonicWell attracts particles toward Center with spring constant K:
// V(p) = K/2 * |p - Center|^2. Displacement is measured with the minimum
// image convention in a periodic box with edges L, so the well is well
// defined under periodic boundary conditions.
//
// The well is the accelerated-concentration driver described in DESIGN.md:
// it produces the monotone growth of particle concentration that the
// supercooled gas develops over many more steps, exercising the identical
// DLB code path.
type HarmonicWell struct {
	Center vec.V
	K      float64
	L      vec.V
}

// EnergyForce implements External.
func (h HarmonicWell) EnergyForce(p vec.V) (float64, vec.V) {
	d := p.Sub(h.Center).MinImage(h.L)
	return 0.5 * h.K * d.Norm2(), d.Scale(-h.K)
}

// MultiWell attracts each particle toward its nearest center (minimum-image
// metric): V(p) = K/2 * d_min(p)^2. A handful of wells scattered through the
// box drives the dispersed droplet condensation a supercooled LJ gas
// develops over many thousands of steps — the workload shape the paper's
// DLB evaluation runs on — in a few hundred steps.
type MultiWell struct {
	Centers []vec.V
	K       float64
	L       vec.V
}

// EnergyForce implements External.
func (m MultiWell) EnergyForce(p vec.V) (float64, vec.V) {
	if len(m.Centers) == 0 {
		return 0, vec.Zero
	}
	best := p.Sub(m.Centers[0]).MinImage(m.L)
	bestN2 := best.Norm2()
	for _, c := range m.Centers[1:] {
		d := p.Sub(c).MinImage(m.L)
		if n2 := d.Norm2(); n2 < bestN2 {
			best, bestN2 = d, n2
		}
	}
	return 0.5 * m.K * bestN2, best.Scale(-m.K)
}

// NoField is the zero external field.
type NoField struct{}

// EnergyForce implements External.
func (NoField) EnergyForce(vec.V) (float64, vec.V) { return 0, vec.Zero }
