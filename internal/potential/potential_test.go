package potential

import (
	"math"
	"testing"
	"testing/quick"

	"permcell/internal/vec"
)

func TestLJRejectsBadParams(t *testing.T) {
	for _, c := range [][3]float64{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if _, err := NewLJ(c[0], c[1], c[2], false); err == nil {
			t.Errorf("NewLJ(%v) accepted", c)
		}
	}
}

func TestLJMinimum(t *testing.T) {
	lj := NewPaperLJ()
	// Minimum at r = 2^(1/6), V = -eps, F = 0.
	rm := math.Pow(2, 1.0/6.0)
	e, f := lj.EnergyForce(rm * rm)
	if math.Abs(e+1) > 1e-12 {
		t.Errorf("V(rmin) = %v, want -1", e)
	}
	if math.Abs(f) > 1e-12 {
		t.Errorf("force factor at rmin = %v, want 0", f)
	}
}

func TestLJZeroCrossing(t *testing.T) {
	lj := NewPaperLJ()
	e, _ := lj.EnergyForce(1) // r = sigma
	if math.Abs(e) > 1e-12 {
		t.Errorf("V(sigma) = %v, want 0", e)
	}
}

func TestLJRepulsiveCore(t *testing.T) {
	lj := NewPaperLJ()
	e, f := lj.EnergyForce(0.8 * 0.8)
	if e <= 0 {
		t.Errorf("V(0.8) = %v, want > 0", e)
	}
	if f <= 0 {
		t.Errorf("force factor at 0.8 = %v, want > 0 (repulsive)", f)
	}
}

func TestLJAttractiveTail(t *testing.T) {
	lj := NewPaperLJ()
	e, f := lj.EnergyForce(2.0 * 2.0)
	if e >= 0 {
		t.Errorf("V(2.0) = %v, want < 0", e)
	}
	if f >= 0 {
		t.Errorf("force factor at 2.0 = %v, want < 0 (attractive)", f)
	}
}

func TestLJForceIsEnergyGradient(t *testing.T) {
	// f(r2) must satisfy F(r) = -dV/dr = f * r (central difference check).
	lj := NewPaperLJ()
	f := func(raw float64) bool {
		r := 0.8 + math.Mod(math.Abs(raw), 1.6) // r in [0.8, 2.4]
		const h = 1e-6
		ep, _ := lj.EnergyForce((r + h) * (r + h))
		em, _ := lj.EnergyForce((r - h) * (r - h))
		dVdr := (ep - em) / (2 * h)
		_, fac := lj.EnergyForce(r * r)
		force := fac * r // magnitude along r
		return math.Abs(force+dVdr) < 1e-4*(1+math.Abs(dVdr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLJShifted(t *testing.T) {
	lj, err := NewLJ(1, 1, 2.5, true)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := lj.EnergyForce(2.5 * 2.5)
	if math.Abs(e) > 1e-12 {
		t.Errorf("shifted V(rc) = %v, want 0", e)
	}
	// Forces identical to unshifted.
	_, f1 := lj.EnergyForce(1.5 * 1.5)
	_, f2 := NewPaperLJ().EnergyForce(1.5 * 1.5)
	if f1 != f2 {
		t.Errorf("shifted force %v != unshifted %v", f1, f2)
	}
}

// TestLJCoefficientsRebuildEnergyForce: the documented formula over
// Coefficients gives EnergyForce's bits, shifted and unshifted, at odd
// parameters and at squared distances from deep in the core to the cut-off.
func TestLJCoefficientsRebuildEnergyForce(t *testing.T) {
	for _, shift := range []bool{false, true} {
		lj, err := NewLJ(1.3, 0.9, 2.2, shift)
		if err != nil {
			t.Fatal(err)
		}
		sig2, eps4, eps24, shiftE := lj.Coefficients()
		if (shiftE != 0) != shift {
			t.Fatalf("shift %v: shiftE = %v", shift, shiftE)
		}
		for r2 := 1e-3; r2 <= 2.2*2.2; r2 *= 1.01 {
			sr2 := sig2 / r2
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			e, f := eps4*(sr12-sr6)-shiftE, eps24*(2*sr12-sr6)/r2
			if we, wf := lj.EnergyForce(r2); e != we || f != wf {
				t.Fatalf("shift %v, r2 %v: (%v, %v), EnergyForce (%v, %v)", shift, r2, e, f, we, wf)
			}
		}
	}
}

func TestHarmonicWell(t *testing.T) {
	l := vec.New(10, 10, 10)
	w := HarmonicWell{Center: vec.New(5, 5, 5), K: 2, L: l}
	e, f := w.EnergyForce(vec.New(6, 5, 5))
	if math.Abs(e-1) > 1e-12 { // K/2 * 1^2
		t.Errorf("well energy = %v, want 1", e)
	}
	if f.Dist(vec.New(-2, 0, 0)) > 1e-12 {
		t.Errorf("well force = %v, want (-2,0,0)", f)
	}
}

func TestHarmonicWellPeriodic(t *testing.T) {
	l := vec.New(10, 10, 10)
	w := HarmonicWell{Center: vec.New(1, 1, 1), K: 1, L: l}
	// A particle at 9.5 is only 1.5 away from the center through the
	// boundary; the force must point toward the boundary image.
	_, f := w.EnergyForce(vec.New(9.5, 1, 1))
	if f.X <= 0 {
		t.Errorf("periodic well force X = %v, want > 0 (toward image)", f.X)
	}
}

func TestNoField(t *testing.T) {
	e, f := NoField{}.EnergyForce(vec.New(3, 4, 5))
	if e != 0 || f != vec.Zero {
		t.Errorf("NoField = (%v, %v)", e, f)
	}
}
