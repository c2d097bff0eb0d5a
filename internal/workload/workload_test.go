package workload

import (
	"math"
	"testing"
)

func TestLatticeGasBasics(t *testing.T) {
	sys, err := LatticeGas(216, 0.256, 0.722, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Set.Len() != 216 {
		t.Fatalf("N = %d, want 216", sys.Set.Len())
	}
	if err := sys.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	if p := sys.Set.Momentum(); p.Norm() > 1e-9 {
		t.Errorf("momentum = %v, want 0", p)
	}
	if math.Abs(sys.Set.Temperature()-0.722) > 1e-9 {
		t.Errorf("T = %v, want 0.722", sys.Set.Temperature())
	}
	rho := float64(sys.Set.Len()) / sys.Box.Volume()
	if math.Abs(rho-0.256) > 1e-9 {
		t.Errorf("rho = %v, want 0.256", rho)
	}
}

func TestLatticeGasNoOverlap(t *testing.T) {
	sys, err := LatticeGas(125, 0.5, 0.722, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Set
	for i := 0; i < s.Len(); i++ {
		for j := i + 1; j < s.Len(); j++ {
			if d := sys.Box.Displacement(s.Pos[i], s.Pos[j]).Norm2(); d < 0.5*0.5 {
				t.Fatalf("particles %d,%d overlap: dist %v", i, j, math.Sqrt(d))
			}
		}
	}
}

func TestLatticeGasInBox(t *testing.T) {
	sys, err := LatticeGas(300, 0.3, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sys.Set.Pos {
		l := sys.Box.L
		if p.X < 0 || p.X >= l.X || p.Y < 0 || p.Y >= l.Y || p.Z < 0 || p.Z >= l.Z {
			t.Fatalf("particle %d at %v outside box %v", i, p, l)
		}
	}
}

func TestLatticeGasRejectsBadInput(t *testing.T) {
	if _, err := LatticeGas(0, 0.5, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := LatticeGas(10, 0, 1, 1); err == nil {
		t.Error("rho=0 accepted")
	}
}

func TestBlobGasConcentration(t *testing.T) {
	sys, err := BlobGas(512, 0.256, 0.722, 0.5, 3.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Set.Len() != 512 {
		t.Fatalf("N = %d, want 512", sys.Set.Len())
	}
	if err := sys.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count particles within 1/4 box of the center: must exceed the uniform
	// expectation (a sphere of radius L/4 holds ~ (4/3)pi/64 ~ 6.5% of the
	// volume) by a wide margin.
	center := sys.Box.L.Scale(0.5)
	rad2 := sys.Box.L.X / 4 * sys.Box.L.X / 4
	in := 0
	for _, p := range sys.Set.Pos {
		if sys.Box.Displacement(p, center).Norm2() < rad2 {
			in++
		}
	}
	// A uniform gas would put ~(4/3)pi(L/4)^3 / L^3 ~ 6.5% of particles in
	// that sphere; the blob must at least double that.
	if frac := float64(in) / 512; frac < 0.13 {
		t.Errorf("central fraction = %v, want >= 0.13 (~2x uniform)", frac)
	}
}

func TestBlobGasRejectsBadFraction(t *testing.T) {
	if _, err := BlobGas(10, 0.1, 1, 1.5, 1, 1); err == nil {
		t.Error("concFrac > 1 accepted")
	}
}

func TestBlobGasMinimumSpacing(t *testing.T) {
	sys, err := BlobGas(216, 0.256, 0.722, 1.0, 2.0, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Set
	for i := 0; i < s.Len(); i++ {
		for j := i + 1; j < s.Len(); j++ {
			if d := sys.Box.Displacement(s.Pos[i], s.Pos[j]).Norm2(); d < 0.9*0.9 {
				t.Fatalf("blob particles %d,%d too close: %v", i, j, math.Sqrt(d))
			}
		}
	}
}

func TestDeterministicAcrossSeeds(t *testing.T) {
	a, _ := LatticeGas(64, 0.3, 0.722, 42)
	b, _ := LatticeGas(64, 0.3, 0.722, 42)
	for i := range a.Set.Pos {
		if a.Set.Pos[i] != b.Set.Pos[i] || a.Set.Vel[i] != b.Set.Vel[i] {
			t.Fatal("same seed produced different systems")
		}
	}
	c, _ := LatticeGas(64, 0.3, 0.722, 43)
	same := true
	for i := range a.Set.Vel {
		if a.Set.Vel[i] != c.Set.Vel[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical velocities")
	}
}
