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
