package rng

import (
	"math"
	"testing"

	"permcell/internal/vec"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(4)
	for i := 0; i < 10000; i++ {
		f := s.Uniform(-3, 5)
		if f < -3 || f >= 5 {
			t.Fatalf("Uniform = %v out of [-3,5)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn = %d out of [0,7)", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(8)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestMaxwellVelocityMoments(t *testing.T) {
	s := New(9)
	const n = 100000
	const temp, mass = 0.722, 1.0
	var ke float64
	for i := 0; i < n; i++ {
		v := s.MaxwellVelocity(temp, mass)
		ke += 0.5 * mass * v.Norm2()
	}
	// Equipartition: <KE> = (3/2) T per particle in reduced units.
	got := ke / n
	want := 1.5 * temp
	if math.Abs(got-want) > 0.02 {
		t.Errorf("mean kinetic energy = %v, want %v", got, want)
	}
}

func TestInBox(t *testing.T) {
	s := New(10)
	l := vec.New(4, 9, 2)
	for i := 0; i < 10000; i++ {
		p := s.InBox(l)
		if p.X < 0 || p.X >= l.X || p.Y < 0 || p.Y >= l.Y || p.Z < 0 || p.Z >= l.Z {
			t.Fatalf("InBox = %v outside box %v", p, l)
		}
	}
}

func TestUint64Distribution(t *testing.T) {
	// Cheap sanity check: bits should be roughly balanced.
	s := New(11)
	counts := make([]int, 64)
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("bit %d set fraction %v, want ~0.5", b, frac)
		}
	}
}
