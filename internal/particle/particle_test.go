package particle

import (
	"math"
	"testing"

	"permcell/internal/rng"
	"permcell/internal/vec"
)

func sample(n int, seed uint64) *Set {
	s := &Set{}
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		s.Add(int64(i), r.InBox(vec.New(10, 10, 10)), r.MaxwellVelocity(1, 1))
	}
	return s
}

func TestAddLen(t *testing.T) {
	s := &Set{}
	if s.Len() != 0 {
		t.Fatal("empty set nonzero length")
	}
	i := s.Add(7, vec.New(1, 2, 3), vec.New(4, 5, 6))
	if i != 0 || s.Len() != 1 {
		t.Fatalf("Add returned %d, len %d", i, s.Len())
	}
	if s.ID[0] != 7 || s.Pos[0] != vec.New(1, 2, 3) || s.Vel[0] != vec.New(4, 5, 6) {
		t.Error("stored values wrong")
	}
	if s.Frc[0] != vec.Zero {
		t.Error("new particle has nonzero force")
	}
}

// TestGrowPresizes pins what Grow is for: after it, adding that many
// particles allocates nothing, and the particles already held are kept.
func TestGrowPresizes(t *testing.T) {
	s := sample(3, 1)
	want := s.Clone()
	s.Grow(100)
	allocs := testing.AllocsPerRun(3, func() {
		s.ID, s.Pos, s.Vel, s.Frc = s.ID[:3], s.Pos[:3], s.Vel[:3], s.Frc[:3]
		for i := 0; i < 100; i++ {
			s.Add(int64(100+i), vec.Zero, vec.Zero)
		}
	})
	if allocs != 0 {
		t.Errorf("100 Adds after Grow(100) allocated %v times", allocs)
	}
	for i := range want.ID {
		if s.ID[i] != want.ID[i] || s.Pos[i] != want.Pos[i] || s.Vel[i] != want.Vel[i] {
			t.Fatalf("particle %d changed across Grow", i)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveSwap(t *testing.T) {
	s := sample(5, 1)
	lastID := s.ID[4]
	s.RemoveSwap(1)
	if s.Len() != 4 {
		t.Fatalf("len after remove = %d", s.Len())
	}
	if s.ID[1] != lastID {
		t.Errorf("swap did not move last particle: got %d want %d", s.ID[1], lastID)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemoveSwapLast(t *testing.T) {
	s := sample(3, 2)
	s.RemoveSwap(2)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := sample(4, 3)
	c := s.Clone()
	c.Pos[0] = vec.New(99, 99, 99)
	if s.Pos[0] == c.Pos[0] {
		t.Error("clone shares storage")
	}
}

func TestZeroForces(t *testing.T) {
	s := sample(4, 5)
	s.Frc[2] = vec.New(1, 1, 1)
	s.ZeroForces()
	for i, f := range s.Frc {
		if f != vec.Zero {
			t.Errorf("force %d = %v after ZeroForces", i, f)
		}
	}
}

func TestEnergyAndTemperature(t *testing.T) {
	s := &Set{}
	s.Add(0, vec.Zero, vec.New(1, 0, 0))
	s.Add(1, vec.Zero, vec.New(0, 2, 0))
	ke := s.KineticEnergy()
	if math.Abs(ke-2.5) > 1e-12 {
		t.Errorf("KE = %v, want 2.5", ke)
	}
	temp := s.Temperature()
	if math.Abs(temp-2*2.5/6) > 1e-12 {
		t.Errorf("T = %v", temp)
	}
}

func TestTemperatureEmpty(t *testing.T) {
	s := &Set{}
	if s.Temperature() != 0 {
		t.Error("empty set temperature nonzero")
	}
}

func TestMomentum(t *testing.T) {
	s := &Set{}
	s.Add(0, vec.Zero, vec.New(1, 2, 3))
	s.Add(1, vec.Zero, vec.New(-1, -2, -3))
	if p := s.Momentum(); p.Norm() > 1e-12 {
		t.Errorf("momentum = %v, want 0", p)
	}
}

func TestSortByID(t *testing.T) {
	s := &Set{}
	s.Add(3, vec.New(3, 0, 0), vec.Zero)
	s.Add(1, vec.New(1, 0, 0), vec.Zero)
	s.Add(2, vec.New(2, 0, 0), vec.Zero)
	s.SortByID()
	for i := 0; i < 3; i++ {
		if s.ID[i] != int64(i+1) {
			t.Fatalf("sorted IDs = %v", s.ID)
		}
		if s.Pos[i].X != float64(i+1) {
			t.Fatalf("positions did not follow IDs: %v", s.Pos)
		}
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	s := &Set{}
	s.Add(1, vec.Zero, vec.Zero)
	s.Add(1, vec.Zero, vec.Zero)
	if err := s.Validate(); err == nil {
		t.Error("duplicate IDs not caught")
	}
}

func TestValidateCatchesRagged(t *testing.T) {
	s := sample(3, 6)
	s.Pos = s.Pos[:2]
	if err := s.Validate(); err == nil {
		t.Error("ragged arrays not caught")
	}
}

func TestExtractAddOneRoundTrip(t *testing.T) {
	s := sample(3, 7)
	p := s.Extract(1)
	d := &Set{}
	d.AddOne(p)
	if d.ID[0] != s.ID[1] || d.Pos[0] != s.Pos[1] || d.Vel[0] != s.Vel[1] {
		t.Error("Extract/AddOne round trip mismatch")
	}
}
