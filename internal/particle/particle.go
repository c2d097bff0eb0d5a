// Package particle stores particle state in structure-of-arrays form. All
// particles have unit mass (reduced units). IDs are stable global
// identities: they survive migration between cells and PEs, which lets
// integration tests compare a parallel run against the serial reference
// particle by particle.
package particle

import (
	"fmt"
	"slices"
	"sort"

	"permcell/internal/vec"
)

// Set is a collection of particles in SoA layout. The zero value is an
// empty, usable set.
type Set struct {
	ID  []int64
	Pos []vec.V
	Vel []vec.V
	Frc []vec.V
}

// Len returns the number of particles.
func (s *Set) Len() int { return len(s.ID) }

// Add appends one particle and returns its local index.
func (s *Set) Add(id int64, pos, vel vec.V) int {
	s.ID = append(s.ID, id)
	s.Pos = append(s.Pos, pos)
	s.Vel = append(s.Vel, vel)
	s.Frc = append(s.Frc, vec.Zero)
	return len(s.ID) - 1
}

// Grow makes room for n more particles, so that a caller which knows how
// many it is about to Add pays for one allocation per array and not for the
// doublings of an append loop.
func (s *Set) Grow(n int) {
	s.ID = slices.Grow(s.ID, n)
	s.Pos = slices.Grow(s.Pos, n)
	s.Vel = slices.Grow(s.Vel, n)
	s.Frc = slices.Grow(s.Frc, n)
}

// RemoveSwap removes the particle at local index i by swapping in the last
// particle. Local indices are invalidated; IDs are not.
func (s *Set) RemoveSwap(i int) {
	last := len(s.ID) - 1
	s.ID[i] = s.ID[last]
	s.Pos[i] = s.Pos[last]
	s.Vel[i] = s.Vel[last]
	s.Frc[i] = s.Frc[last]
	s.ID = s.ID[:last]
	s.Pos = s.Pos[:last]
	s.Vel = s.Vel[:last]
	s.Frc = s.Frc[:last]
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{
		ID:  append([]int64(nil), s.ID...),
		Pos: append([]vec.V(nil), s.Pos...),
		Vel: append([]vec.V(nil), s.Vel...),
		Frc: append([]vec.V(nil), s.Frc...),
	}
	return c
}

// ZeroForces resets all force accumulators.
func (s *Set) ZeroForces() {
	for i := range s.Frc {
		s.Frc[i] = vec.Zero
	}
}

// KineticEnergy returns the total kinetic energy (unit mass).
func (s *Set) KineticEnergy() float64 {
	var ke float64
	for _, v := range s.Vel {
		ke += 0.5 * v.Norm2()
	}
	return ke
}

// Momentum returns the total momentum (unit mass).
func (s *Set) Momentum() vec.V {
	var p vec.V
	for _, v := range s.Vel {
		p = p.Add(v)
	}
	return p
}

// Temperature returns the instantaneous reduced temperature 2*KE/(3N).
// It returns 0 for an empty set.
func (s *Set) Temperature() float64 { return TemperatureOf(s.KineticEnergy(), s.Len()) }

// TemperatureOf is Temperature for a kinetic energy already summed: that of
// n unit-mass particles with total kinetic energy ke, or 0 when n is 0.
func TemperatureOf(ke float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return 2 * ke / (3 * float64(n))
}

// SortByID sorts the set in place by particle ID. Used to canonicalize
// state before comparing two simulations.
func (s *Set) SortByID() {
	sort.Sort(byID{s})
}

type byID struct{ s *Set }

func (b byID) Len() int           { return b.s.Len() }
func (b byID) Less(i, j int) bool { return b.s.ID[i] < b.s.ID[j] }
func (b byID) Swap(i, j int) {
	s := b.s
	s.ID[i], s.ID[j] = s.ID[j], s.ID[i]
	s.Pos[i], s.Pos[j] = s.Pos[j], s.Pos[i]
	s.Vel[i], s.Vel[j] = s.Vel[j], s.Vel[i]
	s.Frc[i], s.Frc[j] = s.Frc[j], s.Frc[i]
}

// Validate checks internal consistency (parallel array lengths, unique IDs)
// and returns a descriptive error on failure. Used by tests and the
// engines' debug paths.
func (s *Set) Validate() error {
	n := len(s.ID)
	if len(s.Pos) != n || len(s.Vel) != n || len(s.Frc) != n {
		return fmt.Errorf("particle: ragged arrays id=%d pos=%d vel=%d frc=%d",
			len(s.ID), len(s.Pos), len(s.Vel), len(s.Frc))
	}
	seen := make(map[int64]bool, n)
	for _, id := range s.ID {
		if seen[id] {
			return fmt.Errorf("particle: duplicate id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// One is a single particle in array-of-structs form, the unit of
// inter-PE transfer.
type One struct {
	ID       int64
	Pos, Vel vec.V
}

// Extract returns particle i as a One.
func (s *Set) Extract(i int) One {
	return One{ID: s.ID[i], Pos: s.Pos[i], Vel: s.Vel[i]}
}

// AddOne appends a transferred particle.
func (s *Set) AddOne(p One) int { return s.Add(p.ID, p.Pos, p.Vel) }
