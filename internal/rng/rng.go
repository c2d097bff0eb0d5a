// Package rng provides a small deterministic random number generator used by
// the simulators. Determinism across runs and platforms matters here: every
// experiment in this repository is seeded, so figures and tables regenerate
// identically.
//
// The core generator is xoshiro256**, seeded through SplitMix64, following
// Blackman & Vigna. Convenience samplers (uniform ranges, Gaussian via
// Box-Muller, Maxwell-Boltzmann speeds) are layered on top.
package rng

import (
	"math"

	"permcell/internal/vec"
)

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; give each goroutine its own Source.
type Source struct {
	s [4]uint64
	// cached second Gaussian from Box-Muller
	gauss    float64
	hasGauss bool
}

// splitmix64 advances the state and returns the next SplitMix64 output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Any seed, including 0,
// yields a well-mixed state.
func New(seed uint64) *Source {
	var s Source
	st := seed
	for i := range s.s {
		s.s[i] = splitmix64(&st)
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping is fine for simulation use.
	return int(s.Uint64() % uint64(n))
}

// Norm returns a standard Gaussian sample (mean 0, variance 1) via the
// Box-Muller transform.
func (s *Source) Norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	var u1 float64
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	s.gauss = r * math.Sin(2*math.Pi*u2)
	s.hasGauss = true
	return r * math.Cos(2*math.Pi*u2)
}

// NormScaled returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Source) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// MaxwellVelocity draws one velocity vector from the Maxwell-Boltzmann
// distribution at reduced temperature t for a particle of mass m (each
// Cartesian component is Gaussian with variance t/m, k_B = 1 in reduced
// units).
func (s *Source) MaxwellVelocity(t, m float64) vec.V {
	sd := math.Sqrt(t / m)
	return vec.New(s.NormScaled(0, sd), s.NormScaled(0, sd), s.NormScaled(0, sd))
}

// InBox returns a uniform position inside the box [0, l) per component.
func (s *Source) InBox(l vec.V) vec.V {
	return vec.New(s.Uniform(0, l.X), s.Uniform(0, l.Y), s.Uniform(0, l.Z))
}
