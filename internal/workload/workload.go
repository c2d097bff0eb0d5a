// Package workload builds the initial condition every run starts from: a
// uniform lattice gas with Maxwell-Boltzmann velocities (the paper's
// supercooled Argon setup). The condensation that follows is driven by the
// attractor wells; pre-concentrated blob starts are a fixture of the
// engine's load-balancing tests, not a workload.
package workload

import (
	"math"

	"permcell/internal/integrator"
	"permcell/internal/particle"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// System bundles a particle set with its box.
type System struct {
	Box space.Box
	Set *particle.Set
}

// LatticeGas places n particles on a simple cubic lattice inside a cubic
// box at reduced density rho, draws Maxwell-Boltzmann velocities at
// temperature tref, and removes center-of-mass drift. This is the standard
// MD cold start: the lattice guarantees no overlapping cores.
func LatticeGas(n int, rho, tref float64, seed uint64) (System, error) {
	box, err := space.CubicBoxForDensity(n, rho)
	if err != nil {
		return System{}, err
	}
	set := &particle.Set{}
	set.Grow(n)
	r := rng.New(seed)
	side := int(math.Ceil(math.Cbrt(float64(n))))
	spacing := box.L.X / float64(side)
	id := int64(0)
	for iz := 0; iz < side && id < int64(n); iz++ {
		for iy := 0; iy < side && id < int64(n); iy++ {
			for ix := 0; ix < side && id < int64(n); ix++ {
				p := vec.New(
					(float64(ix)+0.5)*spacing,
					(float64(iy)+0.5)*spacing,
					(float64(iz)+0.5)*spacing,
				)
				set.Add(id, box.Wrap(p), r.MaxwellVelocity(tref, 1))
				id++
			}
		}
	}
	integrator.RemoveDrift(set)
	integrator.RescaleToTemperature(set, tref)
	return System{Box: box, Set: set}, nil
}
