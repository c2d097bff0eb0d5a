// Package workload builds initial conditions for the simulations: uniform
// lattice gases with Maxwell-Boltzmann velocities (the paper's supercooled
// Argon setup), and pre-concentrated configurations (Gaussian blobs,
// multi-cluster mixtures) used to reach the high-concentration regime of
// Section 4 quickly.
package workload

import (
	"fmt"
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

// BlobGas places a fraction concFrac of the n particles in a Gaussian blob
// of standard deviation sigma around the box center and the rest uniformly.
// Overlapping-core positions are resolved by resampling blob positions onto
// a jittered sub-lattice, so the configuration is usable with LJ cores.
// It models a partially condensed gas: the droplet the supercooled run
// develops after thousands of steps.
func BlobGas(n int, rho, tref, concFrac, sigma float64, seed uint64) (System, error) {
	if concFrac < 0 || concFrac > 1 {
		return System{}, fmt.Errorf("workload: concFrac must be in [0,1], got %g", concFrac)
	}
	box, err := space.CubicBoxForDensity(n, rho)
	if err != nil {
		return System{}, err
	}
	set := &particle.Set{}
	r := rng.New(seed)
	center := box.L.Scale(0.5)
	nBlob := int(float64(n) * concFrac)

	// Blob particles: dense jittered lattice around the center, extent ~sigma.
	side := int(math.Ceil(math.Cbrt(float64(nBlob))))
	if side < 1 {
		side = 1
	}
	pitch := 2 * sigma / float64(side)
	if pitch < 1.05 { // keep LJ cores from overlapping
		pitch = 1.05
	}
	id := int64(0)
	blobRadius := 0.0
	for iz := 0; iz < side && id < int64(nBlob); iz++ {
		for iy := 0; iy < side && id < int64(nBlob); iy++ {
			for ix := 0; ix < side && id < int64(nBlob); ix++ {
				off := vec.New(
					(float64(ix)-float64(side-1)/2)*pitch+r.Uniform(-0.02, 0.02),
					(float64(iy)-float64(side-1)/2)*pitch+r.Uniform(-0.02, 0.02),
					(float64(iz)-float64(side-1)/2)*pitch+r.Uniform(-0.02, 0.02),
				)
				if d := off.Norm(); d > blobRadius {
					blobRadius = d
				}
				set.Add(id, box.Wrap(center.Add(off)), r.MaxwellVelocity(tref, 1))
				id++
			}
		}
	}

	// Background particles: lattice over the whole box, excluding a sphere
	// around the blob so no background point overlaps a blob core (an
	// overlap would produce unphysical forces and blow up the integrator).
	nBg := n - int(id)
	if nBg > 0 {
		rExcl := blobRadius + 0.9
		placed := false
		for sideBg := int(math.Ceil(math.Cbrt(float64(nBg)))); ; sideBg++ {
			spacing := box.L.X / float64(sideBg)
			if spacing < 1.0 {
				return System{}, fmt.Errorf("workload: cannot fit %d background particles outside the blob", nBg)
			}
			var pts []vec.V
			for iz := 0; iz < sideBg && len(pts) < nBg; iz++ {
				for iy := 0; iy < sideBg && len(pts) < nBg; iy++ {
					for ix := 0; ix < sideBg && len(pts) < nBg; ix++ {
						p := vec.New(
							(float64(ix)+0.25)*spacing,
							(float64(iy)+0.25)*spacing,
							(float64(iz)+0.25)*spacing,
						)
						if box.Displacement(p, center).Norm() <= rExcl {
							continue
						}
						pts = append(pts, p)
					}
				}
			}
			if len(pts) >= nBg {
				for _, p := range pts[:nBg] {
					set.Add(id, box.Wrap(p), r.MaxwellVelocity(tref, 1))
					id++
				}
				placed = true
				break
			}
		}
		if !placed {
			return System{}, fmt.Errorf("workload: background placement failed")
		}
	}
	integrator.RemoveDrift(set)
	return System{Box: box, Set: set}, nil
}
