package core

import (
	"fmt"
	"math"
	"testing"

	"permcell/internal/integrator"
	"permcell/internal/particle"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// blobGas places a fraction concFrac of the n particles in a Gaussian blob
// of standard deviation sigma around the box center and the rest uniformly.
// Overlapping-core positions are resolved by resampling blob positions onto
// a jittered sub-lattice, so the configuration is usable with LJ cores.
// It models a partially condensed gas — the droplet the supercooled run
// develops after thousands of steps — so the DLB tests start with the load
// already concentrated.
func blobGas(n int, rho, tref, concFrac, sigma float64, seed uint64) (workload.System, error) {
	if concFrac < 0 || concFrac > 1 {
		return workload.System{}, fmt.Errorf("blobGas: concFrac must be in [0,1], got %g", concFrac)
	}
	box, err := space.CubicBoxForDensity(n, rho)
	if err != nil {
		return workload.System{}, err
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
				return workload.System{}, fmt.Errorf("blobGas: cannot fit %d background particles outside the blob", nBg)
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
			return workload.System{}, fmt.Errorf("blobGas: background placement failed")
		}
	}
	integrator.RemoveDrift(set)
	return workload.System{Box: box, Set: set}, nil
}

func TestBlobGasConcentration(t *testing.T) {
	sys, err := blobGas(512, 0.256, 0.722, 0.5, 3.0, 5)
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
	if _, err := blobGas(10, 0.1, 1, 1.5, 1, 1); err == nil {
		t.Error("concFrac > 1 accepted")
	}
}

func TestBlobGasMinimumSpacing(t *testing.T) {
	sys, err := blobGas(216, 0.256, 0.722, 1.0, 2.0, 6)
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
