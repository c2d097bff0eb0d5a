package permcell_test

// Physics-invariant tests for the force path, run for all three engines
// (and under -race in CI): Newton's third law —
// the total force over a closed system is zero — and its integrated
// consequence, conservation of total momentum over a multi-step run. The
// lattice-gas initial condition has its drift removed, so any momentum the
// final state carries was injected by the force kernel or the integrator.

import (
	"context"
	"math"
	"testing"

	"permcell"
	"permcell/internal/kernel"
	"permcell/internal/mdserial"
	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/units"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// forceSum recomputes pair forces for a final configuration with an
// all-hosted CellLists and returns their vector sum. Newton's third law
// makes the exact sum zero pair by pair; floating-point cancellation
// leaves rounding dust that must stay many orders below the typical
// single-particle force.
func forceSum(t *testing.T, pos []vec.V, box space.Box) vec.V {
	t.Helper()
	g, err := space.NewGrid(box, units.PaperCutoff)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	cl := kernel.NewCellLists(g, 1)
	t.Cleanup(cl.Close)
	cl.SetHosted(cells)
	cl.SealGhosts()
	s := &particle.Set{}
	for i, p := range pos {
		s.Add(int64(i), p, vec.Zero)
	}
	if bad := cl.Bin(s.Pos); bad >= 0 {
		t.Fatalf("particle %d outside the grid", bad)
	}
	s.ZeroForces()
	if _, _, pairs := cl.Compute(potential.NewPaperLJ(), s); pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	var sum vec.V
	for _, f := range s.Frc {
		sum = sum.Add(f)
	}
	return sum
}

// maxAbsComponent returns the largest |component| of v.
func maxAbsComponent(v vec.V) float64 {
	return math.Max(math.Abs(v.X), math.Max(math.Abs(v.Y), math.Abs(v.Z)))
}

// TestSerialZeroTotalForcePerStep checks the third law directly on the
// serial engine's live force array after every step: with no external
// field, the forces the integrator actually consumes must sum to zero.
func TestSerialZeroTotalForcePerStep(t *testing.T) {
	sys, err := workload.LatticeGas(256, 0.256, units.PaperTref, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGrid(sys.Box, units.PaperCutoff)
	if err != nil {
		t.Fatal(err)
	}
	lj, err := potential.NewLJ(1, 1, units.PaperCutoff, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mdserial.New(mdserial.Config{
		Box: sys.Box, Pair: lj, Dt: 0.005, Grid: g,
	}, sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		eng.Step()
		var sum vec.V
		for _, f := range eng.Set().Frc {
			sum = sum.Add(f)
		}
		if maxAbsComponent(sum) > 1e-10 {
			t.Fatalf("step %d: total force %v", step, sum)
		}
	}
	eng.Close()
}

// TestEnginesZeroTotalForce evolves each engine for a few steps and then
// recomputes forces from the gathered final configuration, asserting the
// third law holds on states each engine actually produces (not just on
// synthetic lattices).
func TestEnginesZeroTotalForce(t *testing.T) {
	builders := map[string]func() (permcell.Engine, error){
		"serial": func() (permcell.Engine, error) {
			return permcell.NewSerial(3, 0.256, permcell.WithSeed(5))
		},
		"dlb": func() (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(5))
		},
		"static": func() (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapePlane, 4, 2, 0.256,
				permcell.WithSeed(5))
		},
	}
	for name, build := range builders {
		eng, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := permcell.RunEngine(context.Background(), eng, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Final == nil || res.Final.Len() == 0 {
			t.Fatalf("%s: empty final state", name)
		}
		box, err := space.NewCubicBox(math.Cbrt(float64(res.Final.Len()) / 0.256))
		if err != nil {
			t.Fatal(err)
		}
		sum := forceSum(t, res.Final.Pos, box)
		if maxAbsComponent(sum) > 1e-10 {
			t.Fatalf("%s: total force %v on the final state", name, sum)
		}
	}
}

// TestEnginesMomentumConservation runs a multi-step simulation on each
// engine and asserts the total momentum stays at the zero it started from
// (LatticeGas removes the initial drift). The parallel engines' velocity
// rescaling multiplies every velocity by one common factor, which
// preserves a zero sum, so the thermostat does not excuse a drift; any
// growth is force-kernel asymmetry amplified by the integrator.
func TestEnginesMomentumConservation(t *testing.T) {
	const steps = 40
	builders := map[string]func() (permcell.Engine, error){
		"serial": func() (permcell.Engine, error) {
			return permcell.NewSerial(3, 0.256, permcell.WithSeed(9))
		},
		"dlb": func() (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(9))
		},
		"static": func() (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapePlane, 4, 2, 0.256,
				permcell.WithSeed(9))
		},
	}
	for name, build := range builders {
		eng, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := permcell.RunEngine(context.Background(), eng, steps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := res.Final.Momentum()
		if maxAbsComponent(p) > 1e-9 {
			t.Fatalf("%s: momentum %v after %d steps", name, p, steps)
		}
	}
}
