package experiments

import (
	"permcell"
	"permcell/internal/balance"
)

// Preset bundles the run sizes for one reproduction scale. The paper's
// exact sizes (Full) need hours on a laptop-class machine; Small keeps the
// same structure at P=16 in minutes; Tiny drives the identical code paths
// in seconds for tests and benchmarks.
type Preset struct {
	Name string
	// P is the PE count for the single-P figures (5, 6, 9, 10).
	P int
	// Ms are the square-pillar sizes swept by Fig. 10 and Table 1.
	Ms []int
	// Ps are the PE counts swept by Table 1.
	Ps []int
	// Densities are the reduced densities of the Fig. 10 boundary points.
	Densities []float64
	// Table1Ms/Table1Densities optionally restrict the Table 1 sweep (the
	// grid of (m, P, rho) boundary runs is the most expensive part of the
	// reproduction; large m at large P means very large N). Empty means
	// use Ms/Densities.
	Table1Ms        []int
	Table1Densities []float64
	// FigSteps is the length of the Fig. 5/6/9 trace runs; BoundarySteps
	// the length of each boundary-detection run.
	FigSteps, BoundarySteps int
	// Reps is the number of independent runs averaged per boundary point
	// (the paper uses ten).
	Reps int
	// WellK and WellsPerPE configure the condensation driver.
	WellK      float64
	WellsPerPE float64
	// Hysteresis is the DLB trigger threshold.
	Hysteresis float64
}

// Tiny is the test/benchmark scale: P=4, sub-second runs.
func Tiny() Preset {
	return Preset{
		Name:          "tiny",
		P:             4,
		Ms:            []int{2, 3},
		Ps:            []int{4},
		Densities:     []float64{0.256, 0.384},
		FigSteps:      300,
		BoundarySteps: 400,
		Reps:          1,
		WellK:         1.5,
		WellsPerPE:    0.75,
		Hysteresis:    0.1,
	}
}

// Small is the default CLI scale: P=16, minutes per figure on a laptop.
func Small() Preset {
	return Preset{
		Name:            "small",
		P:               16,
		Ms:              []int{2, 3, 4},
		Ps:              []int{16, 36},
		Densities:       []float64{0.128, 0.256, 0.384, 0.512},
		Table1Ms:        []int{2, 3},
		Table1Densities: []float64{0.128, 0.256},
		FigSteps:        600,
		BoundarySteps:   700,
		Reps:            1,
		WellK:           1.5,
		WellsPerPE:      0.75,
		Hysteresis:      0.1,
	}
}

// Full is the paper scale: P=36 figures (m=4: N=59319, C=13824, matching
// Fig. 5(a)), Table 1 over P in {16, 36, 64}, ten runs per boundary point.
// Expect hours of wall time.
func Full() Preset {
	return Preset{
		Name:          "full",
		P:             36,
		Ms:            []int{2, 3, 4},
		Ps:            []int{16, 36, 64},
		Densities:     []float64{0.128, 0.256, 0.384, 0.512},
		FigSteps:      2000,
		BoundarySteps: 1500,
		Reps:          10,
		WellK:         1.5,
		WellsPerPE:    0.75,
		Hysteresis:    0.1,
	}
}

// PresetByName resolves tiny/small/full.
func PresetByName(name string) (Preset, bool) {
	switch name {
	case "tiny":
		return Tiny(), true
	case "small", "":
		return Small(), true
	case "full":
		return Full(), true
	default:
		return Preset{}, false
	}
}

// wells returns the attractor-site count for a PE count.
func (pr Preset) wells(p int) int {
	w := int(pr.WellsPerPE * float64(p))
	if w < 3 {
		w = 3
	}
	return w
}

// dlb is the paper's permanent-cell balancer at the preset's hysteresis.
func (pr Preset) dlb() balance.Balancer {
	return balance.PermanentCell{Hysteresis: pr.Hysteresis}
}

// spec builds the common condensing RunSpec under balancer b (nil = DDM).
func (pr Preset) spec(m, p int, rho float64, steps int, b balance.Balancer, seed uint64) RunSpec {
	return RunSpec{Spec: permcell.Spec{
		Kind: permcell.KindDLB, M: m, P: p, Rho: rho, Balancer: balance.Encode(b), Seed: seed,
		WellK: pr.WellK, Wells: pr.wells(p),
	}, Steps: steps}
}
