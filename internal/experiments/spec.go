// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figs. 5, 6, 9, 10 and Table 1). Each experiment is a
// function returning a typed result plus a Render method that prints the
// same rows/series the paper reports. Every run goes through the permcell
// facade, the entry point mdrun, mdserve and the examples use.
//
// Substitution note (see DESIGN.md): the paper lets a supercooled Argon gas
// condense over ~10^4 T3E time steps. Reproducing that wall-clock budget is
// pointless on a simulated machine, so the condensation is accelerated with
// harmonic attractor wells — the presets scatter 0.75 per PE, at least 3 —
// that pull the gas into droplets within O(10^2-10^3) steps while
// exercising the identical DDM/DLB code paths. The wells do not reproduce
// the pure-physics (n, C_0/C) state: they reach higher C_0/C at larger n
// than the gas alone does (DESIGN.md, EXPERIMENTS.md), so the figures
// measure the driver's trajectory. The pure-physics path remains available
// by setting WellK = 0.
package experiments

import (
	"context"

	"permcell"
	"permcell/internal/checkpoint"
)

// RunSpec is one condensing run: the run identity plus how many steps to
// run it and whether to time its phases. The presets' runs are KindDLB:
// the square-pillar cross-section size m, the PE count P (perfect square)
// and the reduced density rho, on a grid of side nc = m*sqrt(P) cells of
// side r_c = 2.5, so C = nc^3 and N = round(rho * (2.5 nc)^3). WellK 0
// disables the condensation wells: pure supercooled-gas physics.
type RunSpec struct {
	permcell.Spec
	Steps int
	// Metrics enables the per-phase timing layer (permcell.WithMetrics).
	Metrics bool
}

// SysInfo reports the concrete sizes a spec resolved to.
type SysInfo = checkpoint.Size

// options is the spec's runtime: the identity travels in the Spec.
func (s RunSpec) options() []permcell.Option {
	if s.Metrics {
		return []permcell.Option{permcell.WithMetrics()}
	}
	return nil
}

// Run executes the spec through the facade.
func (s RunSpec) Run() (*permcell.Result, SysInfo, error) { return s.run(s.options()) }

func (s RunSpec) run(opts []permcell.Option) (*permcell.Result, SysInfo, error) {
	eng, err := permcell.Build(s.Spec, opts...)
	if err != nil {
		return nil, SysInfo{}, err
	}
	res, err := permcell.RunEngine(context.Background(), eng, s.Steps)
	return res, s.Size(), err
}
