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
	"permcell/internal/balance"
	"permcell/internal/runspec"
)

// RunSpec describes one condensing parallel MD run in paper coordinates:
// the square-pillar cross-section size m, the PE count P (perfect square),
// and the reduced density rho. The grid side is nc = m*sqrt(P) cells of
// side r_c = 2.5, so C = nc^3 and N = round(rho * (2.5 nc)^3).
type RunSpec struct {
	M, P  int
	Rho   float64
	Steps int
	// Balancer is the load-balancing strategy (nil = plain DDM;
	// balance.PermanentCell is the paper's method).
	Balancer balance.Balancer
	Seed     uint64
	// WellK is the harmonic well strength driving concentration
	// (0 disables the wells: pure supercooled-gas physics).
	WellK float64
	// Wells is the number of attractor sites scattered through the box
	// (the droplet nuclei). 0 or 1 places a single central well.
	Wells int
	// Shards is the per-PE force-kernel worker count (<= 1 = serial
	// kernel). Traces are bit-deterministic per shard count.
	Shards int
	// Metrics enables the per-phase timing layer (permcell.WithMetrics).
	Metrics bool
}

// SysInfo reports the concrete sizes a spec resolved to.
type SysInfo = runspec.Info

// info resolves the spec's sizes.
func (s RunSpec) info() (SysInfo, error) {
	nc, err := runspec.Side(s.M, s.P)
	return runspec.Sizes(nc, s.Rho), err
}

// options translates the spec into facade options.
func (s RunSpec) options() []permcell.Option {
	opts := []permcell.Option{
		permcell.WithBalancer(s.Balancer), permcell.WithSeed(s.Seed),
		permcell.WithWells(s.Wells, s.WellK), permcell.WithShards(s.Shards),
	}
	if s.Metrics {
		opts = append(opts, permcell.WithMetrics())
	}
	return opts
}

// Run executes the spec through the facade.
func (s RunSpec) Run() (*permcell.Result, SysInfo, error) { return s.run(s.options()) }

func (s RunSpec) run(opts []permcell.Option) (*permcell.Result, SysInfo, error) {
	info, err := s.info()
	if err != nil {
		return nil, info, err
	}
	res, err := permcell.Run(context.Background(), s.M, s.P, s.Rho, s.Steps, opts...)
	return res, info, err
}
