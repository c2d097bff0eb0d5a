// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figs. 5, 6, 9, 10 and Table 1). Each experiment is a
// function returning a typed result plus a Render method that prints the
// same rows/series the paper reports.
//
// Substitution note (see DESIGN.md): the paper lets a supercooled Argon gas
// condense over ~10^4 T3E time steps. Reproducing that wall-clock budget is
// pointless on a simulated machine, so the condensation is accelerated with
// a central harmonic well, which produces the same monotone growth of the
// concentration state (n, C_0/C) that drives every evaluated quantity while
// exercising the identical DDM/DLB code paths. The pure-physics path (no
// well) remains available by setting WellK = 0.
package experiments

import (
	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/core"
	"permcell/internal/runspec"
	"permcell/internal/units"
	"permcell/internal/workload"
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
	// StatsEvery thins the per-step statistics (default 1).
	StatsEvery int
	// Shards is the per-PE force-kernel worker count (<= 1 = serial
	// kernel). Traces are bit-deterministic per shard count.
	Shards int
	// Metrics enables the per-phase timing layer (core.Config.Metrics).
	Metrics bool
	// Dt overrides the integration time step. Zero selects
	// runspec.DefaultDt; set to units.PaperTimeStep for the literal setup.
	Dt float64
	// BlobFrac optionally pre-concentrates a fraction of the particles in
	// a central blob of width box/6 (0 = uniform lattice start).
	BlobFrac float64
}

// SysInfo reports the concrete sizes a spec resolved to.
type SysInfo = runspec.Info

// Meta writes the spec down as the run identity every engine path builds
// from and every checkpoint of the run carries. The blob start is not part
// of it: an identity names the system, not where the particles began.
func (s RunSpec) Meta() checkpoint.Meta {
	return checkpoint.Meta{
		Kind: checkpoint.KindDLB, M: s.M, P: s.P, Rho: s.Rho,
		Balancer: balance.Encode(s.Balancer), Wells: s.Wells, WellK: s.WellK,
		Seed: s.Seed, Dt: s.Dt, Shards: s.Shards, StatsEvery: s.StatsEvery,
	}
}

// Build constructs the system and engine configuration for the spec: the
// shared builder's, with the lattice start swapped for the pre-concentrated
// blob when the spec asks for one.
func (s RunSpec) Build() (core.Config, workload.System, SysInfo, error) {
	meta := s.Meta()
	cfg, sys, info, err := runspec.Parallel(&meta, nil)
	if err != nil {
		return core.Config{}, workload.System{}, SysInfo{}, err
	}
	cfg.Metrics = s.Metrics
	if s.BlobFrac > 0 {
		sys, err = workload.BlobGas(info.N, info.RhoUsed, units.PaperTref, s.BlobFrac, info.Box/6, s.Seed)
		if err != nil {
			return core.Config{}, workload.System{}, SysInfo{}, err
		}
	}
	return cfg, sys, info, nil
}

// Run builds and executes the spec.
func (s RunSpec) Run() (*core.Result, SysInfo, error) {
	cfg, sys, info, err := s.Build()
	if err != nil {
		return nil, info, err
	}
	res, err := core.Run(cfg, sys, s.Steps)
	return res, info, err
}
