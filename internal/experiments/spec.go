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
	"fmt"
	"math"

	"permcell/internal/balance"
	"permcell/internal/core"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/units"
	"permcell/internal/vec"
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
	// DLB selects the permanent-cell balancer (the paper's method) with
	// the Hysteresis below; Balancer, when non-nil, selects an explicit
	// strategy instead and wins over DLB.
	DLB      bool
	Balancer balance.Balancer
	Seed     uint64
	// WellK is the harmonic well strength driving concentration
	// (0 disables the wells: pure supercooled-gas physics).
	WellK float64
	// Wells is the number of attractor sites scattered through the box
	// (the droplet nuclei). 0 or 1 places a single central well.
	Wells int
	// Hysteresis is the DLB trigger threshold (relative load gap); it
	// parameterizes the DLB switch only.
	Hysteresis float64
	// StatsEvery thins the per-step statistics (default 1).
	StatsEvery int
	// Shards is the per-PE force-kernel worker count (<= 1 = serial
	// kernel). Traces are bit-deterministic per shard count.
	Shards int
	// Metrics enables the per-phase timing layer (core.Config.Metrics).
	Metrics bool
	// Dt overrides the integration time step. Zero selects the experiment
	// default of 0.005 reduced time units — a standard (stable) LJ step
	// that reaches the paper's physical time span in ~50x fewer steps than
	// the paper's very conservative 1e-4. Set to units.PaperTimeStep for
	// the literal setup.
	Dt float64
	// Start optionally pre-concentrates a fraction of the particles in a
	// central blob (0 = uniform lattice start).
	BlobFrac  float64
	BlobSigma float64
}

// SysInfo reports the concrete sizes a spec resolved to.
type SysInfo struct {
	N, C, NC int
	Box      float64
	RhoUsed  float64
}

// Build constructs the system and engine configuration for the spec.
func (s RunSpec) Build() (core.Config, workload.System, SysInfo, error) {
	sq := int(math.Round(math.Sqrt(float64(s.P))))
	if sq*sq != s.P || sq < 2 {
		return core.Config{}, workload.System{}, SysInfo{}, fmt.Errorf("experiments: P=%d is not a perfect square >= 4", s.P)
	}
	if s.M < 2 {
		return core.Config{}, workload.System{}, SysInfo{}, fmt.Errorf("experiments: m=%d leaves no movable cells", s.M)
	}
	nc := s.M * sq
	l := float64(nc) * units.PaperCutoff
	n := int(math.Round(s.Rho * l * l * l))
	rho := float64(n) / (l * l * l)

	var sys workload.System
	var err error
	if s.BlobFrac > 0 {
		sigma := s.BlobSigma
		if sigma == 0 {
			sigma = l / 6
		}
		sys, err = workload.BlobGas(n, rho, units.PaperTref, s.BlobFrac, sigma, s.Seed)
	} else {
		sys, err = workload.LatticeGas(n, rho, units.PaperTref, s.Seed)
	}
	if err != nil {
		return core.Config{}, workload.System{}, SysInfo{}, err
	}
	grid, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		return core.Config{}, workload.System{}, SysInfo{}, err
	}

	dt := s.Dt
	if dt == 0 {
		dt = 0.005
	}
	cfg := core.Config{
		P:            s.P,
		Grid:         grid,
		Pair:         potential.NewPaperLJ(),
		Dt:           dt,
		Tref:         units.PaperTref,
		RescaleEvery: units.PaperRescaleInterval,
		Balancer:     s.Balancer,
		Metric:       core.WorkCount,
		Shards:       s.Shards,
		StatsEvery:   s.StatsEvery,
		Metrics:      s.Metrics,
	}
	if cfg.Balancer == nil && s.DLB {
		cfg.Balancer = balance.PermanentCell{Hysteresis: s.Hysteresis}
	}
	if s.WellK > 0 {
		if s.Wells <= 1 {
			cfg.Ext = potential.HarmonicWell{Center: sys.Box.L.Scale(0.5), K: s.WellK, L: sys.Box.L}
		} else {
			r := rng.New(s.Seed ^ 0xA5A5A5A5)
			centers := make([]vec.V, s.Wells)
			for i := range centers {
				centers[i] = r.InBox(sys.Box.L)
			}
			cfg.Ext = potential.MultiWell{Centers: centers, K: s.WellK, L: sys.Box.L}
		}
	}
	info := SysInfo{N: n, C: nc * nc * nc, NC: nc, Box: l, RhoUsed: rho}
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
