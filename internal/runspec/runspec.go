// Package runspec turns a valid run identity into a runnable system. The
// identity is the checkpoint.Spec a header embeds — engine kind, paper
// coordinates, condensation driver, balancer, seed, time step — checked by
// its own Validate, and this package is the one place that knows how those
// coordinates become a box, a cell grid, attractor wells and an engine
// configuration. The facade and the TCP workers build through it, fresh
// (st == nil: the lattice start) or restored (the snapshot's frames stand
// in for the generated particles), so every path places identical wells and
// starts from identical bits.
//
// Only physics lives here. Runtime policy — hooks, metrics, fault plans,
// watchdog, guards, transport, checkpoint cadence — is the caller's to set
// on the returned configuration.
package runspec

import (
	"cmp"
	"fmt"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/core"
	"permcell/internal/decomp"
	"permcell/internal/mdserial"
	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/units"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// Balancer decodes the strategy an identity names. Headers predating the
// Balancer field carry only the DLB flag, which identifies the
// permanent-cell scheme with the stored hysteresis.
func Balancer(meta *checkpoint.Meta) (balance.Balancer, error) {
	if meta.Balancer == "" && meta.DLB {
		return balance.PermanentCell{Hysteresis: meta.Hysteresis}, nil
	}
	return balance.Decode(meta.Balancer)
}

// system is what every engine kind shares: the paper's LJ fluid at the
// paper's temperature on a cubic grid, plus the optional condensation wells.
type system struct {
	sys  workload.System
	grid space.Grid
	ext  potential.External
	dt   float64
}

// resolve turns a valid identity into the shared system: the only checks
// here are the Spec's own Validate and the legacy Shards field.
func resolve(meta *checkpoint.Meta, st *checkpoint.EngineState) (system, error) {
	if meta.Shards > 1 {
		// The legacy field: the run summed its forces in an order no engine
		// reproduces any more, so resuming it would change its trace.
		return system{}, fmt.Errorf("runspec: the header records %d intra-rank shards; shards were retired, and only unsharded runs can be resumed", meta.Shards)
	}
	if err := meta.Validate(); err != nil {
		return system{}, err
	}
	size := meta.Size()
	l := float64(size.NC) * units.PaperCutoff
	rho := float64(size.N) / (l * l * l) // the density N particles actually have
	s := system{dt: cmp.Or(meta.Dt, checkpoint.DefaultDt)}
	var err error
	if st == nil {
		s.sys, err = workload.LatticeGas(size.N, rho, units.PaperTref, meta.Seed)
	} else {
		// The frames carry the particles; only the box is regenerated.
		s.sys.Box, err = space.CubicBoxForDensity(size.N, rho)
	}
	if err != nil {
		return system{}, err
	}
	if s.grid, err = space.NewGridWithDims(s.sys.Box, size.NC, size.NC, size.NC); err != nil {
		return system{}, err
	}
	if l := s.sys.Box.L; meta.WellK > 0 {
		if meta.Wells <= 1 {
			s.ext = potential.HarmonicWell{Center: l.Scale(0.5), K: meta.WellK, L: l}
		} else {
			r := rng.New(meta.Seed ^ 0xA5A5A5A5)
			centers := make([]vec.V, meta.Wells)
			for i := range centers {
				centers[i] = r.InBox(l)
			}
			s.ext = potential.NewMultiWell(centers, meta.WellK, l)
		}
	}
	return s, nil
}

// Parallel builds the rank-block engine configuration and initial system of
// a KindDLB identity (the column ledger under the identity's balancer) or a
// KindStatic one (a fixed plane/pillar/cube ownership map, no balancer).
// With st the run resumes from the snapshot and the returned system carries
// the box only.
func Parallel(meta *checkpoint.Meta, st *checkpoint.EngineState) (core.Config, workload.System, error) {
	s, err := resolve(meta, st)
	if err != nil {
		return core.Config{}, workload.System{}, err
	}
	cfg := core.Config{
		P: meta.P, Grid: s.grid,
		Pair: potential.NewPaperLJ(), Ext: s.ext,
		Dt: s.dt, Tref: units.PaperTref, RescaleEvery: units.PaperRescaleInterval,
		StatsEvery: meta.StatsEvery,
		Restore:    st,
	}
	switch meta.Kind {
	case checkpoint.KindDLB:
		cfg.Balancer, err = Balancer(meta)
	case checkpoint.KindStatic:
		cfg.Decomp, err = decomp.New(meta.Shape, s.grid, meta.P)
	default:
		err = fmt.Errorf("runspec: no parallel engine of kind %q", meta.Kind)
	}
	if err != nil {
		return core.Config{}, workload.System{}, err
	}
	return cfg, s.sys, nil
}

// Serial builds the serial reference engine of a KindSerial identity: the
// same numerical method with no communication, as a pure NVE system under
// the energy-shifted LJ. With st the particle set is the snapshot's single
// frame in its recorded order and the step counter continues from it.
func Serial(meta *checkpoint.Meta, st *checkpoint.EngineState) (mdserial.Config, *particle.Set, error) {
	s, err := resolve(meta, st)
	if err != nil {
		return mdserial.Config{}, nil, err
	}
	lj, err := potential.NewLJ(1, 1, units.PaperCutoff, true)
	if err != nil {
		return mdserial.Config{}, nil, err
	}
	cfg := mdserial.Config{
		Box: s.sys.Box, Pair: lj, Ext: s.ext,
		Dt: s.dt, Grid: s.grid,
	}
	set := s.sys.Set
	if st != nil {
		if len(st.Frames) != 1 {
			return mdserial.Config{}, nil, fmt.Errorf("runspec: serial checkpoint has %d frames, want 1", len(st.Frames))
		}
		if set, err = st.Frames[0].SetOf(); err != nil {
			return mdserial.Config{}, nil, err
		}
		cfg.StartStep = st.Step
	}
	return cfg, set, nil
}
