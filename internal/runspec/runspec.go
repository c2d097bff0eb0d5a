// Package runspec turns a run identity into a runnable system. The identity
// is checkpoint.Meta — engine kind, paper coordinates, condensation driver,
// balancer, seed, time step, shard count — and this package is the one place
// that knows how those coordinates become a box, a cell grid, a particle
// count, attractor wells and an engine configuration. The facade, the TCP
// workers and the experiments all build through it, fresh (st == nil: the
// lattice start) or restored (the snapshot's frames stand in for the
// generated particles), so every path places identical wells and starts
// from identical bits.
//
// Only physics lives here. Runtime policy — hooks, metrics, fault plans,
// watchdog, guards, transport, checkpoint cadence — is the caller's to set
// on the returned configuration.
package runspec

import (
	"fmt"
	"math"

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

// DefaultDt is the integration step a zero Meta.Dt selects: a standard
// (stable) LJ step that reaches the paper's physical time span in ~50x fewer
// steps than the paper's very conservative units.PaperTimeStep.
const DefaultDt = 0.005

// Info reports the concrete sizes an identity resolved to.
type Info struct {
	N, C, NC int
	Box      float64
	RhoUsed  float64
}

// Side returns the grid side nc = m*sqrt(P) of a permanent-cell run: P PEs
// (a perfect square) each owning an m x m pillar cross-section.
func Side(m, p int) (int, error) {
	sq := int(math.Round(math.Sqrt(float64(p))))
	if sq*sq != p || sq < 2 {
		return 0, fmt.Errorf("runspec: P=%d is not a perfect square >= 4", p)
	}
	if m < 2 {
		return 0, fmt.Errorf("runspec: m=%d leaves no movable cells", m)
	}
	return m * sq, nil
}

// Wells checks the condensation driver's parameters: n attractor wells of
// strength k. Zero of either is valid (k = 0 is pure physics; n <= 1 with
// k > 0 is one central well); a negative count or strength is not.
func Wells(n int, k float64) error {
	if n < 0 {
		return fmt.Errorf("runspec: wells must be >= 0, got %d", n)
	}
	if !(k >= 0) {
		return fmt.Errorf("runspec: well strength must be >= 0, got %g", k)
	}
	return nil
}

// TimeStep resolves an identity's integration step: 0 selects DefaultDt;
// any other value must be positive and finite (NaN integrates silently).
func TimeStep(dt float64) (float64, error) {
	if dt == 0 {
		return DefaultDt, nil
	}
	if !(dt > 0) || math.IsInf(dt, 1) {
		return 0, fmt.Errorf("runspec: time step must be positive and finite, got %g", dt)
	}
	return dt, nil
}

// Shards checks an identity's force-kernel shard count against its grid of
// nc cells per dimension: 0 and 1 are the serial kernel, and at most one
// shard per column of the nc*nc (a shard beyond that would own no column,
// yet cost a hit buffer and a pool goroutine on every rank).
func Shards(n, nc int) error {
	if n < 0 || n > nc*nc {
		return fmt.Errorf("runspec: shards must be in [0, %d] (one per column of the %d^2), got %d", nc*nc, nc, n)
	}
	return nil
}

// Sizes resolves a box of nc cells of side r_c per dimension at reduced
// density rho: N = round(rho * (nc r_c)^3), and the density those N
// particles actually have.
func Sizes(nc int, rho float64) Info {
	l := float64(nc) * units.PaperCutoff
	n := int(math.Round(rho * l * l * l))
	return Info{N: n, C: nc * nc * nc, NC: nc, Box: l, RhoUsed: float64(n) / (l * l * l)}
}

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
	info Info
	sys  workload.System
	grid space.Grid
	ext  potential.External
	dt   float64
}

func resolve(meta *checkpoint.Meta, st *checkpoint.EngineState) (system, error) {
	nc := meta.NC
	var err error
	switch meta.Kind {
	case checkpoint.KindDLB:
		nc, err = Side(meta.M, meta.P)
	case checkpoint.KindStatic, checkpoint.KindSerial:
		if nc < 1 {
			err = fmt.Errorf("runspec: grid side %d", nc)
		}
	default:
		err = fmt.Errorf("runspec: unknown engine kind %q", meta.Kind)
	}
	if err == nil {
		err = Wells(meta.Wells, meta.WellK)
	}
	if err == nil {
		err = Shards(meta.Shards, nc)
	}
	var dt float64
	if err == nil {
		dt, err = TimeStep(meta.Dt)
	}
	if err != nil {
		return system{}, err
	}
	s := system{info: Sizes(nc, meta.Rho), dt: dt}
	if st == nil {
		s.sys, err = workload.LatticeGas(s.info.N, s.info.RhoUsed, units.PaperTref, meta.Seed)
	} else {
		// The frames carry the particles; only the box is regenerated.
		s.sys.Box, err = space.CubicBoxForDensity(s.info.N, s.info.RhoUsed)
	}
	if err != nil {
		return system{}, err
	}
	if s.grid, err = space.NewGridWithDims(s.sys.Box, nc, nc, nc); err != nil {
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
		Shards: meta.Shards, StatsEvery: meta.StatsEvery,
		Restore: st,
	}
	switch meta.Kind {
	case checkpoint.KindDLB:
		cfg.Balancer, err = Balancer(meta)
	case checkpoint.KindStatic:
		cfg.Decomp, err = decomp.New(decomp.Shape(meta.Shape), s.grid, meta.P)
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
		Dt: s.dt, Grid: s.grid, Shards: meta.Shards,
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
