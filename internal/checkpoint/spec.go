package checkpoint

import (
	"cmp"
	"fmt"
	"math"

	"permcell/internal/balance"
	"permcell/internal/decomp"
	"permcell/internal/dlb"
	"permcell/internal/units"
)

// DefaultDt is the integration step a zero Spec.Dt selects: a standard
// (stable) LJ step that reaches the paper's physical time span in ~50x fewer
// steps than the paper's very conservative units.PaperTimeStep.
const DefaultDt = 0.005

// Spec is the run identity: a run *is* its engine kind, its coordinates in
// the paper's terms, its condensation driver, balancer, seed, time step and
// stats cadence. It is written down once — the facade's Build records it,
// normalized — and every checkpoint header embeds it (Meta), so a file
// carries the run's own spec rather than a description of it. Validate is
// the one copy of the rules every spelling of an identity (facade
// constructors, POST /runs, the CLI flag sets, the experiments) is held to;
// internal/runspec turns a valid Spec into a system.
type Spec struct {
	// Kind is the engine kind (KindDLB, KindStatic, KindSerial).
	Kind string

	// Coordinates. KindDLB uses M/P/Rho (grid side m*sqrt(P)); KindStatic
	// uses Shape/NC/P/Rho; KindSerial uses NC/Rho.
	M, P  int
	NC    int
	Shape decomp.Shape
	Rho   float64

	// Balancer is the encoded load-balancing strategy of a KindDLB run
	// (balance.Encode): "permcell(...)", "sfc(...)", "diffusive(...)",
	// "none" (static DDM), or "" in checkpoints predating the
	// pluggable-balancer format. Restore refuses to resume a checkpoint
	// under a different balancer than it was written with.
	Balancer string

	// Seed seeds the lattice-gas start and the well centres; Dt is the
	// integration step (0 selects DefaultDt).
	Seed uint64
	Dt   float64
	// Wells attractor sites of strength WellK drive condensation; WellK 0
	// is pure physics, and Wells <= 1 with WellK > 0 one central well.
	Wells int
	WellK float64
	// StatsEvery thins the per-step statistics to every k-th step.
	StatsEvery int
}

// Normalized is the identity a fresh engine of s records: dt 0 becomes
// DefaultDt, seed 0 becomes 1, a stats cadence below 1 becomes 1, and a
// KindDLB balancer takes its canonical balance.Encode form ("" and "none"
// both read "none"). A balancer that does not decode stays as written, for
// Validate to refuse.
func (s Spec) Normalized() Spec {
	s.Dt = cmp.Or(s.Dt, DefaultDt)
	s.Seed = cmp.Or(s.Seed, 1)
	s.StatsEvery = max(s.StatsEvery, 1)
	if s.Kind == KindDLB {
		if b, err := balance.Decode(s.Balancer); err == nil {
			s.Balancer = balance.Encode(b)
		}
	}
	return s
}

// Size is what a spec's coordinates resolve to: NC cells per dimension, C
// = NC^3 cells, and N = round(rho (NC r_c)^3) particles.
type Size struct {
	NC, C, N int
}

// Size resolves the spec's grid and particle count. Every count saturates:
// one beyond int, or not a number, reads math.MaxInt, so admission can cap
// a spec no engine could hold without any count wrapping past the cap. The
// arithmetic is in floating point, exact below 2^53.
func (s Spec) Size() Size {
	side := float64(s.NC)
	if s.Kind == KindDLB {
		side = float64(s.M) * math.Round(math.Sqrt(float64(s.P)))
	}
	l := side * units.PaperCutoff
	return Size{NC: saturate(side), C: saturate(side * side * side), N: saturate(math.Round(s.Rho * l * l * l))}
}

// saturate converts a count computed in floating point to int, or to
// math.MaxInt when it does not fit or is not a number.
func saturate(x float64) int {
	if !(x < math.MaxInt) {
		return math.MaxInt
	}
	return int(x)
}

// Validate refuses an identity no engine can be built from: an unknown
// kind, coordinates the kind's decomposition cannot divide, a balancer
// that does not decode (or fits no KindDLB layout), a density that is not
// positive and finite or leaves the box without a particle, a negative
// well count or strength, and a time step that is neither 0 (the default)
// nor positive and finite.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindDLB:
		sq := int(math.Round(math.Sqrt(float64(s.P))))
		if sq*sq != s.P || sq < 2 {
			return fmt.Errorf("checkpoint: P=%d is not a perfect square >= 4", s.P)
		}
		if s.M < 2 {
			return fmt.Errorf("checkpoint: m=%d leaves no movable cells", s.M)
		}
		b, err := balance.Decode(s.Balancer)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if b != nil {
			l, err := dlb.NewLayout(sq, s.M)
			if err == nil {
				err = b.Validate(l)
			}
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	case KindStatic, KindSerial:
		if s.NC < 1 {
			return fmt.Errorf("checkpoint: grid side nc=%d", s.NC)
		}
		if s.Kind == KindStatic {
			if err := decomp.Check(s.Shape, s.NC, s.NC, s.NC, s.P); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		if s.Balancer != "" {
			return fmt.Errorf("checkpoint: balancer %q requires the %s engine, not %s", s.Balancer, KindDLB, s.Kind)
		}
	default:
		return fmt.Errorf("checkpoint: unknown engine kind %q", s.Kind)
	}
	if !(s.Rho > 0) || math.IsInf(s.Rho, 1) {
		return fmt.Errorf("checkpoint: rho must be positive and finite, got %g", s.Rho)
	}
	if sz := s.Size(); sz.N < 1 {
		return fmt.Errorf("checkpoint: rho %g leaves no particle in %d^3 cells", s.Rho, sz.NC)
	}
	if s.Wells < 0 {
		return fmt.Errorf("checkpoint: wells must be >= 0, got %d", s.Wells)
	}
	if !(s.WellK >= 0) {
		return fmt.Errorf("checkpoint: well strength must be >= 0, got %g", s.WellK)
	}
	if s.Dt != 0 && (!(s.Dt > 0) || math.IsInf(s.Dt, 1)) {
		return fmt.Errorf("checkpoint: time step must be 0 (the default) or positive and finite, got %g", s.Dt)
	}
	return nil
}
