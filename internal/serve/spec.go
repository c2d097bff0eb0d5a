// Package serve is the multi-tenant run service: it multiplexes many
// concurrent simulations over the permcell Engine facade behind an HTTP
// API. A client POSTs a RunSpec and gets a run ID; the run is admitted
// through a bounded FIFO queue into a fixed worker pool, executes under its
// own supervisor and checkpoint directory, streams its per-step records
// live, and can be paused (checkpoint + park), resumed (restore +
// re-queue) and canceled without disturbing its neighbors. See DESIGN.md
// section 12 "Service architecture".
package serve

import (
	"fmt"
	"math"
	"time"

	"permcell"
	"permcell/internal/runspec"
	"permcell/internal/units"
)

// Engine kinds a RunSpec can request.
const (
	KindParallel = "parallel" // permcell.New: the DLB/DDM engine (default)
	KindStatic   = "static"   // permcell.NewStatic
	KindSerial   = "serial"   // permcell.NewSerial
)

// SabotageSpec scripts a one-shot injected fault (a PE panic or a NaN
// velocity) for chaos-testing a run's isolation and recovery. Serial
// engines ignore it. Served runs are in-process, so the worker-process
// kinds of permcell.Sabotage are refused at admission.
type SabotageSpec struct {
	// Kind is "panic" or "nan".
	Kind string `json:"kind"`
	// Step is the absolute time step to fire at.
	Step int `json:"step"`
	// Rank is the PE to fire on.
	Rank int `json:"rank"`
}

// script is the facade form of the spec: a fresh, unspent Sabotage.
func (sb *SabotageSpec) script() *permcell.Sabotage {
	return &permcell.Sabotage{Kind: sb.Kind, Step: sb.Step, Rank: sb.Rank}
}

// RunSpec is the JSON body of POST /runs: one simulation in the paper's
// coordinates plus its runtime policy. Zero-valued fields select the
// documented defaults, matching the permcell Option defaults, so a spec
// and the equivalent solo permcell.New call produce bit-identical traces.
type RunSpec struct {
	// Kind selects the engine: "parallel" (default), "static" or "serial".
	Kind string `json:"kind,omitempty"`

	// Parallel coordinates: square-pillar cross-section M and PE count P
	// (perfect square) over a grid of (M*sqrt(P))^3 cells.
	M int `json:"m,omitempty"`
	P int `json:"p,omitempty"`
	// Static/serial coordinate: the box is NC cells per dimension. Static
	// also uses P and Shape ("plane", "pillar" or "cube").
	NC    int    `json:"nc,omitempty"`
	Shape string `json:"shape,omitempty"`

	// Rho is the reduced density; Steps the total time steps to run.
	Rho   float64 `json:"rho"`
	Steps int     `json:"steps"`

	// Balancer is a spec string for permcell.BalancerByName: "permcell",
	// "sfc(h=0,moves=2)", "diffusive", ... Empty or "none" = static DDM.
	Balancer string `json:"balancer,omitempty"`

	Seed       uint64  `json:"seed,omitempty"`
	Dt         float64 `json:"dt,omitempty"`
	Wells      int     `json:"wells,omitempty"`
	WellK      float64 `json:"well_k,omitempty"`
	StatsEvery int     `json:"stats_every,omitempty"`

	// CheckpointEvery adds an automatic checkpoint cadence in simulation
	// steps (0 = checkpoints only at pause and under the supervisor's
	// anchor). Every run has its own checkpoint directory regardless, so
	// pause/resume always works.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// MaxRetries, when present, runs the simulation under the self-healing
	// supervisor with that rollback budget (0 = fail on the first failure).
	// Absent = unsupervised.
	MaxRetries *int `json:"max_retries,omitempty"`
	// BackoffMS is the supervisor's initial retry backoff in milliseconds
	// (0 = the supervisor default of 50ms).
	BackoffMS int `json:"backoff_ms,omitempty"`

	// Sabotage injects one scripted fault (chaos testing).
	Sabotage *SabotageSpec `json:"sabotage,omitempty"`
}

// kind returns the normalized engine kind.
func (s *RunSpec) kind() string {
	if s.Kind == "" {
		return KindParallel
	}
	return s.Kind
}

// Particles is the particle count N the run's engine will hold, by the
// formula of runspec.Sizes, which builds it (0 for coordinates no engine
// accepts). It is the admission-control memory proxy: per-run state is
// O(N), so the service caps N rather than guessing at bytes. A count
// beyond int, or not a number, reads math.MaxInt: no spec wraps past the
// cap.
func (s *RunSpec) Particles() int {
	l := s.side() * units.PaperCutoff
	return saturate(math.Round(s.Rho * l * l * l))
}

// cells is the run's cell count, side^3, read as Particles reads N. The
// grid's per-cell arrays are O(cells) whatever the density, so admission
// caps it as it caps N.
func (s *RunSpec) cells() int {
	side := s.side()
	return saturate(side * side * side)
}

// side is the box's cells per dimension (0 for coordinates no engine
// accepts), in floating point so that no coordinate overflows it; it is
// exact below 2^53, as runspec.Sizes computes it.
func (s *RunSpec) side() float64 {
	if s.kind() != KindParallel {
		return float64(s.NC)
	}
	if _, err := runspec.Side(s.M, s.P); err != nil {
		return 0
	}
	return float64(s.M) * math.Round(math.Sqrt(float64(s.P)))
}

// saturate converts a count computed in floating point to int, or to
// math.MaxInt when it does not fit or is not a number.
func saturate(x float64) int {
	if !(x < math.MaxInt) {
		return math.MaxInt
	}
	return int(x)
}

// Validate rejects specs that cannot construct an engine, before any queue
// slot or worker is committed to them. Deep engine validation still runs
// at construction; this pass catches the shapes a 400 should explain.
func (s *RunSpec) Validate() error {
	switch s.kind() {
	case KindParallel:
		if _, err := runspec.Side(s.M, s.P); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	case KindStatic:
		if s.NC < 1 {
			return fmt.Errorf("serve: nc must be >= 1, got %d", s.NC)
		}
		if s.P < 1 {
			return fmt.Errorf("serve: p must be >= 1, got %d", s.P)
		}
		if _, err := s.shape(); err != nil {
			return err
		}
	case KindSerial:
		if s.NC < 1 {
			return fmt.Errorf("serve: nc must be >= 1, got %d", s.NC)
		}
	default:
		return fmt.Errorf("serve: unknown engine kind %q", s.Kind)
	}
	if !(s.Rho > 0) { // NaN too
		return fmt.Errorf("serve: rho must be positive, got %g", s.Rho)
	}
	if s.Steps < 1 {
		return fmt.Errorf("serve: steps must be >= 1, got %d", s.Steps)
	}
	if err := runspec.Wells(s.Wells, s.WellK); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := runspec.TimeStep(s.Dt); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.Balancer != "" {
		if _, err := permcell.BalancerByName(s.Balancer); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if s.kind() != KindParallel {
			return fmt.Errorf("serve: balancer %q requires the parallel engine", s.Balancer)
		}
	}
	if s.MaxRetries != nil && *s.MaxRetries < 0 {
		return fmt.Errorf("serve: max_retries must be >= 0, got %d", *s.MaxRetries)
	}
	if sb := s.Sabotage; sb != nil && s.kind() != KindSerial {
		if err := sb.script().Validate(s.P, false); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

func (s *RunSpec) shape() (permcell.Shape, error) {
	switch s.Shape {
	case "", "pillar":
		return permcell.ShapeSquarePillar, nil
	case "plane":
		return permcell.ShapePlane, nil
	case "cube":
		return permcell.ShapeCube, nil
	default:
		return 0, fmt.Errorf("serve: unknown shape %q (want plane, pillar or cube)", s.Shape)
	}
}

// options derives the permcell Option set for this spec. ckptDir is the
// run's private checkpoint directory; sab is the run-owned sabotage script
// (shared across pause/resume restores so it stays one-shot); onStep
// streams the records. The derivation is deterministic: the same spec
// yields the same options every time, which is what makes a served run's
// trace bit-identical to a solo run of the same spec.
func (s *RunSpec) options(ckptDir string, sab *permcell.Sabotage, onStep func(permcell.StepStats), onEvent func(permcell.SupervisorEvent)) ([]permcell.Option, error) {
	opts := []permcell.Option{
		permcell.WithSeed(s.seedOrDefault()),
		permcell.WithDt(s.Dt),
		permcell.WithWells(s.Wells, s.WellK),
		permcell.WithStatsEvery(s.StatsEvery),
		permcell.WithMetrics(),
		permcell.WithOnStep(onStep),
		permcell.WithDiscardStats(),
		permcell.WithCheckpoint(s.CheckpointEvery, ckptDir),
	}
	if s.Balancer != "" {
		b, err := permcell.BalancerByName(s.Balancer)
		if err != nil {
			return nil, err
		}
		if b != nil {
			opts = append(opts, permcell.WithBalancer(b))
		}
	}
	if sab != nil {
		opts = append(opts, permcell.WithSabotage(sab))
	}
	if s.MaxRetries != nil {
		opts = append(opts, permcell.WithSupervisor(permcell.SupervisorPolicy{
			MaxRetries: *s.MaxRetries,
			Backoff:    time.Duration(s.BackoffMS) * time.Millisecond,
			OnEvent:    onEvent,
		}))
	}
	return opts, nil
}

func (s *RunSpec) seedOrDefault() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// build constructs a fresh engine for the spec.
func (s *RunSpec) build(opts []permcell.Option) (permcell.Engine, error) {
	switch s.kind() {
	case KindParallel:
		return permcell.New(s.M, s.P, s.Rho, opts...)
	case KindStatic:
		shape, err := s.shape()
		if err != nil {
			return nil, err
		}
		return permcell.NewStatic(shape, s.NC, s.P, s.Rho, opts...)
	case KindSerial:
		return permcell.NewSerial(s.NC, s.Rho, opts...)
	default:
		return nil, fmt.Errorf("serve: unknown engine kind %q", s.Kind)
	}
}
