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
	"time"

	"permcell"
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
// coordinates plus its runtime policy. The identity fields are a flat
// spelling of permcell.Spec (spec copies them); permcell.Build resolves
// their zero values to the facade defaults, so a spec and the equivalent
// solo permcell.New call produce bit-identical traces.
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

// kinds and shapes name the facade's engine kinds and static shapes in the
// service's JSON spelling.
var (
	kinds = map[string]string{
		"": permcell.KindDLB, KindParallel: permcell.KindDLB,
		KindStatic: permcell.KindStatic, KindSerial: permcell.KindSerial,
	}
	shapes = map[string]permcell.Shape{
		"": permcell.ShapeSquarePillar, "pillar": permcell.ShapeSquarePillar,
		"plane": permcell.ShapePlane, "cube": permcell.ShapeCube,
	}
)

// spec is the run identity the RunSpec names, field for field: the one copy
// admission validates and sizes and the worker builds. A kind name outside
// the service's spelling stays named in the Spec, so Validate refuses it by
// that name; an unknown shape becomes one decomp.Check refuses.
func (s *RunSpec) spec() permcell.Spec {
	kind, ok := kinds[s.Kind]
	if !ok {
		kind = "serve:" + s.Kind
	}
	sp := permcell.Spec{
		Kind: kind, M: s.M, P: s.P, NC: s.NC, Rho: s.Rho,
		Balancer: s.Balancer, Seed: s.Seed, Dt: s.Dt,
		Wells: s.Wells, WellK: s.WellK, StatsEvery: s.StatsEvery,
	}
	if kind == permcell.KindStatic {
		if sp.Shape, ok = shapes[s.Shape]; !ok {
			sp.Shape = -1 // no shape: decomp.Check refuses it
		}
	}
	return sp
}

// Validate rejects specs that cannot construct an engine, before any queue
// slot or worker is committed to them: the run identity by its own
// Validate, then what only the service adds — a step count, a retry budget
// and an in-process sabotage script.
func (s *RunSpec) Validate() error {
	sp := s.spec()
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.Steps < 1 {
		return fmt.Errorf("serve: steps must be >= 1, got %d", s.Steps)
	}
	if s.MaxRetries != nil && *s.MaxRetries < 0 {
		return fmt.Errorf("serve: max_retries must be >= 0, got %d", *s.MaxRetries)
	}
	if sb := s.Sabotage; sb != nil && sp.Kind != permcell.KindSerial {
		if err := sb.script().Validate(s.P, false); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	return nil
}

// options derives the runtime Option set for this spec; the identity
// travels in spec(). ckptDir is the run's private checkpoint directory; sab
// is the run-owned sabotage script (shared across pause/resume restores so
// it stays one-shot); onStep streams the records. The derivation is
// deterministic: the same spec yields the same options every time, which is
// what makes a served run's trace bit-identical to a solo run of the same
// spec.
func (s *RunSpec) options(ckptDir string, sab *permcell.Sabotage, onStep func(permcell.StepStats)) []permcell.Option {
	opts := []permcell.Option{
		permcell.WithMetrics(),
		permcell.WithOnStep(onStep),
		permcell.WithDiscardStats(),
		permcell.WithCheckpoint(s.CheckpointEvery, ckptDir),
	}
	if sab != nil {
		opts = append(opts, permcell.WithSabotage(sab))
	}
	if s.MaxRetries != nil {
		opts = append(opts, permcell.WithSupervisor(permcell.SupervisorPolicy{
			MaxRetries: *s.MaxRetries,
			Backoff:    time.Duration(s.BackoffMS) * time.Millisecond,
		}))
	}
	return opts
}
