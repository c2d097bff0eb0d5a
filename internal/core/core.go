// Package core is the parallel molecular dynamics engine of the paper:
// square-pillar domain decomposition (DDM) over a sqrt(P) x sqrt(P) torus of
// PEs, optionally with the permanent-cell dynamic load balancing method
// (DLB-DDM). Each PE runs as a goroutine over the message-passing substrate
// in internal/comm; every per-step exchange (loads, DLB decisions, cell
// transfers, particle migration, halo) involves only the PE's 8 torus
// neighbors, exactly as on the T3E. The same step loop also runs the static
// plane / pillar / cube decompositions of Fig. 2 (Config.Decomp): only the
// cell-ownership map behind the loop differs.
//
// Per time step each PE executes:
//
//  1. DLB (optional): run the balancer (internal/balance; the paper's is
//     the three-case protocol) on the neighbors' last-step force loads,
//     which arrived with their force returns in step 4, broadcast the
//     decisions, and transfer the moved columns' particles.
//  2. Velocity-Verlet half kick and drift.
//  3. Migration: particles that drifted into cells hosted elsewhere are
//     sent to their new host.
//  4. Halo: send every neighbor the positions of the hosted cells it
//     imports, stage the neighbors' replies, compute forces, and return
//     each neighbor the forces on its cells together with this PE's load.
//     Nobody asks: both sides derive the cell lists from the ownership map,
//     once per ownership epoch (plan.go).
//  5. Second half kick; velocity rescaling to Tref every RescaleEvery steps.
//
// The force-computation load that drives both the DLB decisions and the
// reported Fmax/Fave/Fmin series is the deterministic count of
// pair-distance evaluations (the quantity MPI_Wtime measured on the T3E);
// wall-clock timing is recorded alongside and never steers.
package core

import (
	"fmt"
	"math"
	"time"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/conc"
	"permcell/internal/decomp"
	"permcell/internal/dlb"
	"permcell/internal/metrics"
	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/supervise"
	"permcell/internal/trace"
)

// Config describes one parallel run.
type Config struct {
	// P is the PE count; must be a perfect square >= 4 (under Decomp, any
	// count the decomposition accepts).
	P int
	// Grid is the cell grid; Nx and Ny must equal m*sqrt(P) for integer m.
	Grid space.Grid
	// Decomp, when non-nil, fixes cell ownership to a static plane, pillar
	// or cube decomposition of the same P and Grid instead of the
	// permanent-cell column ledger: the run is the same step loop with no
	// balancer (Balancer must be nil), and checkpoint frames carry no
	// column sets because ownership never changes.
	Decomp *decomp.Decomposition
	// Pair is the interaction potential; cells must be at least as large as
	// its cut-off.
	Pair potential.Pair
	// Ext is an optional external field (nil for none).
	Ext potential.External
	// Dt is the time step.
	Dt float64
	// Tref and RescaleEvery configure the thermostat (RescaleEvery == 0
	// disables it).
	Tref         float64
	RescaleEvery int
	// Balancer is the pluggable load-balancing strategy, run every time
	// step as in the paper (nil = static DDM). All strategies execute their
	// moves through the same ledger/colTransfer machinery, so the 8-neighbor
	// exchange pattern and the transfer invariants (forces carried,
	// conservation, C' bound) hold for every implementation.
	Balancer balance.Balancer
	// OnStep, when non-nil, is invoked on rank 0 with each step's stats:
	// the one way records leave the engine, which keeps none.
	OnStep func(StepStats)
	// StatsEvery controls how often concentration stats are computed
	// (they cost one small allgather; default 1 = every step). Negative
	// values are rejected at validation; 0 selects the default.
	StatsEvery int
	// Metrics enables the per-PE phase timing layer (internal/metrics):
	// every step's wall time is attributed to the phase taxonomy and
	// reduced into StepStats.Phases. Off, the PEs carry a nil timer and
	// pay one pointer test per phase boundary.
	Metrics bool

	// Faults, when non-nil, runs the whole exchange under the comm
	// fault-injection plan (chaos testing): delivery is jittered and
	// reordered, never lost.
	Faults *comm.FaultPlan
	// Watchdog, when positive, runs under the comm deadlock watchdog: a
	// hang returns an error with a per-rank state dump after this much
	// progress-less time instead of blocking forever.
	Watchdog time.Duration
	// Verify enables per-step protocol invariant checks: per-PE ledger
	// invariants (permanent columns at home, hosts within the up-left
	// set, C' bound) plus the global checks — every column hosted exactly
	// once and the particle count conserved. A ledger run under Faults
	// turns it on by itself, so every fault-plan run is checked every step.
	Verify bool
	// Guard, when non-nil, runs the cheap runtime physics guards at the
	// stats cadence: finite positions/velocities, particle conservation and
	// an energy-drift ceiling. A violation surfaces as a
	// typed *supervise.GuardViolation — raised before the offending step's
	// stats are emitted, so neither the trace nor a checkpoint sees the
	// corrupt state.
	Guard *supervise.GuardConfig
	// Sabotage, when non-nil, injects one scripted fault (a PE panic or a
	// NaN) for chaos-testing the recovery path. The pointer is shared
	// across engine incarnations so a post-rollback replay does not
	// re-fire it.
	Sabotage *supervise.Sabotage

	// Restore, when non-nil, starts the run from a distributed snapshot
	// instead of distributing sys: each PE takes its frame's particles in
	// their recorded order (array order determines force summation order,
	// so this is what makes the resumed trajectory bit-identical), the
	// ledgers are rebuilt from the frames' hosted-column sets, and step
	// numbering continues from Restore.Step — keeping the thermostat, DLB
	// and stats cadences aligned with the uninterrupted run. The physics
	// Config fields must match the checkpointed run's exactly.
	Restore *checkpoint.EngineState
}

// StepStats is the per-step record the paper's figures are built from.
type StepStats struct {
	Step int

	// Force-computation load across PEs in pair evaluations (the
	// deterministic work metric): the paper's Fmax, Fave, Fmin.
	WorkMax, WorkAve, WorkMin float64
	// The same in measured wall seconds.
	WallMax, WallAve, WallMin float64
	// StepWallMax is the slowest PE's whole-step wall time (the paper's
	// Tt); StepWallAve is the PE average, the reference the phase
	// breakdown must sum to.
	StepWallMax, StepWallAve float64

	// Phases is the per-phase timing/traffic breakdown across PEs,
	// populated only under Config.Metrics (all-zero otherwise).
	Phases metrics.Breakdown

	// Moved is the number of columns transferred by the balancer this
	// step; MovedBytes is the particle payload those transfers carried
	// (the migration-traffic counters of the cross-balancer comparison).
	Moved      int
	MovedBytes int64

	// Balancer names the active balancing strategy ("none" for static
	// DDM), so traces and run headers carry the scheme identity.
	Balancer string

	// TotalEnergy and Temperature are global observables.
	TotalEnergy float64
	Temperature float64

	// Conc is the concentration census (C_0/C and n, Section 4).
	Conc conc.Stats

	// GhostCellsMax is the largest per-PE count of imported halo cells this
	// step: the communication surface the shape analysis of Section 2.2
	// predicts (internal/decomp.AnalyzeSurface).
	GhostCellsMax int

	// SentFrames and SentBytes are the cumulative transport traffic
	// counters at this step: messages/bytes that crossed the transport
	// boundary. On the in-process transport every message is a frame; on
	// TCP they count real wire frames summed over all worker processes.
	// Transport-dependent by nature, so they are excluded from
	// cross-transport trace identity.
	SentFrames int64
	SentBytes  int64
}

// Record is the one translation of a step's statistics into the record
// mdrun's JSONL stream and the run service both emit. m is the square-pillar
// cross-section (0 when unknown: the bound fields are then omitted).
func (st StepStats) Record(m int) metrics.StepRecord {
	rec := metrics.NewStepRecord(st.Step, st.Phases,
		st.StepWallMax, st.StepWallAve,
		st.WorkMax, st.WorkAve, st.WorkMin,
		st.Balancer, st.Moved, st.MovedBytes,
		st.Conc.C0OverC, st.Conc.NFactor, m)
	rec.TotalEnergy = st.TotalEnergy
	rec.Temperature = st.Temperature
	rec.SentFrames = st.SentFrames
	rec.SentBytes = st.SentBytes
	return rec
}

// Imbalance returns (Fmax-Fmin)/Fave on the work metric, the quantity whose
// growth marks the experimental DLB boundary.
func (s StepStats) Imbalance() float64 {
	if s.WorkAve == 0 {
		return 0
	}
	return (s.WorkMax - s.WorkMin) / s.WorkAve
}

// LoadRatio returns Fmax/Fave on the work metric (1 = perfect balance).
func (s StepStats) LoadRatio() float64 { return metrics.LoadRatio(s.WorkMax, s.WorkAve) }

// Efficiency returns Fave/Fmax on the work metric, the parallel efficiency
// the paper's f(m,n) bound protects.
func (s StepStats) Efficiency() float64 { return metrics.Efficiency(s.WorkMax, s.WorkAve) }

// BoundResidual returns f(m, n) - C_0/C for the given square-pillar size m,
// using this step's concentration census: the remaining slack under the
// paper's balancing bound (NaN outside the bound's domain).
func (s StepStats) BoundResidual(m int) float64 {
	return metrics.BoundResidual(m, s.Conc.NFactor, s.Conc.C0OverC)
}

// Result is the outcome of a run.
type Result struct {
	// Stats is the trace a driver collected through Config.OnStep.
	Stats []StepStats
	// Final is the end state gathered from all PEs, sorted by particle ID.
	Final *particle.Set
	// CommMsgs and CommBytes are whole-run message statistics.
	CommMsgs, CommBytes int64
	// Faults counts the injected communication faults (zero without a
	// fault plan).
	Faults comm.FaultStats
	// FaultEvents is the recorded fault log (only when the plan sets
	// Record).
	FaultEvents []trace.FaultEvent
	// M is the derived square-pillar cross-section size (0 under
	// Config.Decomp).
	M int
}

// BalancerName returns the active strategy's name, "none" for static DDM.
func (cfg *Config) BalancerName() string {
	if cfg.Balancer == nil {
		return "none"
	}
	return cfg.Balancer.Name()
}

// Layout derives the DLB layout (torus side s and block size m) from cfg.
func (cfg *Config) Layout() (dlb.Layout, error) {
	s := int(math.Round(math.Sqrt(float64(cfg.P))))
	if s < 2 || s*s != cfg.P {
		return dlb.Layout{}, fmt.Errorf("core: P=%d is not a perfect square >= 4", cfg.P)
	}
	if cfg.Grid.Nx != cfg.Grid.Ny {
		return dlb.Layout{}, fmt.Errorf("core: grid cross-section must be square, got %dx%d", cfg.Grid.Nx, cfg.Grid.Ny)
	}
	if cfg.Grid.Nx%s != 0 {
		return dlb.Layout{}, fmt.Errorf("core: grid side %d not divisible by sqrt(P)=%d", cfg.Grid.Nx, s)
	}
	return dlb.NewLayout(s, cfg.Grid.Nx/s)
}

func (cfg *Config) validate() error {
	if cfg.Pair == nil {
		return fmt.Errorf("core: nil pair potential")
	}
	if cfg.Dt <= 0 {
		return fmt.Errorf("core: time step must be positive")
	}
	if cfg.Grid.NumCells() == 0 {
		return fmt.Errorf("core: empty grid")
	}
	sx, sy, sz := cfg.Grid.CellSize()
	// A relative epsilon absorbs floating-point rounding in box construction;
	// a cell shorter than the cut-off by parts in 1e9 cannot miss a pair.
	rc := cfg.Pair.Cutoff() * (1 - 1e-9)
	if sx < rc || sy < rc || sz < rc {
		return fmt.Errorf("core: cell size (%g,%g,%g) below cut-off %g", sx, sy, sz, cfg.Pair.Cutoff())
	}
	// Cadence: zero means "default" (normalized by the constructors), but a
	// negative value from a caller that bypasses the facade defaults would
	// reach modulo operations, so it is rejected here rather than
	// panicking mid-run.
	if cfg.StatsEvery < 0 {
		return fmt.Errorf("core: StatsEvery must be >= 0, got %d", cfg.StatsEvery)
	}
	if d := cfg.Decomp; d != nil {
		if cfg.Balancer != nil {
			return fmt.Errorf("core: a static decomposition takes no balancer (got %q)", cfg.Balancer.Name())
		}
		if cfg.Verify {
			return fmt.Errorf("core: Verify checks the column ledger, which a static decomposition does not have")
		}
		if d.P != cfg.P || d.Grid != cfg.Grid {
			return fmt.Errorf("core: decomposition is over P=%d and a %dx%dx%d grid, config over P=%d and %dx%dx%d",
				d.P, d.Grid.Nx, d.Grid.Ny, d.Grid.Nz, cfg.P, cfg.Grid.Nx, cfg.Grid.Ny, cfg.Grid.Nz)
		}
	} else {
		layout, err := cfg.Layout()
		if err != nil {
			return err
		}
		if cfg.Balancer != nil {
			if err := cfg.Balancer.Validate(layout); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	if cfg.Restore != nil {
		if err := cfg.Restore.Validate(cfg.P); err != nil {
			return err
		}
	}
	return nil
}

// restoreHosts merges the frames' hosted-column sets into one global
// column→host map and checks it is a partition: every column of the layout
// hosted by exactly one PE. Returns nil when cfg carries no restore state.
func restoreHosts(layout dlb.Layout, st *checkpoint.EngineState) (map[int]int, error) {
	if st == nil {
		return nil, nil
	}
	hosts := make(map[int]int, layout.NumColumns())
	for r := range st.Frames {
		for _, col := range st.Frames[r].Cols {
			if prev, dup := hosts[col]; dup {
				return nil, fmt.Errorf("core: restore: column %d hosted by both rank %d and rank %d", col, prev, r)
			}
			hosts[col] = r
		}
	}
	if len(hosts) != layout.NumColumns() {
		return nil, fmt.Errorf("core: restore: %d of %d columns hosted", len(hosts), layout.NumColumns())
	}
	// Every rank's ledger must accept the placement (permanent columns at
	// home, movable columns within the owner's up-left set); rejecting a
	// corrupt or foreign snapshot here beats a mid-run protocol panic.
	for r := range st.Frames {
		if _, err := dlb.RestoreLedger(layout, r, hosts); err != nil {
			return nil, err
		}
	}
	return hosts, nil
}
