// Package mdserial is the serial reference molecular dynamics engine. It
// implements exactly the numerical method of the paper's Section 3.2 —
// cell lists rebuilt every step, each pair within a cell's 26-neighborhood
// evaluated once via the kernel's half stencil with the force applied to
// both particles (Newton's third law), the velocity form of the Verlet
// algorithm, and a velocity-rescaling thermostat applied every
// RescaleEvery steps — without cross-PE parallelism (intra-step force
// sharding is available through Config.Shards). The parallel engine in
// internal/core is validated against this one.
package mdserial

import (
	"fmt"
	"runtime"
	"time"

	"permcell/internal/integrator"
	"permcell/internal/kernel"
	"permcell/internal/metrics"
	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
)

// Config describes one simulation.
type Config struct {
	Box  space.Box
	Pair potential.Pair
	// Ext is an optional external field; nil means none.
	Ext potential.External
	// Dt is the integration time step.
	Dt float64
	// Tref is the thermostat target reduced temperature; used only when
	// RescaleEvery > 0.
	Tref float64
	// RescaleEvery applies velocity rescaling every this many steps
	// (the paper uses 50). Zero disables the thermostat (pure NVE).
	RescaleEvery int
	// Grid optionally fixes the cell grid. When zero-valued, the finest
	// grid with cell side >= the pair cut-off is used.
	Grid space.Grid
	// Shards is the force-kernel shard count (<= 1 = serial kernel).
	// Results are bit-deterministic per shard count. Engines must be
	// Closed to stop the kernel's worker pool: the shard owners and the
	// pair-search helpers (one per core beyond the first, whatever Shards).
	Shards int
	// Metrics enables the per-step phase timing layer (internal/metrics).
	// Off, the engine carries a nil timer and the hot path pays one
	// pointer test per phase boundary. The serial engine has no comm
	// phases, so only integrate/migrate (re-binning)/force accumulate.
	Metrics bool
	// StartStep sets the initial step counter, used when restoring from a
	// checkpoint. The thermostat cadence is step%RescaleEvery over the
	// absolute counter, so a restore that reset it to zero would rescale at
	// different absolute steps than the uninterrupted run and diverge.
	StartStep int
}

// Engine advances a particle set through time.
type Engine struct {
	cfg  Config
	grid space.Grid
	set  *particle.Set

	cl   *kernel.CellLists // flat cell lists + force kernel scratch
	step int

	tm       *metrics.Timer // nil unless Config.Metrics
	stepWall float64        // wall seconds of the last Step

	potE      float64
	virial    float64
	pairCount int64
}

// New returns an engine owning the given particle set. The set is used in
// place (not copied).
func New(cfg Config, set *particle.Set) (*Engine, error) {
	if cfg.Pair == nil {
		return nil, fmt.Errorf("mdserial: nil pair potential")
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("mdserial: time step must be positive, got %g", cfg.Dt)
	}
	if cfg.StartStep < 0 {
		return nil, fmt.Errorf("mdserial: start step must be >= 0, got %d", cfg.StartStep)
	}
	if cfg.Ext == nil {
		cfg.Ext = potential.NoField{}
	}
	g := cfg.Grid
	if g.NumCells() == 0 {
		var err error
		g, err = space.NewGrid(cfg.Box, cfg.Pair.Cutoff())
		if err != nil {
			return nil, err
		}
	}
	e := &Engine{cfg: cfg, grid: g, set: set, step: cfg.StartStep}
	if cfg.Metrics {
		e.tm = &metrics.Timer{}
	}
	e.cl = kernel.NewCellLists(g, cfg.Shards)
	// One rank: every core may search for pairs. The count is no part of
	// the run's identity (the kernel's results do not depend on it).
	e.cl.SetSearchWorkers(runtime.GOMAXPROCS(0))
	// Serial engine: every cell is hosted, no ghosts.
	all := make([]int, g.NumCells())
	for c := range all {
		all[c] = c
	}
	e.cl.SetHosted(all)
	e.cl.SealGhosts()
	e.rebuildCells()
	e.computeForces()
	return e, nil
}

// Close stops the force-kernel worker pool: the shard owners (Shards > 1)
// and the pair-search helpers the engine runs when GOMAXPROCS > 1. The
// engine must not be stepped after Close.
func (e *Engine) Close() { e.cl.Close() }

// Set returns the engine's particle set.
func (e *Engine) Set() *particle.Set { return e.set }

// Grid returns the engine's cell grid.
func (e *Engine) Grid() space.Grid { return e.grid }

// StepCount returns the number of completed steps.
func (e *Engine) StepCount() int { return e.step }

// PotentialEnergy returns the potential energy at the last force evaluation.
func (e *Engine) PotentialEnergy() float64 { return e.potE }

// TotalEnergy returns kinetic + potential energy.
func (e *Engine) TotalEnergy() float64 { return e.set.KineticEnergy() + e.potE }

// PairCount returns the number of pair distance evaluations performed in
// the last force computation — the deterministic work metric standing in
// for the paper's force-computation wall time.
func (e *Engine) PairCount() int64 { return e.pairCount }

// EmptyCells returns the number of cells holding no particle — the only
// thing the per-step census needs from the occupancy, without the slice.
func (e *Engine) EmptyCells() int {
	empty := 0
	for c := range e.grid.NumCells() {
		if e.cl.SlotLen(c) == 0 {
			empty++
		}
	}
	return empty
}

// rebuildCells recomputes the cell membership of every particle, as the
// paper does every time step.
func (e *Engine) rebuildCells() {
	e.cl.Bin(e.set.Pos) // cannot fail: every cell is hosted
}

// computeForces evaluates the truncated pair potential over every pair of
// particles in the same or neighboring cells (via the shared flat-cell-list
// kernel), plus the external field.
func (e *Engine) computeForces() {
	s := e.set
	s.ZeroForces()
	e.potE, e.virial, e.pairCount = e.cl.Compute(e.cfg.Pair, s)
	e.potE += kernel.ExternalForces(e.cfg.Ext, s)
}

// Step advances the simulation one velocity-Verlet time step.
func (e *Engine) Step() {
	t0 := time.Now()
	dt := e.cfg.Dt
	ti := e.tm.Start()
	integrator.HalfKick(e.set, dt)
	integrator.Drift(e.set, dt, e.cfg.Box)
	e.tm.Stop(metrics.PhaseIntegrate, ti)
	tr := e.tm.Start()
	e.rebuildCells()
	e.tm.Stop(metrics.PhaseMigrate, tr)
	tf := e.tm.Start()
	e.computeForces()
	e.tm.Stop(metrics.PhaseForce, tf)
	ti = e.tm.Start()
	integrator.HalfKick(e.set, dt)
	e.step++
	if e.cfg.RescaleEvery > 0 && e.step%e.cfg.RescaleEvery == 0 {
		integrator.RescaleToTemperature(e.set, e.cfg.Tref)
	}
	e.tm.Stop(metrics.PhaseIntegrate, ti)
	e.stepWall = time.Since(t0).Seconds()
}

// StepWall returns the wall-clock seconds of the most recent Step.
func (e *Engine) StepWall() float64 { return e.stepWall }

// TakePhaseSample returns the phase sample accumulated since the previous
// call and resets the accumulator. All-zero unless Config.Metrics.
func (e *Engine) TakePhaseSample() metrics.Sample { return e.tm.TakeSample() }

// Run advances the simulation n steps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}
