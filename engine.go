package permcell

import (
	"context"
	"fmt"
	"slices"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/conc"
	"permcell/internal/core"
	"permcell/internal/decomp"
	"permcell/internal/distrib"
	"permcell/internal/mdserial"
	"permcell/internal/particle"
	"permcell/internal/runspec"
)

// Engine is a stepwise MD simulation: the DLB/DDM parallel engine (New),
// the static-decomposition engine (NewStatic) and the serial reference
// engine (NewSerial) all present this shape, so drivers can stream,
// checkpoint or stop any of them the same way.
//
// Step advances by n time steps and blocks until they complete. Stats
// returns a copy of the per-step records collected so far (empty under
// WithDiscardStats); the copy is the caller's to keep or mutate — it never
// aliases engine state, so a driver (or a server streaming a multiplexed
// run) cannot corrupt the accumulating trace. Result ends the run, releases
// any worker goroutines and returns the completed outcome; it must be
// called exactly once even when abandoning a run early, and is the only
// teardown an Engine needs. The Result's Stats slice is handed over to the
// caller: the engine appends nothing after Result. Engines are not safe
// for concurrent use.
type Engine interface {
	Step(n int) error
	Stats() []StepStats
	Result() (*Result, error)
}

// Shape selects a static domain decomposition for NewStatic.
type Shape = decomp.Shape

// Static decomposition shapes (Fig. 2 of the paper).
const (
	ShapePlane        = decomp.Plane
	ShapeSquarePillar = decomp.SquarePillar
	ShapeCube         = decomp.Cube
)

// New starts the parallel engine in paper coordinates: P PEs (perfect
// square) over a grid of (m*sqrt(P))^3 cells of side r_c = 2.5 sigma, at
// reduced density rho (N = round(rho * volume)), with the paper's LJ fluid
// and thermostat. WithBalancer selects the load balancer (static DDM
// without one). The PE goroutines idle awaiting the first Step.
func New(m, p int, rho float64, opts ...Option) (Engine, error) {
	o := buildOptions(opts)
	meta := o.identity(checkpoint.KindDLB)
	meta.M, meta.P, meta.Rho = m, p, rho
	meta.Balancer = balance.Encode(o.balancer)
	return launch(meta, nil, o)
}

// identity writes down the physics options as the run identity of a fresh
// engine of the given kind; the constructor adds its coordinates. From here
// on the Meta is the spec: start reads physics from it alone, every
// checkpoint carries it, and Restore hands the loaded one straight back.
// The time step is recorded resolved, so a file keeps pinning the step it
// ran at even if the default ever moves.
func (o Options) identity(kind string) checkpoint.Meta {
	dt := o.dt
	if dt == 0 {
		dt = runspec.DefaultDt
	}
	return checkpoint.Meta{
		Kind: kind, Wells: o.wells, WellK: o.wellK,
		Seed: o.seed, Dt: dt, Shards: o.shards, StatsEvery: o.statsEvery,
	}
}

// launch is the one way an engine comes up, fresh (st == nil) or resumed
// from a snapshot: validate the transport and the sabotage script against
// the identity — engine kind and rank count are only known here for a
// Restore — then start it, under the supervisor when one is configured.
func launch(meta checkpoint.Meta, st *checkpoint.EngineState, o Options) (Engine, error) {
	if err := checkTransport(meta.Kind, o); err != nil {
		return nil, err
	}
	if s := o.sabotage; s != nil && meta.Kind != checkpoint.KindSerial { // serial engines ignore it
		if err := s.Validate(meta.P, o.transport.Kind == TransportTCP); err != nil {
			return nil, fmt.Errorf("permcell: %w", err)
		}
	}
	if o.supervisor != nil {
		return supervised(meta, st, o)
	}
	return start(meta, st, o)
}

// checkTransport validates the WithTransport selection against the engine
// kind at construction time, so an unsupported combination fails loudly
// instead of silently running in-process.
func checkTransport(kind string, o Options) error {
	switch o.transport.Kind {
	case "", TransportChan:
		return nil
	case TransportTCP:
		if kind != checkpoint.KindDLB {
			return fmt.Errorf("permcell: the tcp transport supports only the parallel engine (New)")
		}
		return nil
	default:
		return fmt.Errorf("permcell: unknown transport kind %q (want %q or %q)",
			o.transport.Kind, TransportChan, TransportTCP)
	}
}

// start builds the engine for the run identity in meta (the supervisor
// rebuilds engines through it across rollbacks): fresh when st is nil, else
// resumed from the snapshot. Physics comes from meta alone, through the one
// builder in internal/runspec; o contributes only runtime policy — hooks,
// metrics, fault plan, watchdog, guards, sabotage, transport and the
// checkpoint cadence.
//
// On the tcp transport an in-process coordinator deals rank blocks to
// TCP-connected worker processes (or goroutine-hosted workers), each
// building its block from the same Meta; a resume there may run at a
// different worker count than the one that wrote the checkpoint (elastic
// rescaling: the logical rank count P is fixed by the run identity, only
// the hosting changes), or move between transports, with a bit-identical
// continuation.
func start(meta checkpoint.Meta, st *checkpoint.EngineState, o Options) (Engine, error) {
	ckpt := ckptWriter{every: o.ckptEvery, dir: o.ckptDir, meta: meta}
	e := &engine{ckpt: ckpt, onStep: o.onStep, discard: o.discard}
	var err error
	switch {
	case meta.Kind == checkpoint.KindSerial:
		cfg, set, berr := runspec.Serial(&meta, st)
		if berr != nil {
			return nil, fmt.Errorf("permcell: %w", berr)
		}
		cfg.Metrics = o.metrics
		var ser *mdserial.Engine
		ser, err = mdserial.New(cfg, set)
		e.eng = &serialCore{eng: ser, onStep: e.record, statsEvery: max(meta.StatsEvery, 1)}
	case o.transport.Kind == TransportTCP: // launch admitted KindDLB only
		e.eng, err = distrib.Start(distrib.WireSpec{
			Meta: meta, Metrics: o.metrics,
			Watchdog: o.watchdog, Faults: o.faults, Guard: o.guard,
			Sabotage: o.sabotage, Restore: st,
		}, distrib.Config{
			Procs: o.transport.Procs, Worker: o.transport.Worker, Addr: o.transport.Addr,
			OnStep:          e.record,
			HeartbeatEvery:  o.transport.HeartbeatEvery,
			HeartbeatMisses: o.transport.HeartbeatMisses,
		})
	default:
		cfg, sys, berr := runspec.Parallel(&meta, st)
		if berr != nil {
			return nil, fmt.Errorf("permcell: %w", berr)
		}
		cfg.OnStep = e.record
		cfg.Metrics = o.metrics
		cfg.Faults = o.faults
		cfg.Watchdog = o.watchdog
		cfg.Guard = o.guard
		cfg.Sabotage = o.sabotage
		e.eng, err = core.NewEngine(cfg, sys)
	}
	if err != nil {
		return nil, fmt.Errorf("permcell: %w", err)
	}
	return e, nil
}

// Run executes steps time steps of the parallel engine and returns the
// outcome. Cancelling ctx stops the run at the next step boundary and
// returns the partial result together with ctx.Err().
func Run(ctx context.Context, m, p int, rho float64, steps int, opts ...Option) (*Result, error) {
	eng, err := New(m, p, rho, opts...)
	if err != nil {
		return nil, err
	}
	return RunEngine(ctx, eng, steps)
}

// RunEngine drives any Engine for steps time steps, checking ctx between
// steps. On cancellation it finalizes the engine and returns the partial
// result together with ctx.Err(); otherwise the completed result. On a Step
// error it also finalizes the engine — so the worker goroutines are
// released (or at least given their best-effort teardown) rather than
// leaked — and returns whatever partial result the teardown salvaged
// together with the Step error.
func RunEngine(ctx context.Context, eng Engine, steps int) (*Result, error) {
	for i := 0; i < steps; i++ {
		if ctx.Err() != nil {
			res, rerr := eng.Result()
			if rerr != nil {
				return res, rerr
			}
			return res, ctx.Err()
		}
		if err := eng.Step(1); err != nil {
			res, _ := eng.Result()
			return res, err
		}
	}
	return eng.Result()
}

// guardStep is the facade-wide Step argument contract shared by every
// engine, so misuse reports identically regardless of backend.
func guardStep(finished bool, n int) error {
	if finished {
		return fmt.Errorf("permcell: Step after Result")
	}
	if n < 0 {
		return fmt.Errorf("permcell: negative step count %d", n)
	}
	return nil
}

// coreEngine is the stepwise backend surface shared by the in-process
// core.Engine, the multi-process distrib.Engine and the serial reference
// engine (serialCore); engine adapts any of them to the facade interface
// without knowing which transport hosts the ranks, which ownership map
// they step over, or whether there are ranks at all.
type coreEngine interface {
	Step(n int) error
	AbsStep() int
	Snapshot() (*checkpoint.EngineState, error)
	Finish() (*Result, error)
}

// engine adapts a backend to the facade interface: the Step contract, the
// checkpoint cadence and the trace are the same for every kind. Backends
// emit each record through record and keep none.
type engine struct {
	eng      coreEngine
	ckpt     ckptWriter
	stats    []StepStats
	onStep   func(StepStats)
	discard  bool
	finished bool
}

// record is every backend's OnStep sink: it keeps the record unless
// WithDiscardStats is set, then streams it to the WithOnStep hook.
func (e *engine) record(st StepStats) {
	if !e.discard {
		e.stats = append(e.stats, st)
	}
	if e.onStep != nil {
		e.onStep(st)
	}
}

func (e *engine) Step(n int) error {
	if err := guardStep(e.finished, n); err != nil {
		return err
	}
	return e.ckpt.stepWithCheckpoints(e.eng, n)
}

// Stats returns a copy, so a caller cannot alias (and mutate) the trace
// record keeps appending to.
func (e *engine) Stats() []StepStats { return slices.Clone(e.stats) }

// TransportProcs reports the worker-process count of a tcp-backed engine
// (0 in-process). The supervisor's rescale policy reads it to pick the
// survivor count after a worker failure.
func (e *engine) TransportProcs() int {
	if p, ok := e.eng.(interface{ Procs() int }); ok {
		return p.Procs()
	}
	return 0
}

// Result hands the trace over with the backend's outcome.
func (e *engine) Result() (*Result, error) {
	e.finished = true
	res, err := e.eng.Finish() // idempotent: memoizes its own outcome
	if res != nil {
		res.Stats = e.stats
	}
	return res, err
}

// Checkpoint writes an immediate checkpoint at the current step boundary.
func (e *engine) Checkpoint() error {
	if e.finished {
		return fmt.Errorf("permcell: Checkpoint after Result")
	}
	return e.ckpt.write(e.eng)
}

// NewStatic starts the static-decomposition engine: the box is nc cells of
// side r_c per dimension, partitioned over p PEs in the given shape with
// no load balancing. It is the parallel engine's step loop over a fixed
// ownership map, so every StepStats field is filled as for New; Moved stays
// zero and Balancer reads "none".
func NewStatic(shape Shape, nc, p int, rho float64, opts ...Option) (Engine, error) {
	o := buildOptions(opts)
	meta := o.identity(checkpoint.KindStatic)
	meta.Shape, meta.NC, meta.P, meta.Rho = int(shape), nc, p, rho
	return launch(meta, nil, o)
}

// NewSerial starts the serial reference engine on a box of nc cells of
// side r_c per dimension. It runs the identical numerical method (and the
// same flat force kernel) with no communication, but as a pure NVE system
// with the energy-shifted LJ: total energy is conserved, which is the
// serial engine's role as a numerical oracle. (The parallel engines use
// the paper's thermostatted truncated LJ.) Fault-plan and watchdog options
// are ignored.
func NewSerial(nc int, rho float64, opts ...Option) (Engine, error) {
	o := buildOptions(opts)
	meta := o.identity(checkpoint.KindSerial)
	meta.NC, meta.Rho = nc, rho
	return launch(meta, nil, o)
}

// serialCore gives mdserial.Engine the coreEngine surface, synthesizing
// the one-PE census the parallel engines reduce across their ranks.
type serialCore struct {
	eng        *mdserial.Engine
	onStep     func(StepStats)
	statsEvery int
	res        *Result
}

func (e *serialCore) Step(n int) error {
	for i := 0; i < n; i++ {
		e.eng.Step()
		step := e.eng.StepCount()
		// Drain the phase accumulator every step so each emitted record
		// describes only its own step, matching the parallel engines.
		sample := e.eng.TakePhaseSample()
		if step%e.statsEvery != 0 {
			continue
		}
		w := float64(e.eng.PairCount())
		// One walk over the velocities feeds both observables.
		set := e.eng.Set()
		ke := set.KineticEnergy()
		st := StepStats{
			Step:    step,
			WorkMax: w, WorkAve: w, WorkMin: w,
			StepWallMax: e.eng.StepWall(), StepWallAve: e.eng.StepWall(),
			TotalEnergy: ke + e.eng.PotentialEnergy(), // = e.eng.TotalEnergy()
			Temperature: particle.TemperatureOf(ke, set.Len()),
			Conc:        conc.Compute([]conc.PE{{Cells: e.eng.Grid().NumCells(), Empty: e.eng.EmptyCells()}}),
		}
		st.Phases.Fold(sample)
		st.Phases.Finalize(1)
		e.onStep(st)
	}
	return nil
}

func (e *serialCore) AbsStep() int { return e.eng.StepCount() }

// Snapshot returns a frame that aliases the live arrays instead of copying
// them: the facade writes the frame on the driver goroutine before the next
// Step, so nothing moves the set while the bytes are written. (pe.snapshot
// must copy: its frames outlive the call — the PEs step on while the driver
// still holds, ships or writes them.)
func (e *serialCore) Snapshot() (*checkpoint.EngineState, error) {
	set := e.eng.Set()
	return &checkpoint.EngineState{
		Step:   e.eng.StepCount(),
		Frames: []checkpoint.Frame{{ID: set.ID, Pos: set.Pos, Vel: set.Vel}},
	}, nil
}

func (e *serialCore) Finish() (*Result, error) {
	if e.res == nil {
		e.eng.Close()
		final := e.eng.Set().Clone()
		final.SortByID()
		e.res = &Result{Final: final}
	}
	return e.res, nil
}
