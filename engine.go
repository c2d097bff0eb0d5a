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
	"permcell/internal/supervise"
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
		Seed: o.seed, Dt: dt, StatsEvery: o.statsEvery,
	}
}

// launch is the one way an engine comes up, fresh (st == nil) or resumed
// from a snapshot: validate the transport, the sabotage script and the
// fault plan against the identity — engine kind and rank count are only
// known here for a Restore — then put the facade adapter over its backend:
// the bare engine, or under WithSupervisor the supervisor, which builds
// bare engines of its own across rollbacks. A supervised engine's anchor checkpoint is written
// here, so a rollback target exists before the first cadence boundary and
// a failure on step 1 is already recoverable.
func launch(meta checkpoint.Meta, st *checkpoint.EngineState, o Options) (Engine, error) {
	if o.shards != 0 && o.shards != 1 {
		return nil, fmt.Errorf("permcell: WithShards(%d): intra-rank shards were retired; only 0 and 1 are accepted", o.shards)
	}
	if err := checkTransport(meta.Kind, o); err != nil {
		return nil, err
	}
	if s := o.sabotage; s != nil && meta.Kind != checkpoint.KindSerial { // serial engines ignore it
		if err := s.Validate(meta.P, o.transport.Kind == TransportTCP); err != nil {
			return nil, fmt.Errorf("permcell: %w", err)
		}
	}
	if f := o.faults; f != nil && meta.Kind != checkpoint.KindSerial { // serial engines ignore it
		if err := f.Validate(meta.P); err != nil {
			return nil, fmt.Errorf("permcell: %w", err)
		}
	}
	e := &engine{
		ckpt:   ckptWriter{every: o.ckptEvery, dir: o.ckptDir, meta: meta},
		onStep: o.onStep, discard: o.discard,
	}
	var err error
	if o.supervisor == nil {
		e.eng, err = backend(meta, st, o, nil, o.transport.Procs, e.record)
	} else {
		e.eng, err = supervised(meta, st, o, e)
	}
	if err != nil {
		return nil, err
	}
	if o.supervisor != nil {
		if err := e.ckpt.write(e.eng); err != nil {
			abandon(e.eng)
			return nil, fmt.Errorf("permcell: writing anchor checkpoint: %w", err)
		}
	}
	return e, nil
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

// backend builds the bare engine for the run identity in meta (the
// supervisor builds each incarnation through it): fresh when st is nil,
// else resumed from the snapshot, emitting every step record through
// onStep. Physics comes from meta alone, through the one builder in
// internal/runspec; o contributes only runtime policy — metrics, fault
// plan, watchdog, sabotage and transport. guard arms the physics guards
// (nil unsupervised) and procs is the tcp worker-process count, which the
// supervisor's rescale policy lowers below the configured one.
//
// On the tcp transport an in-process coordinator deals rank blocks to
// TCP-connected worker processes (or goroutine-hosted workers), each
// building its block from the same Meta; a resume there may run at a
// different worker count than the one that wrote the checkpoint (elastic
// rescaling: the logical rank count P is fixed by the run identity, only
// the hosting changes), or move between transports, with a bit-identical
// continuation.
func backend(meta checkpoint.Meta, st *checkpoint.EngineState, o Options,
	guard *supervise.GuardConfig, procs int, onStep func(StepStats)) (coreEngine, error) {
	var eng coreEngine
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
		eng = &serialCore{eng: ser, onStep: onStep, statsEvery: max(meta.StatsEvery, 1)}
	case o.transport.Kind == TransportTCP: // launch admitted KindDLB only
		eng, err = distrib.Start(distrib.WireSpec{
			Meta: meta, Metrics: o.metrics,
			Watchdog: o.watchdog, Faults: o.faults, Guard: guard,
			Sabotage: o.sabotage, Restore: st,
		}, distrib.Config{
			Procs: procs, Worker: o.transport.Worker, Addr: o.transport.Addr,
			OnStep:          onStep,
			HeartbeatEvery:  o.transport.HeartbeatEvery,
			HeartbeatMisses: o.transport.HeartbeatMisses,
		})
	default:
		cfg, sys, berr := runspec.Parallel(&meta, st)
		if berr != nil {
			return nil, fmt.Errorf("permcell: %w", berr)
		}
		cfg.OnStep = onStep
		cfg.Metrics = o.metrics
		cfg.Faults = o.faults
		cfg.Watchdog = o.watchdog
		cfg.Guard = guard
		cfg.Sabotage = o.sabotage
		eng, err = core.NewEngine(cfg, sys)
	}
	if err != nil {
		return nil, fmt.Errorf("permcell: %w", err)
	}
	return eng, nil
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

// coreEngine is the stepwise backend surface shared by the in-process
// core.Engine, the multi-process distrib.Engine, the serial reference
// engine (serialCore) and the supervisor over any of those; engine adapts
// each to the facade interface without knowing which transport hosts the
// ranks, which ownership map they step over, whether there are ranks at
// all, or whether a failure is healed beneath it. Procs is the count of
// worker processes hosting the ranks (0 in-process), which the
// supervisor's rescale policy shrinks.
type coreEngine interface {
	Step(n int) error
	AbsStep() int
	Snapshot() (*checkpoint.EngineState, error)
	Finish() (*Result, error)
	Procs() int
}

// engine adapts a backend to the facade interface: the Step contract, the
// checkpoint cadence and the trace are the same for every kind, supervised
// or not. Backends emit each record through record (the supervisor through
// keep) and keep none.
type engine struct {
	eng      coreEngine
	ckpt     ckptWriter
	stats    []StepStats
	onStep   func(StepStats)
	discard  bool
	finished bool
}

// record is every unsupervised backend's OnStep sink: it keeps the record,
// then streams it to the WithOnStep hook. (The supervisor's admit does the
// same in two halves, keeping under its mutex and streaming outside it.)
func (e *engine) record(st StepStats) {
	e.keep(st)
	if e.onStep != nil {
		e.onStep(st)
	}
}

// keep appends st to the trace unless WithDiscardStats is set.
func (e *engine) keep(st StepStats) {
	if !e.discard {
		e.stats = append(e.stats, st)
	}
}

// Step is the facade-wide Step contract, the same for every backend.
func (e *engine) Step(n int) error {
	if e.finished {
		return fmt.Errorf("permcell: Step after Result")
	}
	if n < 0 {
		return fmt.Errorf("permcell: negative step count %d", n)
	}
	return e.ckpt.stepWithCheckpoints(e.eng, n)
}

// Stats returns a copy, so a caller cannot alias (and mutate) the trace
// record keeps appending to.
func (e *engine) Stats() []StepStats { return slices.Clone(e.stats) }

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

func (e *serialCore) Procs() int { return 0 }

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
