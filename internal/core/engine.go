package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/dlb"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/supervise"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// Engine drives one block of PE ranks through the step loop: the rank
// goroutines are spawned once and then advanced in caller-controlled
// batches over per-rank command channels, so a driver can stream
// statistics, checkpoint, or stop early. NewEngine hosts every rank
// in-process; NewPartial hosts one worker process's share of a
// multi-process run, with messages to the other blocks flowing through a
// comm.Remote and messages from them fed in with World().Inject. Every rank
// of every block receives the same command sequence, so the collectives
// inside a batch stay aligned and a split run reproduces the all-ranks run
// bit for bit.
//
// An Engine is not safe for concurrent use. Finish must be called to
// release the PE goroutines, even when abandoning the run early.
type Engine struct {
	cfg     Config
	world   *comm.World
	res     *Result
	local   []int      // ranks hosted by this block, ascending
	cmd     []chan int // per-rank command channels (nil for ranks hosted elsewhere)
	ack     chan struct{}
	runDone chan struct{}
	left    atomic.Int32 // local ranks still working on the last command
	stepped int
	err     error
	done    bool
	finRes  *Result
	finErr  error

	// trap converts PE-goroutine panics into typed failures: a crashed or
	// guard-tripped rank surfaces as a prompt *supervise.RankFailure /
	// *supervise.GuardViolation from Step instead of taking down the process
	// (or waiting out the watchdog).
	trap *supervise.Trap

	snap []checkpoint.Frame // per-rank snapshot slots (written on cmdSnapshot)
	// base carries the restore point: the absolute step the engine started
	// at and the interrupted run's cumulative comm counters, so snapshots
	// and the final Result continue the original run's totals.
	base                int
	baseMsgs, baseBytes int64
}

// NewEngine validates cfg, distributes sys and starts the PE goroutines of
// all P ranks. They compute the step-0 forces and then idle awaiting the
// first Step. The input system is not modified.
func NewEngine(cfg Config, sys workload.System) (*Engine, error) {
	return newEngine(cfg, sys, nil, nil)
}

// NewPartial is NewEngine for one worker process's rank block: only the
// local ranks are spawned, over a partial comm world whose other ranks are
// reached through remote. The step-0 force computation already communicates
// across blocks. Final is gathered on the block hosting rank 0, which is
// also the only block whose OnStep fires.
func NewPartial(cfg Config, sys workload.System, local []int, remote comm.Remote) (*Engine, error) {
	return newEngine(cfg, sys, local, remote)
}

func newEngine(cfg Config, sys workload.System, local []int, remote comm.Remote) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Ext == nil {
		cfg.Ext = potential.NoField{}
	}
	if cfg.StatsEvery <= 0 {
		cfg.StatsEvery = 1
	}
	cfg.Verify = cfg.Verify || cfg.Faults != nil && cfg.Decomp == nil
	var layout dlb.Layout
	var hosts map[int]int
	if cfg.Decomp == nil {
		var err error
		if layout, err = cfg.Layout(); err != nil {
			return nil, err
		}
		if hosts, err = restoreHosts(layout, cfg.Restore); err != nil {
			return nil, err
		}
	}
	var opts []comm.Option
	if cfg.Faults != nil {
		opts = append(opts, comm.WithFaults(*cfg.Faults))
	}
	if cfg.Watchdog > 0 {
		// Command-scoped watching: a whole-run watchdog would see the idle
		// gaps between commands as stalls.
		opts = append(opts, comm.WithTracking())
	}
	var world *comm.World
	var err error
	if remote == nil {
		world, err = comm.NewWorld(cfg.P, opts...)
	} else {
		world, err = comm.NewPartialWorld(cfg.P, local, remote, opts...)
	}
	if err != nil {
		return nil, err
	}

	ranks := world.Local()
	e := &Engine{
		cfg:     cfg,
		world:   world,
		res:     &Result{M: layout.M},
		local:   ranks,
		cmd:     make([]chan int, cfg.P),
		ack:     make(chan struct{}, 1),
		runDone: make(chan struct{}),
		trap:    supervise.NewTrap(),
		snap:    make([]checkpoint.Frame, cfg.P),
	}
	if cfg.Restore != nil {
		e.base = cfg.Restore.Step
		e.baseMsgs = cfg.Restore.CommMsgs
		e.baseBytes = cfg.Restore.CommBytes
	}
	for _, r := range e.local {
		e.cmd[r] = make(chan int, 1)
	}
	// The initial cell pass and the step-0 force computation run here, but
	// nothing waits for them: the PEs only touch cmd after init, so the
	// first command queues behind both and its watch covers a hang there too.
	go func() {
		defer close(e.runDone)
		var cells []int32
		if e.cfg.Restore == nil {
			cells = cellsOf(e.cfg.Grid, sys.Set.Pos)
		}
		// The cores left over beyond one per local rank search for pairs
		// beside the ranks' force passes; a count that moves no bit.
		workers := max(1, runtime.GOMAXPROCS(0)/len(e.local))
		world.Run(func(c *comm.Comm) {
			defer e.trap.Catch(c.Rank())
			newPE(c, &e.cfg, layout, sys, cells, hosts, workers).runStepwise(e.cmd[c.Rank()], e.ack, &e.left, e.res, e.snap)
		})
	}()
	return e, nil
}

// cellsOf returns the cell of every position, looked up once per engine
// with one Locator: each rank then deals itself its initial particles by
// reading this table instead of locating all N positions again.
func cellsOf(g space.Grid, pos []vec.V) []int32 {
	loc := g.Locator()
	cells := make([]int32, len(pos))
	for i := range pos {
		cells[i] = int32(loc.Cell(pos[i]))
	}
	return cells
}

// World exposes the comm world for message injection and traffic accounting
// by the transport layer.
func (e *Engine) World() *comm.World { return e.world }

// ready is the guard every Step and Snapshot passes (op names the caller): a
// failed engine keeps returning its failure, a rank that died during init or
// a prior command's tail fails fast instead of queueing commands to a dead
// world, and a finished engine rejects.
func (e *Engine) ready(op string) error {
	if e.err != nil {
		return e.err
	}
	if terr := e.trap.Err(); terr != nil {
		e.err = terr
		return terr
	}
	if e.done {
		return fmt.Errorf("core: %s after Finish", op)
	}
	return nil
}

// command pushes v (a step count or cmdSnapshot) to every local rank and
// awaits the ack of the last one to finish it.
func (e *Engine) command(v int) error {
	e.left.Store(int32(len(e.local)))
	for _, r := range e.local {
		e.cmd[r] <- v
	}
	if err := e.await(e.cfg.Watchdog); err != nil {
		e.err = err
		return err
	}
	return nil
}

// await waits on the calling goroutine for the last command's ack, which
// the last local rank to finish sends, under both failure detectors: the
// panic trap (a rank died) and, for a positive timeout, the world's watchdog
// (a *comm.DeadlockError once no rank enters a communication operation for
// timeout). The trap wins ties — a dead rank wedges its peers, so a recorded
// failure explains an apparent deadlock and is the error the caller should
// see.
func (e *Engine) await(timeout time.Duration) error {
	err := e.world.WatchSection(timeout, e.ack, e.trap.Failed())
	if terr := e.trap.Err(); terr != nil {
		return terr
	}
	return err
}

// Step advances the simulation by n time steps and blocks until every local
// PE has completed the batch. Under a positive cfg.Watchdog a communication
// stall inside the batch returns a *DeadlockError instead of hanging; a PE
// panic or guard violation returns the typed *supervise.RankFailure /
// *supervise.GuardViolation promptly. Either way the engine is then
// unusable (its surviving ranks are left blocked, as after a real
// deadlock); under a supervisor the run is rolled back to a checkpoint.
func (e *Engine) Step(n int) error {
	if err := e.ready("Step"); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("core: negative step count %d", n)
	}
	if n == 0 {
		return nil
	}
	if err := e.command(n); err != nil {
		return err
	}
	e.stepped += n
	return nil
}

// AbsStep returns the absolute simulation step: the restore point plus the
// steps advanced this session.
func (e *Engine) AbsStep() int { return e.base + e.stepped }

// Procs returns the number of worker processes hosting the ranks: none,
// they are goroutines of this process.
func (e *Engine) Procs() int { return 0 }

// SnapshotLocal captures the local ranks' checkpoint frames at the current
// batch boundary: every PE receives the snapshot command, asserts its own
// communication state is quiesced, serializes its shard — particle arrays
// in live in-memory order plus its hosted-column set — and acknowledges;
// the driver then asserts no message is in flight in any local inbox. The
// engine remains usable: a snapshot does not advance time and a following
// Step continues exactly as if none was taken. A multi-process coordinator
// assembles the blocks' frame sets into one EngineState itself.
func (e *Engine) SnapshotLocal() ([]checkpoint.Frame, error) {
	if err := e.ready("Snapshot"); err != nil {
		return nil, err
	}
	if err := e.command(cmdSnapshot); err != nil {
		return nil, err
	}
	// All acks received: every PE passed its own quiesce check and wrote
	// its frame (the ack is the happens-before edge). The world-level check
	// covers the inboxes.
	if err := e.world.Quiesced(); err != nil {
		return nil, err
	}
	out := make([]checkpoint.Frame, len(e.local))
	for i, r := range e.local {
		out[i] = e.snap[r]
	}
	return out, nil
}

// Snapshot is SnapshotLocal for an all-ranks engine, assembled into the
// coordinated distributed snapshot a restore starts from.
func (e *Engine) Snapshot() (*checkpoint.EngineState, error) {
	frames, err := e.SnapshotLocal()
	if err != nil {
		return nil, err
	}
	msgs, bytes := e.world.Stats()
	st := &checkpoint.EngineState{
		Step:      e.AbsStep(),
		Frames:    frames,
		CommMsgs:  e.baseMsgs + msgs,
		CommBytes: e.baseBytes + bytes,
	}
	if err := st.Validate(e.cfg.P); err != nil {
		return nil, err
	}
	return st, nil
}

// Finish releases the PE goroutines, gathers the final global state and
// returns the completed Result. Finish is idempotent: repeated calls return
// the same (Result, error) pair.
//
// After a Step error, Finish attempts a best-effort teardown: the error
// came from the batch watchdog, typically because an injected stall
// outlasted one watchdog period, and the ranks usually drain the batch once
// the stall clears. Finish waits for the in-flight batch and the shutdown
// under an extended grace (10x the watchdog); on recovery it returns the
// partial Result together with the original Step error, so callers keep the
// final state and counters next to the records OnStep delivered. Only a true
// deadlock (the grace also expires) returns a nil Result, leaving the rank goroutines
// blocked — they cannot be preempted, exactly as after MPI_Abort.
func (e *Engine) Finish() (*Result, error) {
	if e.done {
		return e.finRes, e.finErr
	}
	e.done = true
	e.finRes, e.finErr = e.finish()
	return e.finRes, e.finErr
}

func (e *Engine) finish() (*Result, error) {
	if terr := e.trap.Err(); terr != nil {
		// A rank died: the world can never complete a collective shutdown,
		// so abandon it outright (the MPI_Abort analogue). No partial
		// Result either — surviving ranks may still be mid-batch appending
		// to it concurrently.
		if e.err == nil {
			e.err = terr
		}
		return nil, e.err
	}
	watch := e.cfg.Watchdog
	if e.err != nil {
		// Salvage: the error is the watchdog's (a trap returned above), so
		// the stalled command still owes its ack; give it 10x to drain.
		watch = 10 * e.cfg.Watchdog
		if e.await(watch) != nil {
			return nil, e.err
		}
	}
	for _, r := range e.local {
		e.cmd[r] <- cmdFinish
	}
	if werr := e.world.WatchSection(watch, e.runDone, nil); werr != nil {
		if e.err != nil {
			return nil, e.err
		}
		e.err = werr
		return nil, werr
	}
	e.res.CommMsgs, e.res.CommBytes = e.world.Stats()
	e.res.CommMsgs += e.baseMsgs
	e.res.CommBytes += e.baseBytes
	e.res.Faults = e.world.FaultStats()
	e.res.FaultEvents = e.world.FaultEvents()
	return e.res, e.err
}
