// Package supervise is the failure taxonomy and recovery policy shared by
// the self-healing run layer: the parallel engine (internal/core) converts
// PE crashes and physics-guard violations into the typed errors defined
// here, and the facade supervisor (permcell.WithSupervisor) consumes them to
// decide when to roll back to a checkpoint and retry. The package is a leaf
// — it imports only the standard library — so the engine and the comm
// substrate can use its types without import cycles.
package supervise

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// RankFailure reports that one PE goroutine panicked: the panic value,
// the rank it happened on and the goroutine's stack at the point of
// recovery. The process survives; the failed world is torn down and (under
// a supervisor) rolled back to the latest valid checkpoint.
type RankFailure struct {
	// Rank is the PE whose goroutine panicked (-1 when the failure happened
	// on the driver goroutine, e.g. in the serial engine).
	Rank int
	// Value is the rendered panic value.
	Value string
	// Stack is the failing goroutine's stack trace.
	Stack string
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("supervise: rank %d panicked: %s", e.Rank, e.Value)
}

// GuardViolation reports that the runtime physics-guard pass failed: the
// state is numerically or physically invalid (non-finite coordinates,
// particle-count loss, runaway energy drift). Violations are raised before
// the offending step's statistics are emitted or checkpointed, so neither
// the trace nor the checkpoint pair is poisoned by the bad state.
type GuardViolation struct {
	// Rank is the PE that detected the violation.
	Rank int
	// Step is the absolute time step the violation was detected at.
	Step int
	// Check names the failed guard: "finite", "conservation" or
	// "energy-drift".
	Check string
	// Detail describes the violation.
	Detail string
}

func (e *GuardViolation) Error() string {
	return fmt.Sprintf("supervise: guard %q violated at step %d (rank %d): %s",
		e.Check, e.Step, e.Rank, e.Detail)
}

// GuardConfig tunes the runtime physics guards evaluated at the stats
// cadence. The zero value selects the defaults.
type GuardConfig struct {
	// MaxEnergyDrift is the relative total-energy drift ceiling: the run
	// fails when |E - E0| exceeds MaxEnergyDrift * max(1, |E0|), with E0 the
	// first census after (re)start. 0 selects DefaultMaxEnergyDrift;
	// negative disables the drift check only (finiteness and conservation
	// stay on).
	MaxEnergyDrift float64
}

// DefaultMaxEnergyDrift is the default relative energy-drift ceiling. It is
// deliberately generous: the thermostatted condensation runs trade potential
// for kinetic energy on purpose, while an integrator blow-up overshoots any
// O(1) ceiling within a few steps.
const DefaultMaxEnergyDrift = 5.0

// Drift returns the configured drift ceiling (0 = drift check disabled).
func (g GuardConfig) Drift() float64 {
	if g.MaxEnergyDrift == 0 {
		return DefaultMaxEnergyDrift
	}
	if g.MaxEnergyDrift < 0 {
		return 0
	}
	return g.MaxEnergyDrift
}

// Policy configures the supervisor: how many recovery attempts a run gets,
// how the backoff between them grows, which guards run, and an optional
// event sink.
type Policy struct {
	// MaxRetries is the recovery budget: the number of rollback+resume
	// attempts before the run degrades to a partial Result plus a
	// *RetryBudgetError (0 = fail on the first failure).
	MaxRetries int
	// Backoff is the delay before the first retry (default 50ms). Each
	// subsequent retry doubles it, up to 5s.
	Backoff time.Duration
	// Guard tunes the runtime physics guards.
	Guard GuardConfig
	// WorkerRecovery selects how a distributed worker failure heals:
	// RecoverRespawn (the default, also chosen by "") restarts at the same
	// worker-process count; RecoverRescale restarts on one fewer process,
	// shedding the failed worker's slot onto the survivors. Ignored by
	// in-process engines, which have no worker processes to lose.
	WorkerRecovery string
	// OnEvent, when non-nil, observes every supervision event as it
	// happens (failure, rollback, resume, give-up).
	OnEvent func(Event)
}

// WorkerRecovery policies.
const (
	RecoverRespawn = "respawn"
	RecoverRescale = "rescale"
)

// maxBackoff caps the delay between retries.
const maxBackoff = 5 * time.Second

// BackoffFor returns the delay before retry attempt (1-based), doubling
// from Backoff and capped at maxBackoff.
func (p Policy) BackoffFor(attempt int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// Event kinds recorded in Report.Events.
const (
	EventRankFailure    = "rank-failure"    // a PE goroutine panicked
	EventGuardViolation = "guard-violation" // a physics guard fired
	EventDeadlock       = "deadlock"        // the comm watchdog fired
	EventWorkerFailure  = "worker-failure"  // a distributed worker process/link died
	EventRollback       = "rollback"        // state restored from a checkpoint
	EventGiveUp         = "give-up"         // retry budget exhausted
)

// Event is one entry of the supervision log.
type Event struct {
	// Kind is one of the Event* constants.
	Kind string
	// Step is the absolute step the run was at when the event happened.
	Step int
	// Attempt is the retry attempt the event belongs to (0 = before any
	// retry).
	Attempt int
	// Err is the rendered failure (failure and give-up events).
	Err string
	// Checkpoint is the file restored from (rollback events).
	Checkpoint string
	// RestoredStep is the absolute step of the restored checkpoint
	// (rollback events).
	RestoredStep int
}

// String renders the event for a run log.
func (e Event) String() string {
	if e.Kind == EventRollback {
		return fmt.Sprintf("rollback to step %d from %s (attempt %d)", e.RestoredStep, e.Checkpoint, e.Attempt)
	}
	return fmt.Sprintf("%s at step %d: %s", e.Kind, e.Step, e.Err)
}

// Report is the structured supervision outcome: the full event log plus
// recovery counters. A healthy run that never failed has all-zero counters.
type Report struct {
	Events []Event
	// Failure-class counters.
	RankFailures, GuardViolations, Deadlocks int
	// WorkerFailures counts distributed worker failures (process exits,
	// heartbeat timeouts, frame corruption, protocol violations).
	WorkerFailures int
	// Recovery counters.
	Rollbacks, Retries int
	// StepsReplayed counts re-executed step records suppressed during
	// replay (the work redone to get back to the failure point).
	StepsReplayed int
	// Exhausted is set when the retry budget ran out and the run degraded
	// to a partial result.
	Exhausted bool
}

// Add folds the counters of another engine incarnation's report into r:
// each incarnation reports from zero, so the sum is exact. The event log
// and Exhausted stay r's.
func (r *Report) Add(o *Report) {
	r.RankFailures += o.RankFailures
	r.GuardViolations += o.GuardViolations
	r.Deadlocks += o.Deadlocks
	r.WorkerFailures += o.WorkerFailures
	r.Rollbacks += o.Rollbacks
	r.Retries += o.Retries
	r.StepsReplayed += o.StepsReplayed
}

// RetryBudgetError is returned when the retry budget is exhausted: the run
// ends with whatever statistics were collected (a partial Result) and this
// error carrying the last failure and the full report.
type RetryBudgetError struct {
	// Attempts is the number of recovery attempts consumed.
	Attempts int
	// Last is the failure that exhausted the budget.
	Last error
	// Report is the structured failure report.
	Report *Report
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("supervise: retry budget exhausted after %d attempts (%d rollbacks, %d steps replayed): %v",
		e.Attempts, e.Report.Rollbacks, e.Report.StepsReplayed, e.Last)
}

// Unwrap exposes the last failure to errors.As/Is.
func (e *RetryBudgetError) Unwrap() error { return e.Last }

// Trap catches panics recovered from PE goroutines. Every rank defers
// Catch; the first failure is kept and closes Failed so drivers waiting on
// a batch can react promptly instead of waiting out the watchdog.
type Trap struct {
	mu    sync.Mutex
	err   error
	fired chan struct{}
}

// NewTrap returns an armed trap.
func NewTrap() *Trap {
	return &Trap{fired: make(chan struct{})}
}

// Catch recovers a panic on the calling goroutine and records its typed
// Failure. Must be invoked via defer. A nil recover is a no-op, so Catch is
// safe on the normal return path.
func (t *Trap) Catch(rank int) {
	r := recover()
	if r == nil {
		return
	}
	err := Failure(rank, r)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = err
		close(t.fired)
	}
}

// Failure is the typed failure a panic value r recovered on rank's
// goroutine stands for: a *GuardViolation or *RankFailure as itself,
// anything else a *RankFailure carrying the goroutine's stack. Call it from
// the deferred function that recovered r.
func Failure(rank int, r any) error {
	switch v := r.(type) {
	case *GuardViolation:
		return v
	case *RankFailure:
		return v
	}
	return &RankFailure{Rank: rank, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
}

// Failed returns a channel closed on the first recorded failure.
func (t *Trap) Failed() <-chan struct{} { return t.fired }

// Err returns the first recorded failure (nil when none).
func (t *Trap) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Sabotage kinds. The rank-level kinds fire inside the step loop of the
// target rank, on whichever process hosts it; the process-level kinds fail
// the worker process hosting the target rank, so they need the tcp transport.
const (
	// SabotagePanic crashes the target rank's goroutine at the target step.
	SabotagePanic = "panic"
	// SabotageNaN corrupts one velocity component on the target rank to NaN
	// at the target step, exercising the finite guard.
	SabotageNaN = "nan"
	// SabotageWorkerExit closes the worker's link and ends it: kill -9.
	SabotageWorkerExit = "worker-exit"
	// SabotageWorkerStall suspends the worker's heartbeats and event loop
	// for Stall: SIGSTOP/SIGCONT. Past the heartbeat window the link is
	// declared dead; under it the stall must ride through unnoticed.
	SabotageWorkerStall = "worker-stall"
	// SabotageWorkerGarbage writes a lying length prefix (0xFFFFFFFF) onto
	// the worker's link, desynchronizing the frame stream.
	SabotageWorkerGarbage = "worker-garbage"
)

// Sabotage is the scripted one-shot fault for chaos-testing the recovery
// path. It fires exactly once, on the first engine incarnation that reaches
// Step: rank-level kinds at (Step, Rank) in the step loop, process-level
// kinds in the worker hosting Rank before the batch that contains Step. The
// caller's pointer is the one record of whether the shot is spent, and it
// flips when the shot fires (over tcp: when the coordinator issues that
// batch), never when the script ships: a replay after a rollback sees it
// spent and converges to the golden trace, an incarnation that ends before
// Step leaves it armed. Share one pointer across incarnations (the facade
// supervisor does). Only the exported fields cross the wire, so a worker's
// copy starts unspent.
type Sabotage struct {
	// Kind is one of the Sabotage* kinds.
	Kind string
	// Step is the absolute time step to fire at (>= 1).
	Step int
	// Rank is the PE to fire on, or whose hosting worker to fire in.
	Rank int
	// Stall is how long SabotageWorkerStall suspends; zero otherwise.
	Stall time.Duration

	spent atomic.Bool
}

// processLevel lists every sabotage kind, and whether it fails a whole worker
// process rather than one rank.
var processLevel = map[string]bool{
	SabotagePanic: false, SabotageNaN: false,
	SabotageWorkerExit: true, SabotageWorkerStall: true, SabotageWorkerGarbage: true,
}

// ProcessLevel reports whether the script fails a whole worker process
// rather than one rank. Nil-safe.
func (s *Sabotage) ProcessLevel() bool { return s != nil && processLevel[s.Kind] }

// Validate is the one check of a script against the run it is aimed at — p
// ranks, on the tcp transport or not — so that one which could never fire is
// refused instead of silently running clean.
func (s *Sabotage) Validate(p int, tcp bool) error {
	_, known := processLevel[s.Kind]
	switch {
	case !known:
		return fmt.Errorf("unknown sabotage kind %q", s.Kind)
	case s.Step < 1:
		return fmt.Errorf("sabotage step must be >= 1, got %d", s.Step)
	case s.Rank < 0 || s.Rank >= p:
		return fmt.Errorf("sabotage rank %d outside the run's ranks 0..%d", s.Rank, p-1)
	case s.ProcessLevel() && !tcp:
		return fmt.Errorf("sabotage kind %q fails a worker process and needs the tcp transport", s.Kind)
	case s.Stall != 0 && s.Kind != SabotageWorkerStall:
		return fmt.Errorf("sabotage stall %v is only meaningful with kind %q, got %q", s.Stall, SabotageWorkerStall, s.Kind)
	}
	return nil
}

// FireIn reports whether the shot falls in the batch of n steps that follows
// absolute step done, and spends it: true exactly once. Nil-safe.
func (s *Sabotage) FireIn(done, n int) bool {
	if s == nil || s.Step <= done || s.Step > done+n {
		return false
	}
	return s.spent.CompareAndSwap(false, true)
}

// TryFire reports whether a rank-level shot fires now: true exactly once,
// when step and rank match the script. Nil-safe.
func (s *Sabotage) TryFire(step, rank int) bool {
	return s != nil && rank == s.Rank && s.FireIn(step-1, 1)
}

// Fired reports whether the sabotage already went off.
func (s *Sabotage) Fired() bool { return s != nil && s.spent.Load() }
