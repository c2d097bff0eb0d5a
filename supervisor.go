package permcell

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/distrib"
	"permcell/internal/supervise"
)

// supervisor is the self-healing backend WithSupervisor puts beneath the
// facade adapter. It owns the authoritative step counter; the incarnation
// under it — a bare backend built by the same switch as an unsupervised
// engine's — is disposable: on a recoverable failure (PE panic,
// physics-guard violation, watchdog deadlock, dead tcp worker) the
// supervisor abandons it, builds a fresh one from the newest valid
// checkpoint and replays up to the failure point. Replayed records are
// dropped against a high-water mark before they reach the adapter, so the
// trace — Stats and the OnStep stream — is exactly the uninterrupted run's.
//
// Concurrency: the driver (the adapter's Step/Result/Checkpoint callers)
// runs the heal loop; admit is called from the incarnation's record path
// (rank 0's goroutine for the parallel engine, static shapes included; the
// coordinator's Step path on tcp; the driver itself for the serial one).
// A failed incarnation's rank 0 may still race one last admit against the
// driver, so admissions are generation-tagged and mu-serialized, and every
// failure retires the incarnation's generation before anything reads the
// trace: a stale record never reaches the adapter.
type supervisor struct {
	pol  supervise.Policy
	meta checkpoint.Meta // the run identity every incarnation is built from
	o    Options
	e    *engine // the adapter above: its trace and its OnStep hook

	mu   sync.Mutex
	gen  int // current incarnation; admissions from older ones are dropped
	high int // highest step already admitted (replay suppression)

	inner coreEngine // nil only after a terminal failure
	abs   int        // authoritative absolute step (completed)
	// procs is the tcp worker-process count the next incarnation runs on
	// (0 in-process): the last incarnation's, which the rescale recovery
	// policy shrinks by one on each worker failure, resuming on the
	// survivors instead of respawning the dead proc.
	procs int

	attempts int
	report   supervise.Report
	dead     error // terminal error; set once, every call refuses afterwards

	// Rollback-target escalation: when a rollback from latest.ckpt yields no
	// forward progress before the next failure, the latest checkpoint itself
	// is suspect and the next rollback prefers previous.ckpt.
	lastRollbackAbs int
	lastPath        string
}

// supervised builds the supervisor for the run identified by meta and its
// first incarnation: fresh when st is nil, else from the snapshot
// (Restore), whose step the authoritative counter continues from, beneath
// the adapter e.
func supervised(meta checkpoint.Meta, st *checkpoint.EngineState, o Options, e *engine) (*supervisor, error) {
	if o.ckptDir == "" {
		return nil, fmt.Errorf("permcell: WithSupervisor requires a checkpoint directory (use WithCheckpoint)")
	}
	switch o.supervisor.WorkerRecovery {
	case "", supervise.RecoverRespawn, supervise.RecoverRescale:
	default:
		return nil, fmt.Errorf("permcell: unknown worker recovery policy %q (want %q or %q)",
			o.supervisor.WorkerRecovery, supervise.RecoverRespawn, supervise.RecoverRescale)
	}
	s := &supervisor{
		pol: *o.supervisor, meta: meta, o: o, e: e,
		procs: o.transport.Procs, lastRollbackAbs: -1,
	}
	s.o.rt.Guard = &s.pol.Guard
	if st != nil {
		s.abs, s.high = st.Step, st.Step
	}
	if err := s.build(st); err != nil {
		return nil, err
	}
	return s, nil
}

// build starts the current generation's incarnation from st through the
// backend switch, with the policy's physics guards armed (s.o.rt.Guard) and
// admit as its record sink.
func (s *supervisor) build(st *checkpoint.EngineState) error {
	gen := s.gen
	inner, err := backend(s.meta, st, s.o, s.procs,
		func(rec StepStats) { s.admit(gen, rec) })
	if err != nil {
		return err
	}
	s.inner, s.procs = inner, inner.Procs()
	return nil
}

// admit hands one incarnation record to the adapter. Stale incarnations
// and already-admitted (replayed) steps are dropped. The trace append runs
// under mu, so a retire or a Result that takes mu afterwards comes after
// every record admitted before it; the OnStep hook, caller code, runs
// outside it.
func (s *supervisor) admit(gen int, st StepStats) {
	s.mu.Lock()
	fresh := gen == s.gen && st.Step > s.high
	if fresh {
		s.high = st.Step
		s.e.keep(st)
	} else if gen == s.gen {
		s.report.StepsReplayed++
	}
	s.mu.Unlock()
	if fresh && s.e.onStep != nil {
		s.e.onStep(st)
	}
}

// retire ends the current incarnation: its generation's late records are
// dropped from here on, and its teardown runs in the background.
func (s *supervisor) retire() {
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
	abandon(s.inner)
	s.inner = nil
}

func (s *supervisor) Step(n int) error {
	for i := 0; i < n; i++ {
		if err := s.heal(s.advance); err != nil {
			return err
		}
	}
	return nil
}

// advance drives the incarnation to the next authoritative step, replaying
// any rollback lag first. Incarnation progress is only trusted on success:
// a failed batch's engine is abandoned wholesale, so partial progress
// inside it never needs accounting.
func (s *supervisor) advance() error {
	if err := s.catchUp(s.abs + 1); err != nil {
		return err
	}
	s.abs++
	return nil
}

// catchUp steps the incarnation to the absolute step target. The replay
// after a rollback runs here, beneath the adapter's checkpoint cadence, so
// it rewrites none of the checkpoints it passes.
func (s *supervisor) catchUp(target int) error {
	if lag := target - s.inner.AbsStep(); lag > 0 {
		return s.inner.Step(lag)
	}
	return nil
}

func (s *supervisor) AbsStep() int { return s.abs }

func (s *supervisor) Procs() int { return s.procs }

// Snapshot captures the authoritative step through the heal loop, so a
// cadence or explicit checkpoint whose snapshot meets a failure rolls back,
// replays to the same step and snapshots again.
func (s *supervisor) Snapshot() (*checkpoint.EngineState, error) {
	var st *checkpoint.EngineState
	err := s.heal(func() error {
		if err := s.catchUp(s.abs); err != nil {
			return err
		}
		var err error
		st, err = s.inner.Snapshot()
		return err
	})
	return st, err
}

// Finish ends the run: the last incarnation's outcome, or after a terminal
// failure an empty Result (the adapter hands it the trace prefix) with the
// terminal error — a *RetryBudgetError when the budget ran out.
func (s *supervisor) Finish() (*Result, error) {
	if s.dead != nil {
		return &Result{}, s.dead
	}
	s.mu.Lock()
	s.gen++ // hand the trace over: the incarnation admits nothing more
	s.mu.Unlock()
	return s.inner.Finish()
}

// heal runs op against the current incarnation, healing recoverable
// failures along the way: classify, back off, roll back, retry (op replays
// up to its step) — until op succeeds or the retry budget runs out.
func (s *supervisor) heal(op func() error) error {
	if s.dead != nil {
		return s.dead
	}
	for {
		err := safely(op)
		if err == nil {
			return nil
		}
		s.retire()
		kind, count := s.classify(err)
		if count == nil {
			// Not a supervised failure class: surface it unhealed.
			s.dead = err
			return err
		}
		*count++
		s.event(kind, err.Error(), "", 0)
		if kind == supervise.EventWorkerFailure && s.pol.WorkerRecovery == supervise.RecoverRescale && s.procs > 1 {
			// Shed the dead worker's slot (never below one process).
			// procs is the failed incarnation's live count, so repeated
			// failures keep shrinking the pool instead of resetting it.
			s.procs--
		}
		if s.attempts >= s.pol.MaxRetries {
			s.report.Exhausted = true
			s.dead = &supervise.RetryBudgetError{
				Attempts: s.attempts, Last: err, Report: s.reportCopy(),
			}
			s.event(supervise.EventGiveUp, err.Error(), "", 0)
			return s.dead
		}
		s.attempts++
		s.report.Retries++
		time.Sleep(s.pol.BackoffFor(s.attempts))
		if rerr := s.rollback(); rerr != nil {
			s.dead = fmt.Errorf("permcell: rollback after %v failed: %w", err, rerr)
			return s.dead
		}
	}
}

// safely shields the driver from panics escaping op (the serial engine
// steps on the caller's goroutine; the parallel engines trap rank panics
// themselves and return them as errors).
func safely(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = supervise.Failure(-1, r)
		}
	}()
	return op()
}

// classify maps an error to its supervision event kind and the report counter
// that class ticks, or ("", nil) when the error is not a recoverable failure
// class.
func (s *supervisor) classify(err error) (string, *int) {
	var gv *supervise.GuardViolation
	var rf *supervise.RankFailure
	var de *comm.DeadlockError
	var wf *distrib.WorkerFailure
	switch {
	case errors.As(err, &gv):
		return supervise.EventGuardViolation, &s.report.GuardViolations
	case errors.As(err, &rf):
		return supervise.EventRankFailure, &s.report.RankFailures
	case errors.As(err, &de):
		return supervise.EventDeadlock, &s.report.Deadlocks
	case errors.As(err, &wf):
		return supervise.EventWorkerFailure, &s.report.WorkerFailures
	}
	return "", nil
}

// event appends to the report log and notifies the policy's sink. Step is
// the step being attempted when the event fired.
func (s *supervisor) event(kind, errStr, ckptPath string, restored int) {
	ev := supervise.Event{
		Kind: kind, Step: s.abs + 1, Attempt: s.attempts,
		Err: errStr, Checkpoint: ckptPath, RestoredStep: restored,
	}
	s.report.Events = append(s.report.Events, ev)
	if s.pol.OnEvent != nil {
		s.pol.OnEvent(ev)
	}
}

// rollback builds a fresh incarnation from the newest checkpoint that
// passes integrity and finiteness checks, escalating to previous.ckpt when
// the latest one is suspect. The run identity is the supervisor's own, so
// nothing Restore or New validated is checked again.
func (s *supervisor) rollback() error {
	// If the last rollback restored latest.ckpt and the run failed again
	// without completing a single new step, replaying latest would fail the
	// same way (a deterministic fault it captured, or state that passes the
	// cheap guards but is already poisoned): start from previous instead.
	dir := s.o.ckptDir
	latest := filepath.Join(dir, checkpoint.LatestName)
	previous := filepath.Join(dir, checkpoint.PreviousName)
	candidates := []string{latest, previous}
	if s.abs == s.lastRollbackAbs && filepath.Base(s.lastPath) == checkpoint.LatestName {
		candidates = []string{previous, latest}
	}

	var errs []error
	for _, path := range candidates {
		meta, frames, err := checkpoint.Load(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := checkpoint.CheckFinite(frames); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", filepath.Base(path), err))
			continue
		}
		if err := s.build(meta.State(frames)); err != nil {
			errs = append(errs, err)
			continue
		}
		s.lastRollbackAbs = s.abs
		s.lastPath = path
		s.report.Rollbacks++
		s.event(supervise.EventRollback, "", path, meta.Step)
		return nil
	}
	return fmt.Errorf("permcell: no usable rollback checkpoint in %s: %w", dir, errors.Join(errs...))
}

// abandon releases a dead incarnation without blocking the recovery path:
// Finish on a failed engine runs its best-effort teardown (which can wait
// out a watchdog grace), and on a corrupt serial engine could even panic
// again, so it runs on its own goroutine behind a recover.
func abandon(eng coreEngine) {
	go func() {
		defer func() { _ = recover() }()
		_, _ = eng.Finish()
	}()
}

func (s *supervisor) reportCopy() *supervise.Report {
	rep := s.report
	rep.Events = append([]supervise.Event(nil), s.report.Events...)
	return &rep
}

// SupervisionReport returns the supervision outcome of an engine running
// under WithSupervisor — the event log plus failure and recovery counters,
// read from the supervisor beneath the engine — or nil for unsupervised
// engines. Call it between Step calls or after Result.
func SupervisionReport(eng Engine) *SupervisorReport {
	if e, ok := eng.(*engine); ok {
		if s, ok := e.eng.(*supervisor); ok {
			return s.reportCopy()
		}
	}
	return nil
}
