package permcell

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/distrib"
	"permcell/internal/supervise"
)

// supervisedEngine is the self-healing wrapper WithSupervisor installs
// around any facade engine. It owns the authoritative step counter and the
// accumulated stats; the inner engine is disposable — on a recoverable
// failure (PE panic, physics-guard violation, watchdog deadlock) the wrapper
// abandons it, restores a fresh engine from the latest valid checkpoint and
// replays up to the failure point. Replayed steps are deduplicated against a
// high-water mark so the outward trace — Stats and the OnStep stream — is
// exactly the uninterrupted run's.
//
// Concurrency: the driver (Step/Result/Checkpoint callers) runs the rollback
// loop; admit is called from the inner engine's stats path (rank 0's
// goroutine for the parallel engine, static shapes included; the driver
// itself for the serial one).
// An abandoned incarnation's rank 0 may still race one last admit against
// the driver, so admissions are generation-tagged and mu-serialized: a stale
// generation is dropped before it can touch the accumulated state.
type supervisedEngine struct {
	pol  supervise.Policy
	base Options
	dir  string

	mu    sync.Mutex
	gen   int         // current incarnation; admissions from older ones are dropped
	high  int         // highest step already admitted (replay suppression)
	stats []StepStats // accumulated, deduplicated records

	inner    Engine
	abs      int // authoritative absolute step (completed)
	innerAbs int // inner engine's absolute step

	attempts int
	report   supervise.Report
	dead     error // terminal error; set once, Step refuses afterwards

	// rescaleTo, when > 0, overrides the tcp worker-process count of the
	// next (and subsequent) incarnations: the rescale recovery policy
	// shrinks it by one on each worker failure, resuming on the survivors
	// instead of respawning the dead proc.
	rescaleTo int

	// Rollback-target escalation: when a rollback from latest.ckpt yields no
	// forward progress before the next failure, the latest checkpoint itself
	// is suspect and the next rollback prefers previous.ckpt.
	lastRollbackAbs int
	lastPath        string

	finished bool
	res      *Result
	resErr   error
}

// supervised starts the run identified by meta under the supervision policy
// in o: fresh when st is nil, else from the snapshot (Restore), whose step
// the authoritative counter continues from.
func supervised(meta checkpoint.Meta, st *checkpoint.EngineState, o Options) (Engine, error) {
	if o.ckptDir == "" {
		return nil, fmt.Errorf("permcell: WithSupervisor requires a checkpoint directory (use WithCheckpoint)")
	}
	switch o.supervisor.WorkerRecovery {
	case "", supervise.RecoverRespawn, supervise.RecoverRescale:
	default:
		return nil, fmt.Errorf("permcell: unknown worker recovery policy %q (want %q or %q)",
			o.supervisor.WorkerRecovery, supervise.RecoverRespawn, supervise.RecoverRescale)
	}
	startStep := 0
	if st != nil {
		startStep = st.Step
	}
	s := &supervisedEngine{
		pol: *o.supervisor, base: o, dir: o.ckptDir,
		abs: startStep, innerAbs: startStep, high: startStep,
		lastRollbackAbs: -1,
	}
	inner, err := start(meta, st, s.innerOptions(0))
	if err != nil {
		return nil, err
	}
	s.inner = inner
	// Anchor checkpoint: guarantee a rollback target exists before the first
	// cadence boundary, so a failure on step 1 is already recoverable.
	if err := CheckpointNow(inner); err != nil {
		abandon(inner)
		return nil, fmt.Errorf("permcell: writing anchor checkpoint: %w", err)
	}
	return s, nil
}

// innerOptions derives the options an inner incarnation runs with: no
// recursive supervision, stats routed through the generation-tagged admit
// hook, and the policy's physics guards armed.
func (s *supervisedEngine) innerOptions(gen int) Options {
	o := s.base
	o.supervisor = nil
	o.discard = true // the wrapper accumulates; inner engines keep nothing
	o.onStep = func(st StepStats) { s.admit(gen, st) }
	if s.rescaleTo > 0 {
		o.transport.Procs = s.rescaleTo
	}
	g := s.pol.Guard
	o.guard = &g
	return o
}

// admit folds one inner-engine record into the accumulated trace. Stale
// incarnations and already-admitted (replayed) steps are dropped.
func (s *supervisedEngine) admit(gen int, st StepStats) {
	s.mu.Lock()
	if gen != s.gen {
		s.mu.Unlock()
		return
	}
	if st.Step <= s.high {
		s.report.StepsReplayed++
		s.mu.Unlock()
		return
	}
	s.high = st.Step
	if !s.base.discard {
		s.stats = append(s.stats, st)
	}
	fn := s.base.onStep
	s.mu.Unlock()
	if fn != nil {
		fn(st)
	}
}

func (s *supervisedEngine) Step(n int) error {
	if s.dead != nil {
		return s.dead
	}
	if err := guardStep(s.finished, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := s.stepOne(); err != nil {
			return err
		}
	}
	return nil
}

// stepOne advances the authoritative counter by one step, healing
// recoverable failures along the way: classify, back off, roll back, replay,
// retry — until the step lands or the retry budget runs out.
func (s *supervisedEngine) stepOne() error {
	for {
		err := s.advance()
		if err == nil {
			return nil
		}
		kind, count := s.classify(err)
		if count == nil {
			// Not a supervised failure class (e.g. a checkpoint-write error):
			// surface it unhealed.
			s.dead = err
			return err
		}
		*count++
		s.event(kind, err.Error(), "", 0)
		if kind == supervise.EventWorkerFailure && s.pol.WorkerRecovery == supervise.RecoverRescale {
			// Shed the dead worker's slot: restart on one fewer process
			// (never below one). TransportProcs reads the failed
			// incarnation's live count, so repeated failures keep
			// shrinking the pool instead of resetting it.
			if tp, ok := s.inner.(interface{ TransportProcs() int }); ok {
				if procs := tp.TransportProcs(); procs > 1 {
					s.rescaleTo = procs - 1
				}
			}
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

// advance drives the inner engine to the next authoritative step, replaying
// any rollback lag first. Inner progress is only trusted on success: a
// failed batch's engine is abandoned wholesale, so partial progress inside
// it never needs accounting.
func (s *supervisedEngine) advance() error {
	target := s.abs + 1
	if lag := target - s.innerAbs; lag > 0 {
		if err := s.safeStep(lag); err != nil {
			return err
		}
		s.innerAbs = target
	}
	s.abs = target
	return nil
}

// safeStep shields the driver from panics escaping the inner Step path (the
// serial engine steps on the caller's goroutine; the parallel engines trap
// rank panics themselves and return them as errors).
func (s *supervisedEngine) safeStep(n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case *supervise.GuardViolation:
				err = v
			case *supervise.RankFailure:
				err = v
			default:
				err = &supervise.RankFailure{Rank: -1, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			}
		}
	}()
	return s.inner.Step(n)
}

// classify maps an error to its supervision event kind and the report counter
// that class ticks, or ("", nil) when the error is not a recoverable failure
// class.
func (s *supervisedEngine) classify(err error) (string, *int) {
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
func (s *supervisedEngine) event(kind, errStr, ckptPath string, restored int) {
	ev := supervise.Event{
		Kind: kind, Step: s.abs + 1, Attempt: s.attempts,
		Err: errStr, Checkpoint: ckptPath, RestoredStep: restored,
	}
	s.report.Events = append(s.report.Events, ev)
	if s.pol.OnEvent != nil {
		s.pol.OnEvent(ev)
	}
}

// rollback abandons the current incarnation and restores a fresh one from
// the newest checkpoint that passes integrity and finiteness checks,
// escalating to previous.ckpt when the latest one is suspect.
func (s *supervisedEngine) rollback() error {
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	abandon(s.inner)
	s.inner = nil

	// If the last rollback restored latest.ckpt and the run failed again
	// without completing a single new step, replaying latest would fail the
	// same way (a deterministic fault it captured, or state that passes the
	// cheap guards but is already poisoned): start from previous instead.
	latest := filepath.Join(s.dir, checkpoint.LatestName)
	previous := filepath.Join(s.dir, checkpoint.PreviousName)
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
		inner, err := restoreState(meta, frames, s.innerOptions(gen))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		s.inner = inner
		s.innerAbs = meta.Step
		s.lastRollbackAbs = s.abs
		s.lastPath = path
		s.report.Rollbacks++
		s.event(supervise.EventRollback, "", path, meta.Step)
		return nil
	}
	return fmt.Errorf("permcell: no usable rollback checkpoint in %s: %w", s.dir, errors.Join(errs...))
}

// abandon releases a dead incarnation without blocking the recovery path:
// Result on a failed engine runs its best-effort teardown (which can wait
// out a watchdog grace), and on a corrupt serial engine could even panic
// again, so it runs on its own goroutine behind a recover.
func abandon(eng Engine) {
	go func() {
		defer func() { _ = recover() }()
		_, _ = eng.Result()
	}()
}

// Stats returns a copy of the accumulated, replay-deduplicated records,
// taken under the admission mutex: the inner engine's rank-0 goroutine
// appends through admit while a batch is in flight, so handing out the
// internal slice (as this method once did) let a concurrent reader — e.g.
// a server's stream goroutine — alias and even corrupt supervisor state
// mid-run.
func (s *supervisedEngine) Stats() []StepStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.stats)
}

func (s *supervisedEngine) Result() (*Result, error) {
	if s.finished {
		return s.res, s.resErr
	}
	s.finished = true
	// The accumulated slice is handed over to the Result (the Engine
	// contract: no appends happen after Result); it is read under the
	// admission mutex so a stale incarnation's last admit cannot race the
	// handover.
	s.mu.Lock()
	stats := s.stats
	s.mu.Unlock()
	if s.dead != nil {
		// Degraded completion: the accumulated prefix is the partial Result;
		// the terminal error (a *RetryBudgetError when the budget ran out)
		// carries the structured failure report.
		if s.inner != nil {
			abandon(s.inner)
		}
		s.res = &Result{Stats: stats}
		s.resErr = s.dead
		return s.res, s.resErr
	}
	res, err := s.inner.Result()
	if res != nil {
		r := *res
		r.Stats = stats // replay-deduplicated trace, not the last incarnation's
		s.res = &r
	}
	s.resErr = err
	return s.res, s.resErr
}

// Checkpoint writes an immediate checkpoint through the current incarnation.
func (s *supervisedEngine) Checkpoint() error {
	if s.finished {
		return fmt.Errorf("permcell: Checkpoint after Result")
	}
	if s.dead != nil {
		return s.dead
	}
	return CheckpointNow(s.inner)
}

func (s *supervisedEngine) reportCopy() *supervise.Report {
	rep := s.report
	rep.Events = append([]supervise.Event(nil), s.report.Events...)
	return &rep
}

// SupervisionReport returns the supervision outcome of an engine running
// under WithSupervisor — the event log plus failure and recovery counters —
// or nil for unsupervised engines. Call it between Step calls or after
// Result.
func SupervisionReport(eng Engine) *SupervisorReport {
	s, ok := eng.(*supervisedEngine)
	if !ok {
		return nil
	}
	return s.reportCopy()
}
