package serve

import (
	"context"
	"sync"
	"time"

	"permcell"
	"permcell/internal/metrics"
)

// State is a run's lifecycle state. Transitions:
//
//	queued -> running -> completed | failed | canceled
//	running -> paused  (pause request: checkpoint + park, engine released)
//	paused  -> queued  (resume request: restore + re-admit)
//	queued | running | paused -> canceled
//
// completed, failed and canceled are terminal.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// Run is one admitted simulation. All mutable fields are guarded by mu;
// the OnStep producer (rank 0's goroutine inside the engine) and any
// number of HTTP stream consumers synchronize only through it, never
// through engine internals — the engine's own Stats slices are never
// handed out (see the Engine facade's copy semantics).
type Run struct {
	ID   string
	Spec RunSpec

	dir string // private checkpoint directory

	ctx    context.Context // canceled by DELETE or server shutdown
	cancel context.CancelFunc

	sink func(permcell.StepStats) // WithOnStep target: onStep, or a test's wrapper of it

	// sab is the run-owned one-shot sabotage script: the same pointer is
	// threaded through every engine incarnation (supervisor rollbacks and
	// pause/resume restores), so the fault fires exactly once per run.
	sab *permcell.Sabotage

	mu      sync.Mutex
	state   State
	err     string
	doneAt  time.Time // when the run entered a terminal state (janitor clock)
	pauseRq bool      // pause requested; worker parks after the step in flight
	done    int       // completed simulation steps
	recs    []metrics.StepRecord
	changed chan struct{} // closed and replaced on every new record and state change

	// Per-run exposition state (GET /metrics).
	cum        metrics.Cumulative
	lastRatio  float64
	lastEff    float64
	supervisor *permcell.SupervisorReport
}

func newRun(id string, spec RunSpec, dir string, parent context.Context) *Run {
	ctx, cancel := context.WithCancel(parent)
	r := &Run{
		ID: id, Spec: spec, dir: dir,
		ctx: ctx, cancel: cancel,
		state:   StateQueued,
		changed: make(chan struct{}),
	}
	r.sink = r.onStep
	if sb := spec.Sabotage; sb != nil {
		r.sab = sb.script()
	}
	return r
}

// notify wakes every waiter. Callers must hold mu.
func (r *Run) notify() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// setState moves the run to s (recording err on failure) and wakes
// waiters.
func (r *Run) setState(s State, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Terminal() {
		return // terminal states are sticky (e.g. cancel raced completion)
	}
	r.state = s
	if s.Terminal() {
		r.doneAt = time.Now()
	}
	if err != nil {
		r.err = err.Error()
	}
	r.notify()
}

// onStep is the engine's WithOnStep sink: it folds the step into the
// run's record log and counters. It runs on rank 0's goroutine inside a
// Step, so it must not call back into the engine; it only touches Run state
// under mu.
func (r *Run) onStep(st permcell.StepStats) {
	rec := stepRecord(&r.Spec, st)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
	r.cum.Add(st.StepWallAve, st.Phases)
	r.cum.ObserveTransport(st.SentFrames, st.SentBytes)
	r.lastRatio = rec.LoadRatio
	r.lastEff = rec.Efficiency
	r.notify()
}

// stepRecord is the service's streamed record for one step: the shared
// StepStats.Record mapping with the spec's pillar cross-section. The soak
// test builds its solo reference traces through the same function, so a
// served run and a direct facade run of the same spec compare bit-for-bit.
func stepRecord(spec *RunSpec, st permcell.StepStats) metrics.StepRecord {
	if kinds[spec.Kind] == permcell.KindDLB {
		return st.Record(spec.M)
	}
	return st.Record(0)
}

// snapshot returns the fields the status endpoint reports.
func (r *Run) snapshot() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunStatus{
		ID:      r.ID,
		State:   r.state,
		Error:   r.err,
		Steps:   r.Spec.Steps,
		Done:    r.done,
		Records: len(r.recs),
	}
}

// RunStatus is the JSON shape of GET /runs/{id} and the elements of
// GET /runs.
type RunStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Steps is the requested total; Done the completed simulation steps.
	Steps int `json:"steps"`
	Done  int `json:"done"`
	// Records is the number of step records available to stream.
	Records int `json:"records"`
}

// wait blocks until the run's observable state changes relative to the
// given generation channel, or ctx is done.
func (r *Run) await(ch <-chan struct{}, ctx context.Context) bool {
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// view returns the current record count, state and change channel in one
// consistent picture (the stream handler's polling primitive).
func (r *Run) view() (n int, st State, ch chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs), r.state, r.changed
}

// records returns recs[from:to) copied out under the lock.
func (r *Run) records(from, to int) []metrics.StepRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metrics.StepRecord(nil), r.recs[from:to]...)
}
