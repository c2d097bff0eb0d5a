package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"permcell"
	"permcell/internal/checkpoint"
)

// Config sizes the service.
type Config struct {
	// Dir is the service data directory; each run checkpoints into its own
	// subdirectory Dir/<runID> (never shared: the latest/previous rotation
	// is per-run state). Required.
	Dir string
	// Workers is the worker-pool size — the goroutine/CPU budget: at most
	// Workers runs execute concurrently; each parallel run additionally
	// spawns its spec's P PE goroutines. 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission FIFO; a POST /runs beyond it is
	// rejected with 429 rather than queued unboundedly. 0 = 64.
	QueueDepth int
	// MaxParticles caps one run's estimated particle count N and, the same
	// cap, its cell count (the memory proxies: per-run state is O(N) plus
	// O(cells)); larger specs are rejected with 413. 0 = 200_000.
	MaxParticles int
	// Retention is how long a terminal run (completed, failed or canceled)
	// stays addressable after finishing. Once it expires, the janitor
	// removes the run — its record log, status, and private checkpoint
	// directory — and GET /runs/{id} answers 404. 0 = keep forever.
	Retention time.Duration
	// SweepEvery is the janitor's sweep cadence. 0 = Retention/4, clamped
	// to [1s, 1min]. Ignored when Retention is 0.
	SweepEvery time.Duration
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxParticles <= 0 {
		c.MaxParticles = 200_000
	}
	if c.Retention > 0 && c.SweepEvery <= 0 {
		c.SweepEvery = c.Retention / 4
		if c.SweepEvery < time.Second {
			c.SweepEvery = time.Second
		}
		if c.SweepEvery > time.Minute {
			c.SweepEvery = time.Minute
		}
	}
}

// Admission errors (the HTTP layer maps them to status codes).
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrTooLarge  = errors.New("serve: run exceeds the per-run particle cap")
	ErrClosed    = errors.New("serve: server is shutting down")
)

// NotFoundError reports an unknown run ID.
type NotFoundError struct{ ID string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("serve: no run %q", e.ID) }

// ConflictError reports a lifecycle action invalid in the run's current
// state (e.g. pausing a queued run).
type ConflictError struct {
	ID    string
	State State
	Want  string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("serve: run %s is %s (want %s)", e.ID, e.State, e.Want)
}

// Server multiplexes concurrent simulations over one process. Create with
// New, serve Handler(), stop with Shutdown.
type Server struct {
	cfg Config

	ctx    context.Context // parent of every run context
	cancel context.CancelFunc

	queue chan *Run
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    int
	runs   map[string]*Run

	// Service-level counters (GET /metrics).
	admitted int64
	rejected map[string]int64 // reason -> count
	reaped   int64            // terminal runs removed by the janitor
}

// New creates the service and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg.normalize()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Run, cfg.QueueDepth),
		runs:   make(map[string]*Run),
		rejected: map[string]int64{
			"invalid": 0, "too_large": 0, "queue_full": 0,
		},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Retention > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// janitor periodically reaps terminal runs past their retention.
func (s *Server) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			s.sweep(now)
		}
	}
}

// sweep removes every terminal run whose retention expired as of now,
// including its private checkpoint directory, and returns how many it
// reaped. Only terminal runs are eligible, so no worker is executing a
// reaped run; a canceled run still parked in the admission queue may be
// reaped first, in which case the worker later drains a dangling handle
// whose canceled-context fast path touches no disk state.
func (s *Server) sweep(now time.Time) int {
	s.mu.Lock()
	var victims []*Run
	for id, r := range s.runs {
		r.mu.Lock()
		expired := r.state.Terminal() && !r.doneAt.IsZero() && now.Sub(r.doneAt) >= s.cfg.Retention
		r.mu.Unlock()
		if expired {
			victims = append(victims, r)
			delete(s.runs, id)
		}
	}
	s.reaped += int64(len(victims))
	s.mu.Unlock()

	for _, r := range victims {
		os.RemoveAll(r.dir)
	}
	return len(victims)
}

// Shutdown stops admission, cancels every live run and waits (bounded by
// ctx) for the workers to finish tearing them down. Every caller waits for
// the same drain under its own ctx; only the first stops admission.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()

	if first {
		s.cancel()     // every run context is a child: running engines stop at the next step
		close(s.queue) // workers drain the queue (canceled runs fall through) and exit
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit validates and admits a run, returning its ID. The error is one of
// the admission errors or a validation error.
func (s *Server) Submit(spec RunSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		s.countReject("invalid")
		return "", err
	}
	if sz := spec.spec().Size(); max(sz.N, sz.C) > s.cfg.MaxParticles {
		s.countReject("too_large")
		return "", fmt.Errorf("%w: %d particles in %d cells, cap %d on each", ErrTooLarge, sz.N, sz.C, s.cfg.MaxParticles)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	// The nonblocking send happens under s.mu: Shutdown flips closed under
	// the same mutex before closing the queue, so a send can never race the
	// close.
	s.seq++
	id := fmt.Sprintf("r%06d", s.seq)
	r := newRun(id, spec, filepath.Join(s.cfg.Dir, id), s.ctx)
	select {
	case s.queue <- r:
		s.runs[id] = r
		s.admitted++
		s.mu.Unlock()
		return id, nil
	default:
		s.rejected["queue_full"]++
		s.mu.Unlock()
		r.cancel()
		return "", ErrQueueFull
	}
}

func (s *Server) countReject(reason string) {
	s.mu.Lock()
	s.rejected[reason]++
	s.mu.Unlock()
}

// Get returns the run with the given ID.
func (s *Server) Get(id string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, &NotFoundError{ID: id}
	}
	return r, nil
}

// List returns every run's status, ordered by ID.
func (s *Server) List() []RunStatus {
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].ID < runs[j].ID })
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.snapshot()
	}
	return out
}

// Pause asks a running run to checkpoint and park after the step in
// flight. The transition is asynchronous: the run reports StatePaused once
// the checkpoint is written and the engine released. A run whose last step
// is already done completes instead: there is nothing left to resume.
func (s *Server) Pause(id string) error {
	r, err := s.Get(id)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateRunning {
		return &ConflictError{ID: id, State: r.state, Want: "running"}
	}
	r.pauseRq = true
	return nil
}

// Resume re-admits a paused run through the queue; it restores from its
// own checkpoint directory when a worker picks it up.
func (s *Server) Resume(id string) error {
	r, err := s.Get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Lock order is always s.mu then r.mu; the send stays under s.mu for
	// the same reason as in Submit.
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StatePaused {
		return &ConflictError{ID: id, State: r.state, Want: "paused"}
	}
	select {
	case s.queue <- r:
		r.state = StateQueued
		r.pauseRq = false
		r.notify()
		return nil
	default:
		return ErrQueueFull
	}
}

// Cancel terminates a run in any non-terminal state. Queued runs are
// skipped by the workers; running runs stop after the step in flight;
// paused runs just flip to canceled.
func (s *Server) Cancel(id string) error {
	r, err := s.Get(id)
	if err != nil {
		return err
	}
	r.cancel()
	// A queued or paused run has no worker to move it to the terminal
	// state; do it here. A running run's worker observes the canceled
	// context and finalizes the engine itself.
	r.mu.Lock()
	if r.state == StateQueued || r.state == StatePaused {
		r.state = StateCanceled
		r.doneAt = time.Now()
		r.notify()
	}
	r.mu.Unlock()
	return nil
}

// worker executes queued runs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		s.execute(r)
	}
}

// execute drives one run from admission (or resume) to parked or terminal
// state. Any panic escaping the engine (e.g. an unsupervised serial run's
// driver-side panic) is confined to this run: it becomes StateFailed, the
// worker survives, and no neighbor is touched.
func (s *Server) execute(r *Run) {
	if r.ctx.Err() != nil {
		r.setState(StateCanceled, nil)
		return
	}

	defer func() {
		if v := recover(); v != nil {
			r.setState(StateFailed, fmt.Errorf("serve: run panicked: %v", v))
		}
	}()

	resuming := r.snapshotDone() > 0 || r.hasCheckpoint()
	var eng permcell.Engine
	var err error
	opts := r.Spec.options(r.dir, r.sab, r.sink)
	if resuming {
		eng, err = permcell.Restore(r.dir, opts...)
	} else {
		eng, err = permcell.Build(r.Spec.spec(), opts...)
	}
	if err != nil {
		r.setState(StateFailed, err)
		return
	}
	r.setState(StateRunning, nil)

	finish := func(final State, ferr error) {
		if _, rerr := eng.Result(); rerr != nil && ferr == nil && final != StateCanceled {
			final, ferr = StateFailed, rerr
		}
		if rep := permcell.SupervisionReport(eng); rep != nil {
			r.recordSupervision(rep)
		}
		r.setState(final, ferr)
	}

	for done := r.snapshotDone(); ; done++ {
		// One lock per step publishes the count and reads the pause
		// request; no waiter blocks on Done, so nothing is notified.
		r.mu.Lock()
		r.done = done
		pause := r.pauseRq // Resume clears it
		r.mu.Unlock()

		if r.ctx.Err() != nil {
			finish(StateCanceled, nil)
			return
		}
		if done >= r.Spec.Steps {
			finish(StateCompleted, nil)
			return
		}
		if pause {
			if err := permcell.CheckpointNow(eng); err != nil {
				finish(StateFailed, fmt.Errorf("serve: pause checkpoint: %w", err))
				return
			}
			// Park: release the engine (and its PE goroutines); the
			// supervision totals so far stay with the run.
			finish(StatePaused, nil)
			return
		}
		// One step at a time: pause and cancel land at the next step.
		if err := eng.Step(1); err != nil {
			finish(StateFailed, err)
			return
		}
	}
}

func (r *Run) snapshotDone() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// hasCheckpoint reports whether the run's directory already holds a
// checkpoint (a paused run that never stepped still wrote its pause
// checkpoint; a fresh run's directory is empty).
func (r *Run) hasCheckpoint() bool {
	_, err := os.Stat(filepath.Join(r.dir, checkpoint.LatestName))
	return err == nil
}

// recordSupervision folds one engine incarnation's supervision totals into
// the run's cumulative recovery counters (each incarnation — one per
// pause/resume cycle — reports from zero, so summation is exact).
func (r *Run) recordSupervision(rep *permcell.SupervisorReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.supervisor = rep
	if r.cum.Recovery == nil {
		r.cum.Recovery = &permcell.SupervisorReport{}
	}
	r.cum.Recovery.Add(rep)
}
