package permcell

import (
	"fmt"

	"permcell/internal/checkpoint"
	"permcell/internal/runspec"
)

// Checkpointer is implemented by every facade Engine. Checkpoint writes a
// coordinated snapshot immediately, at the current step boundary, into the
// directory configured with WithCheckpoint; it fails when no directory was
// configured. The engine remains usable afterwards.
type Checkpointer interface {
	Checkpoint() error
}

// CheckpointNow writes an immediate checkpoint for any Engine that supports
// it (all engines constructed by this package do).
func CheckpointNow(eng Engine) error {
	c, ok := eng.(Checkpointer)
	if !ok {
		return fmt.Errorf("permcell: engine does not support checkpointing")
	}
	return c.Checkpoint()
}

// ckptWriter holds a facade engine's checkpoint policy: the cadence, the
// target directory, and the Meta template carrying the run identity. The
// zero value is inert (no checkpointing).
type ckptWriter struct {
	every int
	dir   string
	meta  checkpoint.Meta
}

func (w *ckptWriter) active() bool { return w.dir != "" }

// stepWithCheckpoints advances eng by n steps, pausing at every absolute
// multiple of w.every to snapshot and write a checkpoint. With no cadence
// configured it degrades to a plain Step.
func (w *ckptWriter) stepWithCheckpoints(eng coreEngine, n int) error {
	if w.every <= 0 || !w.active() {
		return eng.Step(n)
	}
	for n > 0 {
		chunk := w.every - eng.AbsStep()%w.every
		if chunk > n {
			chunk = n
		}
		if err := eng.Step(chunk); err != nil {
			return err
		}
		n -= chunk
		if eng.AbsStep()%w.every == 0 {
			if err := w.write(eng); err != nil {
				return err
			}
		}
	}
	return nil
}

// write snapshots eng, fills the Meta template's per-snapshot fields and
// writes the file (atomically, rotating latest -> previous).
func (w *ckptWriter) write(eng coreEngine) error {
	if !w.active() {
		return fmt.Errorf("permcell: no checkpoint directory configured (use WithCheckpoint)")
	}
	st, err := eng.Snapshot()
	if err != nil {
		return err
	}
	m := w.meta
	m.Step = st.Step
	m.CommMsgs, m.CommBytes = st.CommMsgs, st.CommBytes
	if _, err := checkpoint.Save(w.dir, &m, st.Frames); err != nil {
		return fmt.Errorf("permcell: writing checkpoint: %w", err)
	}
	return nil
}

// Restore reconstructs an Engine from a checkpoint written under
// WithCheckpoint (or CheckpointNow). path may be the checkpoint file itself
// or the checkpoint directory, in which case the latest checkpoint is used
// and, should it fail its integrity checks, the retained previous one.
//
// The run identity — engine kind, paper coordinates, physics options, seed,
// time step, balancer — travels inside the checkpoint and is restored from
// it; options that would change the physics (WithSeed, WithDt, WithWells,
// WithStatsEvery) are ignored. A header that records more than one
// intra-rank shard is refused: that run's summation order no longer
// exists. The balancer is checked rather than ignored: a caller that
// explicitly requests one with WithBalancer must name the same strategy the
// checkpoint was written under, otherwise Restore refuses — resuming a
// trajectory under a different balancer would silently change the
// continuation's physics.
// Runtime options (WithOnStep, WithDiscardStats, WithMetrics,
// WithFaultPlan, WithWatchdog, WithCheckpoint, WithSabotage, WithTransport,
// WithSupervisor) apply normally and are validated against the loaded
// identity once, here, so a restored run can keep checkpointing into the
// same directory, move between transports, or run supervised — its
// rollbacks then rebuild from the supervisor's own copy of the identity
// without coming back through Restore. The restored
// engine's subsequent trace is bit-identical to the uninterrupted run's:
// step counters continue from the snapshot point, per-PE particle order and
// DLB cell ownership are reinstated exactly, and cumulative communication
// counters carry over.
func Restore(path string, opts ...Option) (Engine, error) {
	meta, frames, err := checkpoint.LoadPath(path)
	if err != nil {
		return nil, fmt.Errorf("permcell: %w", err)
	}
	o := buildOptions(opts)
	// The loaded Meta is the run identity; the caller's physics options are
	// not consulted (see doc comment) — with one hard check: resuming a
	// trajectory under a different balancer would silently change the
	// physics of the continuation, so a caller that explicitly requested
	// one with WithBalancer must match the file.
	fileB, err := runspec.Balancer(meta)
	if err != nil {
		return nil, fmt.Errorf("permcell: checkpoint balancer: %w", err)
	}
	if o.balancer != nil && BalancerName(o.balancer) != BalancerName(fileB) {
		return nil, fmt.Errorf("permcell: checkpoint was written under balancer %q; refusing to resume under %q (drop WithBalancer to resume, or restore a matching checkpoint)",
			BalancerName(fileB), BalancerName(o.balancer))
	}
	// The per-snapshot fields move into the engine state; what remains is
	// the template the restored engine's own writer refills at each save.
	tmpl := *meta
	tmpl.Step, tmpl.CommMsgs, tmpl.CommBytes = 0, 0, 0
	return launch(tmpl, meta.State(frames), o)
}
