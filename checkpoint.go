package permcell

import (
	"fmt"
	"os"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/mdserial"
	"permcell/internal/potential"
	"permcell/internal/units"
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

func newCkptWriter(o Options, meta checkpoint.Meta) ckptWriter {
	return ckptWriter{every: o.ckptEvery, dir: o.ckptDir, meta: meta}
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

// write snapshots eng and saves the checkpoint.
func (w *ckptWriter) write(eng coreEngine) error {
	if !w.active() {
		return fmt.Errorf("permcell: no checkpoint directory configured (use WithCheckpoint)")
	}
	st, err := eng.Snapshot()
	if err != nil {
		return err
	}
	return w.save(st.Step, st.CommMsgs, st.CommBytes, st.Frames)
}

// save fills the Meta template's per-snapshot fields and writes the file
// (atomically, rotating latest -> previous).
func (w *ckptWriter) save(step int, msgs, bytes int64, frames []checkpoint.Frame) error {
	if !w.active() {
		return fmt.Errorf("permcell: no checkpoint directory configured (use WithCheckpoint)")
	}
	m := w.meta
	m.Version = checkpoint.FormatVersion
	m.Step = step
	m.CommMsgs, m.CommBytes = msgs, bytes
	if _, err := checkpoint.Save(w.dir, &m, frames); err != nil {
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
// time step, shard count, balancer — travels inside the checkpoint and is
// restored from it; options that would change the physics (WithSeed,
// WithDt, WithShards, WithWells, WithHysteresis, WithStatsEvery) are
// ignored. The balancer is checked rather than ignored: a caller that
// explicitly requests one (WithBalancer, or the WithDLB sugar) must name
// the same strategy the checkpoint was written under, otherwise Restore
// refuses — resuming a trajectory under a different balancer would
// silently change the continuation's physics. Runtime options (WithOnStep,
// WithDiscardStats, WithMetrics,
// WithFaultPlan, WithWatchdog, WithCheckpoint) apply normally, so a
// restored run can keep checkpointing into the same directory. The restored
// engine's subsequent trace is bit-identical to the uninterrupted run's:
// step counters continue from the snapshot point, per-PE particle order and
// DLB cell ownership are reinstated exactly, and cumulative communication
// counters carry over.
func Restore(path string, opts ...Option) (Engine, error) {
	o := buildOptions(opts)
	if err := checkTransport(o, true); err != nil {
		return nil, err
	}
	if o.supervisor != nil {
		// Peek at the meta for the absolute start step, then hand the
		// supervisor a rebuilder so rollbacks can reconstruct the engine.
		meta, _, err := loadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		return supervised(o, meta.Step, func(oin Options) (Engine, error) {
			return restoreOpts(path, oin)
		})
	}
	return restoreOpts(path, o)
}

// restoreOpts is Restore with an already-resolved Options value.
func restoreOpts(path string, o Options) (Engine, error) {
	meta, frames, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return restoreState(meta, frames, o)
}

// metaBalancer decodes the balancer identity a checkpoint was written
// under. Checkpoints predating the Balancer field carry only the DLB flag,
// which identifies the permanent-cell scheme with the stored hysteresis.
func metaBalancer(meta *checkpoint.Meta) (Balancer, error) {
	if meta.Balancer != "" {
		b, err := balance.Decode(meta.Balancer)
		if err != nil {
			return nil, fmt.Errorf("permcell: checkpoint balancer: %w", err)
		}
		return b, nil
	}
	if meta.DLB {
		return PermanentCell(PermanentCellConfig{Hysteresis: meta.Hysteresis}), nil
	}
	return nil, nil
}

// restoreState rebuilds an engine from loaded checkpoint contents. The
// supervisor calls it directly after vetting a specific file (so its
// latest-vs-previous preference is not overridden by LoadDir's own
// fallback).
func restoreState(meta *checkpoint.Meta, frames []checkpoint.Frame, o Options) (Engine, error) {
	// Physics options come from the file, not the caller (see doc comment)
	// — with one hard check: the balancer is part of the run identity, and
	// resuming a trajectory under a different strategy would silently
	// change the physics of the continuation. A caller that explicitly
	// requested a balancer (WithBalancer or the WithDLB sugar) must match
	// the file.
	fileB, err := metaBalancer(meta)
	if err != nil {
		return nil, err
	}
	if o.balancer != nil && BalancerName(o.balancer) != BalancerName(fileB) {
		return nil, fmt.Errorf("permcell: checkpoint was written under balancer %q; refusing to resume under %q (drop WithBalancer/WithDLB to resume, or restore a matching checkpoint)",
			BalancerName(fileB), BalancerName(o.balancer))
	}
	o.balancer = fileB
	o.wells = meta.Wells
	o.wellK = meta.WellK
	o.hysteresis = meta.Hysteresis
	o.seed = meta.Seed
	o.dt = meta.Dt
	o.shards = meta.Shards
	o.statsEvery = meta.StatsEvery
	if o.statsEvery < 1 {
		o.statsEvery = 1
	}
	st := &checkpoint.EngineState{
		Step:      meta.Step,
		Frames:    frames,
		CommMsgs:  meta.CommMsgs,
		CommBytes: meta.CommBytes,
	}
	switch meta.Kind {
	case checkpoint.KindDLB:
		return startParallel(metaTemplate(meta), st, o)
	case checkpoint.KindStatic:
		return startStatic(metaTemplate(meta), st, o)
	case checkpoint.KindSerial:
		return restoreSerial(meta, st, o)
	default:
		return nil, fmt.Errorf("permcell: checkpoint has unknown engine kind %q", meta.Kind)
	}
}

func loadCheckpoint(path string) (*checkpoint.Meta, []checkpoint.Frame, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, fmt.Errorf("permcell: %w", err)
	}
	if fi.IsDir() {
		meta, frames, _, err := checkpoint.LoadDir(path)
		return meta, frames, err
	}
	meta, frames, err := checkpoint.Load(path)
	return meta, frames, err
}

func restoreSerial(meta *checkpoint.Meta, st *checkpoint.EngineState, o Options) (Engine, error) {
	if len(st.Frames) != 1 {
		return nil, fmt.Errorf("permcell: serial checkpoint has %d frames, want 1", len(st.Frames))
	}
	set, err := st.Frames[0].SetOf()
	if err != nil {
		return nil, fmt.Errorf("permcell: %w", err)
	}
	// buildSystem regenerates the box, grid and well placement from the
	// stored seed; its particle set is discarded in favor of the frame's.
	sys, g, ext, err := buildSystem(meta.NC, meta.Rho, o)
	if err != nil {
		return nil, err
	}
	lj, err := potential.NewLJ(1, 1, units.PaperCutoff, true)
	if err != nil {
		return nil, err
	}
	eng, err := mdserial.New(mdserial.Config{
		Box: sys.Box, Pair: lj, Ext: ext,
		Dt: o.dtOrDefault(), Grid: g, Shards: meta.Shards, Metrics: o.metrics,
		StartStep: meta.Step,
	}, set)
	if err != nil {
		return nil, fmt.Errorf("permcell: %w", err)
	}
	return &serialEngine{eng: eng, o: o, ckpt: newCkptWriter(o, metaTemplate(meta))}, nil
}

// metaTemplate strips the per-snapshot fields from a loaded Meta so the
// restored engine's own writer refills them at each save.
func metaTemplate(meta *checkpoint.Meta) checkpoint.Meta {
	m := *meta
	m.Step = 0
	m.CommMsgs, m.CommBytes = 0, 0
	m.RNG = nil
	return m
}
