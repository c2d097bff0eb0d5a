// Package checkpoint is the distributed checkpoint/restart layer shared by
// every engine (internal/core over the column ledger or a static
// decomposition, internal/mdserial via the facade). A checkpoint is one
// file holding a Meta section — the run's identity: engine kind, paper
// coordinates, physics options, step counter, cumulative communication
// counters — followed by one Frame per PE: that PE's particle arrays *in
// their live in-memory order* plus the columns it currently hosts.
// Preserving the per-PE array order is what makes a restored run
// bit-identical to the uninterrupted one: cell-list binning and force
// accumulation follow array order, so a reordered restore would change
// floating-point summation order.
//
// The file format is versioned and CRC-checked per section (file.go): the
// Meta section is gob, so fields can be appended to the header without a
// version bump; every Frame section is the fixed little-endian layout of
// codec.go, which is also the only form a Frame is ever serialised in — gob
// defers to Frame's MarshalBinary, so the frames inside the tcp control
// plane's SnapAck, WireSpec and ResultAck are the same bytes. The writer
// emits the current version only; the reader also takes version 1, whose
// frame sections were gob. Files are written atomically (tmp + rename) with a
// retained latest/previous pair, so a process crash mid-write or a
// corrupted latest file never loses the run: the previous checkpoint still
// loads. Nothing is fsynced: that guarantee does not extend to power loss.
package checkpoint

import (
	"fmt"
	"slices"

	"permcell/internal/particle"
	"permcell/internal/vec"
)

// Engine kinds recorded in Meta.Kind.
const (
	KindDLB    = "dlb"    // internal/core: DDM / DLB-DDM parallel engine
	KindStatic = "static" // internal/core over a static decomposition (core.Config.Decomp)
	KindSerial = "serial" // internal/mdserial: serial reference engine
)

// Meta is the run identity — and therefore the checkpoint header. It is the
// one spec every engine is built from (internal/runspec reads it, the facade
// constructors and experiments.RunSpec write it, the TCP WireSpec ships it),
// so a file does not describe its run, it carries the run's own spec, plus
// the counters that continue across a restart. New fields may be appended
// without a version bump; gob decodes older headers with them zero-valued.
type Meta struct {
	// Version is the format version of the file this header was read from;
	// Encode ignores it and stamps FormatVersion.
	Version int
	// Kind is the engine kind (KindDLB, KindStatic, KindSerial).
	Kind string
	// Step is the absolute time step the snapshot was taken at.
	Step int

	// Constructor coordinates. KindDLB uses M/P/Rho (grid side m*sqrt(P));
	// KindStatic uses Shape/NC/P/Rho; KindSerial uses NC/Rho.
	M, P  int
	NC    int
	Shape int
	Rho   float64

	// Physics options — part of the run identity: restoring with different
	// values would break bit-identical resume, so they travel in the file.
	// Nothing writes DLB and Hysteresis: runspec.Balancer reads them only
	// from headers that predate Balancer, where the DLB flag named the
	// permanent-cell scheme at the stored hysteresis.
	DLB        bool
	Wells      int
	WellK      float64
	Hysteresis float64
	Seed       uint64
	Dt         float64
	StatsEvery int
	// Shards is a legacy field, written as 0: nothing sets it. Runs from
	// before intra-rank shards were retired recorded their shard count
	// here; runspec refuses a header with more than one, whose summation
	// order no longer exists.
	Shards int
	// Balancer is the encoded load-balancing strategy (balance.Encode):
	// "permcell(...)", "sfc(...)", "diffusive(...)", "none" (static DDM),
	// or "" in checkpoints predating the pluggable-balancer format. Restore
	// refuses to resume a checkpoint under a different balancer than it
	// was written with.
	Balancer string

	// Cumulative communication counters at snapshot time, so a resumed
	// run's totals continue from the interrupted run's.
	CommMsgs, CommBytes int64
}

// Frame is one PE's part of the distributed state.
type Frame struct {
	// Rank is the owning PE (0 for the serial engine).
	Rank int
	// ID/Pos/Vel are the particle arrays in the PE's live order. Forces are
	// not stored: every engine recomputes them from positions at restore,
	// exactly as it does at step 0.
	ID  []int64
	Pos []vec.V
	Vel []vec.V
	// Cols lists the columns this PE currently hosts (DLB engine only; nil
	// for the static and serial engines, whose ownership is implied by the
	// decomposition).
	Cols []int
}

// SetOf rebuilds the frame's particle set, preserving array order.
func (f *Frame) SetOf() (*particle.Set, error) {
	if err := f.rectangular(); err != nil {
		return nil, err
	}
	return &particle.Set{
		ID:  slices.Clone(f.ID),
		Pos: slices.Clone(f.Pos),
		Vel: slices.Clone(f.Vel),
		Frc: make([]vec.V, len(f.ID)),
	}, nil
}

// CaptureFrame records a particle set into fr (fresh slices, live order).
func CaptureFrame(fr *Frame, rank int, s *particle.Set, cols []int) {
	fr.Rank = rank
	fr.ID = append([]int64(nil), s.ID...)
	fr.Pos = append([]vec.V(nil), s.Pos...)
	fr.Vel = append([]vec.V(nil), s.Vel...)
	fr.Cols = append([]int(nil), cols...)
}

// CheckFinite verifies every particle in every frame has finite position
// and velocity. The supervisor runs it on a loaded checkpoint before
// restoring: a checkpoint that captured an already-corrupt state (e.g. a
// NaN that slipped in between guard passes) must be rejected so the
// rollback falls through to the previous file instead of replaying the
// corruption.
func CheckFinite(frames []Frame) error {
	for r := range frames {
		f := &frames[r]
		if err := f.rectangular(); err != nil {
			return err
		}
		for i := range f.Pos {
			if !f.Pos[i].IsFinite() || !f.Vel[i].IsFinite() {
				return fmt.Errorf("checkpoint: rank %d particle %d has non-finite state (pos=%v vel=%v)",
					f.Rank, f.ID[i], f.Pos[i], f.Vel[i])
			}
		}
	}
	return nil
}

// EngineState is the assembled distributed snapshot an engine produces
// (Engine.Snapshot) and consumes (Config.Restore): the step counter, one
// frame per rank, and the cumulative communication counters.
type EngineState struct {
	Step                int
	Frames              []Frame
	CommMsgs, CommBytes int64
}

// State pairs a loaded header with its frames: the snapshot a restore starts
// from, carrying the header's per-snapshot fields.
func (m *Meta) State(frames []Frame) *EngineState {
	return &EngineState{Step: m.Step, Frames: frames, CommMsgs: m.CommMsgs, CommBytes: m.CommBytes}
}

// Validate checks the state's structural invariants: one frame per rank in
// rank order, rectangular particle arrays, and a non-negative step.
func (st *EngineState) Validate(p int) error {
	if st.Step < 0 {
		return fmt.Errorf("checkpoint: negative step %d", st.Step)
	}
	if len(st.Frames) != p {
		return fmt.Errorf("checkpoint: %d frames for %d ranks", len(st.Frames), p)
	}
	for r := range st.Frames {
		f := &st.Frames[r]
		if f.Rank != r {
			return fmt.Errorf("checkpoint: frame %d claims rank %d", r, f.Rank)
		}
		if err := f.rectangular(); err != nil {
			return err
		}
	}
	return nil
}
