// Package distrib runs the parallel engine across OS processes: a
// coordinator (inside mdrun, or any facade caller using the tcp
// transport) listens on loopback TCP, spawns worker processes
// (cmd/mdrank) or goroutine-hosted workers, deals each a contiguous
// block of ranks, and drives their core.NewPartial engines in lockstep over
// the stepwise protocol. Everything travels as length-prefixed frames
// (internal/transport: uint32 length, kind, src, dst, tag, payload) through
// a star topology: every worker holds one connection to the coordinator.
//
// Two planes share the links. The data plane is the per-step rank-to-rank
// traffic: KindData frames whose payload is a type byte plus a fixed
// little-endian layout (the table is in internal/core/wire.go), encoded
// straight into the sending link's write buffer, forwarded by the
// coordinator by header only — payloads are never decoded in transit — and
// decoded once, by the destination worker's reader. The control plane is
// the spec and the acks (Spec, StepAck, SnapAck, ResultAck): a few frames
// per command, gob-encoded because their types are deep and cold, on one
// gob stream per link direction (controlOut, controlIn), so a type's
// descriptors cross once per connection rather than once per ack. An ack's
// failure is an error value: the supervised failure classes are registered
// with gob and reach the coordinator's errors.As as themselves, anything
// else crosses as its message (wireErr). A worker's reader queues control
// frames and its own terminal error on one ordered channel, so a command
// that arrived before the link failed is always served and acked first.
//
// A link pays per burst, not per frame. A worker's data frames queue in
// its link's write buffer and leave when one of its ranks is about to
// block (comm.Remote.Flush); the hub queues what it forwards and flushes
// the links it queued to once the source link has nothing more buffered
// to read; control frames flush on send.
//
// Determinism contract: the per-(src,tag) FIFO delivery order is
// preserved end to end (sender goroutine order -> connection write mutex
// -> per-connection router -> single reader inject), and the fault
// layer's per-link RNG streams are placement-independent, so the same
// seed produces bit-identical StepRecord traces on the in-process and
// TCP transports — enforced by the cross-transport golden test.
package distrib

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/core"
	"permcell/internal/supervise"
)

// WireSpec is what a coordinator ships to each worker: the run identity —
// the same checkpoint.Meta the facade starts from and every checkpoint
// carries — plus the runtime policy and the optional restore state. The
// worker builds its system from the Meta through internal/runspec exactly
// as the facade does in-process, so both transports start from
// bit-identical initial conditions.
type WireSpec struct {
	// Meta is the run identity (its per-snapshot fields are unused here:
	// the restore point travels in Restore).
	Meta checkpoint.Meta

	// Runtime is the run's runtime policy, the core.Config half the
	// worker's engine takes as is. Start ships Sabotage, the scripted
	// one-shot fault, to the worker hosting Sabotage.Rank only, and only
	// while the caller's script is unspent; the decoded copy starts armed.
	core.Runtime

	// HeartbeatEvery and HeartbeatMisses are the liveness policy of every
	// coordinator<->worker link, at both ends: a heartbeat every
	// HeartbeatEvery, and a link with no frame for HeartbeatEvery x
	// HeartbeatMisses is declared dead (FailHeartbeat). Start fills values
	// <= 0 with the defaults.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int

	// Restore, when non-nil, resumes from a distributed snapshot. Every
	// worker receives the full state: rebuilding the global column->host
	// map (and validating the partition) needs all frames, and the local
	// PEs take their own frames from it.
	Restore *checkpoint.EngineState

	// Proc is this worker's index; Ranks the block of ranks it hosts.
	Proc  int
	Ranks []int
}

// StepAck is a worker's reply to a Step command (and, with zero stats,
// the ready signal after engine construction). Err is the failure as
// wireErr ships it: a supervised failure class (guard violation, rank
// panic, deadlock) as itself, so the coordinator-side supervisor classifies
// a worker-internal failure exactly like an in-process one.
type StepAck struct {
	Proc      int
	Stats     []core.StepStats // new records since the last ack (rank-0 proc only)
	Transport comm.TransportStats
	Msgs      int64
	Bytes     int64
	Err       error
}

// SnapAck carries one worker's checkpoint frames and its share of the
// cumulative comm counters.
type SnapAck struct {
	Proc   int
	Frames []checkpoint.Frame
	Msgs   int64
	Bytes  int64
	Err    error
}

// ResultAck is the final handshake: the rank-0 process carries the
// gathered final particles, every process its comm counters and fault
// stats. Final is a checkpoint.Frame, not the particle.Set it rebuilds, so
// it crosses as the frame's fixed binary layout rather than gob's
// per-float encoding. FaultEvents are not gathered across processes (the
// per-event log is a single-process debugging aid; the counters are exact
// either way).
type ResultAck struct {
	Proc   int
	Final  *checkpoint.Frame
	Msgs   int64
	Bytes  int64
	Faults comm.FaultStats
	Err    error
}

// wireClasses are the failure classes an ack's Err carries as themselves,
// each gob-registered; any other error crosses as a *workerError.
var wireClasses = []func(error) error{
	wireClass[*supervise.GuardViolation](),
	wireClass[*supervise.RankFailure](),
	wireClass[*comm.DeadlockError](),
}

// wireClass registers T with gob and returns the matcher wireErr applies:
// the T err is or wraps, else nil.
func wireClass[T error]() func(error) error {
	var zero T
	gob.Register(zero)
	return func(err error) error {
		var t T
		if errors.As(err, &t) {
			return t
		}
		return nil
	}
}

func init() { gob.Register(&workerError{}) }

// workerError is a worker-side failure outside the supervised classes,
// carried across the control plane by its message.
type workerError struct {
	Proc int
	Msg  string
}

func (e *workerError) Error() string { return fmt.Sprintf("distrib: worker %d: %s", e.Proc, e.Msg) }

// wireErr is err as worker proc's acks carry it: nil, the supervised
// failure class it is or wraps, or its message.
func wireErr(proc int, err error) error {
	if err == nil {
		return nil
	}
	for _, class := range wireClasses {
		if typed := class(err); typed != nil {
			return typed
		}
	}
	return &workerError{Proc: proc, Msg: err.Error()}
}

// controlOut is the sending end of one link direction's control plane: a
// single gob stream for the connection's lifetime, so each type's
// descriptors cross once, ahead of its first value, and every later frame
// carries values only. Frames must reach the far end in encode order.
// Data frames never come here: their payloads are transport's typed codec.
type controlOut struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

func newControlOut() *controlOut {
	c := &controlOut{}
	c.enc = gob.NewEncoder(&c.buf)
	return c
}

// encode appends v to the stream and returns the frame payload carrying
// it, valid until the next encode. If encoding fails, the type descriptors
// gob already wrote stay buffered and lead the next payload: the far end
// needs them before any later value of those types.
func (c *controlOut) encode(v any) ([]byte, error) {
	if err := c.enc.Encode(v); err != nil {
		return nil, fmt.Errorf("distrib: encode control payload: %w", err)
	}
	return c.buf.Next(c.buf.Len()), nil
}

// controlIn is the receiving end: one decoder fed every control frame's
// payload in arrival order. The frame kind names the type to decode into.
// After an error the stream is out of step and the link is done.
type controlIn struct {
	r   bytes.Reader
	dec *gob.Decoder
}

func newControlIn() *controlIn {
	c := &controlIn{}
	c.dec = gob.NewDecoder(&c.r) // a ByteReader: gob reads no further than it must
	return c
}

// decode decodes the value one frame's payload carries into v, which must
// use up the payload exactly. The decoder reads the payload in place.
func (c *controlIn) decode(payload []byte, v any) error {
	c.r.Reset(payload)
	err := c.dec.Decode(v)
	if err == nil && c.r.Len() > 0 {
		err = fmt.Errorf("%d bytes left over", c.r.Len())
	}
	if err != nil {
		return fmt.Errorf("distrib: decode control payload: %w", err)
	}
	return nil
}

// RanksOf deals P ranks to W processes in contiguous blocks: process i
// hosts [i*P/W, (i+1)*P/W). Blocks (not strides) keep torus-neighbor
// ranks co-resident where possible, which turns most traffic into
// in-process channel delivery.
func RanksOf(p, w, i int) []int {
	lo, hi := i*p/w, (i+1)*p/w
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}
