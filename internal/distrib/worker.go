package distrib

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/core"
	"permcell/internal/runspec"
	"permcell/internal/supervise"
	"permcell/internal/transport"
)

// peerRemote adapts the coordinator connection to comm.Remote: every
// cross-process send is encoded by its payload codec and queued onto the
// single peer, and Flush writes out whatever every local rank queued. The
// Peer's write mutex serializes concurrent senders, preserving each
// goroutine's program-order send sequence — the per-(src,tag) FIFO the
// delivery contract requires. The counters are wire bytes of data frames
// only, length prefix and header included; heartbeats and control frames
// stay out, so the count is a function of the seed and per-process
// transport stats sum to placement-independent totals.
type peerRemote struct {
	peer   *transport.Peer
	frames atomic.Int64
	bytes  atomic.Int64
}

func (r *peerRemote) Deliver(src, dst, tag int, data any, size int64) error {
	wire, err := r.peer.SendData(src, dst, tag, data)
	if err != nil {
		return fmt.Errorf("distrib: data frame (src %d dst %d tag %d): %w", src, dst, tag, err)
	}
	r.frames.Add(1)
	r.bytes.Add(int64(wire))
	return nil
}

func (r *peerRemote) Flush() error { return r.peer.Flush() }

func (r *peerRemote) Stats() (frames, bytes int64) {
	return r.frames.Load(), r.bytes.Load()
}

// RunWorker services one worker process (or goroutine-hosted worker)
// on an established coordinator connection: handshake, build the
// partial engine from the wire spec, then serve Step/Snapshot/Finish
// commands until the final ResultAck. Returns on protocol completion
// (nil) or the first connection/engine fault.
//
// Liveness is symmetric: once the spec arrives the worker heartbeats at
// the spec's cadence and arms the same read window on its own receives,
// so a dead or wedged coordinator kills the worker within the window
// instead of leaving an orphan process holding the engine.
func RunWorker(conn net.Conn) error {
	peer := transport.NewPeer(conn)
	defer peer.Close()

	if err := peer.Send(transport.Frame{Kind: transport.KindHello}); err != nil {
		return fmt.Errorf("distrib: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	fr, err := peer.Recv()
	if err != nil {
		return fmt.Errorf("distrib: await spec: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if fr.Kind != transport.KindSpec {
		return fmt.Errorf("distrib: expected spec frame, got kind %d", fr.Kind)
	}
	var spec WireSpec
	if err := newControlIn().decode(fr.Payload, &spec); err != nil {
		return fmt.Errorf("distrib: decode spec: %w", err)
	}

	// Arm liveness before engine construction: the coordinator's read
	// window is already ticking, so heartbeats must flow while NewPartial
	// builds (which can be slow for large systems). hbPause models a
	// stalled process for SabotageWorkerStall — a SIGSTOP'd worker's
	// heartbeat goroutine stops too. Start always fills the liveness
	// policy; a spec dealt without one (a bare in-memory link) runs without
	// liveness.
	var hbPause atomic.Bool
	hbStop := make(chan struct{})
	defer close(hbStop)
	if spec.HeartbeatEvery > 0 {
		window := spec.HeartbeatEvery * time.Duration(spec.HeartbeatMisses)
		peer.SetTimeouts(window, window)
		go heartbeat(peer, spec.HeartbeatEvery, int32(spec.Proc), hbStop, &hbPause)
	}

	acks := newControlOut()
	sendAck := func(kind byte, ack any) error {
		payload, perr := acks.encode(ack)
		if perr != nil {
			return perr
		}
		return peer.Send(transport.Frame{Kind: kind, Payload: payload})
	}

	// The rank-0 process buffers one batch's records for its step ack;
	// OnStep fires inside part.Step, so the buffer is read after it.
	var batch []core.StepStats
	part, err := newPartialFromSpec(&spec, peer, func(st core.StepStats) { batch = append(batch, st) })
	if err != nil {
		// Report the construction failure as the ready ack; the
		// coordinator fails Start with this message.
		_ = sendAck(transport.KindStepAck, StepAck{Proc: spec.Proc, Err: wireErr(spec.Proc, err)})
		return err
	}
	if err := sendAck(transport.KindStepAck, StepAck{Proc: spec.Proc}); err != nil {
		return err
	}

	// Reader goroutine: the only consumer of the connection from here on.
	// Data frames are decoded by their payload codec and injected into the
	// partial world immediately (PEs block on them mid-batch; the decoded
	// value is a copy, so the peer may take its read buffer back at the
	// next Recv); heartbeats are dropped after proving liveness (the read
	// deadline is armed per read from the connection); control frames own
	// their payload and queue for the serve loop, and so does the reader's
	// terminal error, behind them: a command that arrived before the link
	// failed is always served, and acked, first.
	world := part.World()
	// The coordinator has one command in flight at a time; the room past it
	// keeps the reader, which data frames also wait on, off the serve loop.
	in := make(chan inbound, 4)
	// When the link dies the serve loop may be blocked inside part.Step
	// waiting on halo data that will never arrive, so a read error must
	// also poison the world: blocked ranks unwind through the trap, Step
	// returns, and the process exits instead of orphaning itself. The
	// poison comes first: the queue may be full of commands the serve loop
	// can only take once its step returns.
	fail := func(rerr error) {
		world.Poison(rerr.Error())
		in <- inbound{err: rerr}
	}
	go func() {
		for {
			f, rerr := peer.Recv()
			if rerr != nil {
				fail(rerr)
				return
			}
			switch f.Kind {
			case transport.KindHeartbeat:
				continue
			case transport.KindData:
				data, derr := transport.DecodePayload(f.Payload)
				if derr != nil {
					fail(fmt.Errorf("distrib: decode data frame: %w", derr))
					return
				}
				if ierr := world.Inject(int(f.Src), int(f.Dst), int(f.Tag), data, 0); ierr != nil {
					fail(ierr)
					return
				}
			default:
				in <- inbound{frame: f}
			}
		}
	}()

	// Absolute-step tracking for the scripted fault: a process-level shot
	// fires immediately before the batch that would execute its step.
	done := 0
	if spec.Restore != nil {
		done = spec.Restore.Step
	}

	for {
		m := <-in
		if m.err != nil {
			return m.err
		}
		switch f := m.frame; f.Kind {
		case transport.KindStep:
			n := int(f.Tag)
			if sab := spec.Sabotage; sab.ProcessLevel() && sab.FireIn(done, n) {
				if err := fireProcessFault(sab, spec.Proc, conn, peer, &hbPause); err != nil {
					return err
				}
			}
			serr := part.Step(n)
			// A failed batch ships no records (the coordinator drops
			// them): a rank may still be appending to the buffer.
			var records []core.StepStats
			if serr == nil {
				done += n
				records, batch = batch, batch[:0]
			}
			ack := StepAck{
				Proc:      spec.Proc,
				Stats:     records,
				Transport: world.TransportStats(),
				Err:       wireErr(spec.Proc, serr),
			}
			ack.Msgs, ack.Bytes = world.Stats()
			if err := sendAck(transport.KindStepAck, ack); err != nil {
				return err
			}
		case transport.KindSnapshot:
			frames, serr := part.SnapshotLocal()
			ack := SnapAck{Proc: spec.Proc, Frames: frames, Err: wireErr(spec.Proc, serr)}
			ack.Msgs, ack.Bytes = world.Stats()
			if err := sendAck(transport.KindSnapAck, ack); err != nil {
				return err
			}
		case transport.KindFinish:
			res, ferr := part.Finish()
			ack := ResultAck{Proc: spec.Proc, Err: wireErr(spec.Proc, ferr)}
			if res != nil {
				// This block's own traffic: the coordinator owns the
				// restored run's counter continuation.
				if f := res.Final; f != nil {
					ack.Final = &checkpoint.Frame{ID: f.ID, Pos: f.Pos, Vel: f.Vel}
				}
				ack.Msgs, ack.Bytes = world.Stats()
				ack.Faults = res.Faults
			}
			if err := sendAck(transport.KindResultAck, ack); err != nil {
				return err
			}
			// Hold the connection open until the coordinator closes
			// it: tearing down first would race our final ack
			// against the EOF on the coordinator's router, turning a
			// clean shutdown into a spurious connection fault.
			for m.err == nil {
				m = <-in
			}
			return nil
		default:
			return fmt.Errorf("distrib: unexpected control frame kind %d", f.Kind)
		}
	}
}

// inbound is what the worker's reader hands its serve loop, in arrival
// order: a control frame, or the error that ended the link.
type inbound struct {
	frame transport.Frame
	err   error
}

// fireProcessFault executes a process-level sabotage in worker proc. Exit
// and garbage return an error (the worker dies, as the real fault would); a
// stall returns nil and the worker resumes — whether the run survives
// depends on whether the stall outlasted the coordinator's heartbeat window,
// exactly like a real SIGSTOP/SIGCONT pair.
func fireProcessFault(s *supervise.Sabotage, proc int, conn net.Conn, peer *transport.Peer, hbPause *atomic.Bool) error {
	switch s.Kind {
	case supervise.SabotageWorkerExit:
		peer.Close()
	case supervise.SabotageWorkerStall:
		hbPause.Store(true)
		time.Sleep(s.Stall)
		hbPause.Store(false)
		return nil
	case supervise.SabotageWorkerGarbage:
		// A lying length prefix: 0xFFFFFFFF decodes as a frame far over
		// MaxPayload, desynchronizing the stream. Raw conn writes are
		// stream-atomic per call, so this lands between frames, not
		// inside a concurrent heartbeat. Linger with the socket open so
		// the coordinator's reader hits the bad length (frame-decode)
		// rather than racing it with a broken pipe from our own exit.
		hbPause.Store(true)
		conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
		time.Sleep(time.Second)
	}
	return fmt.Errorf("distrib: sabotage %s: worker %d failing before step %d", s.Kind, proc, s.Step)
}

// newPartialFromSpec builds this process's share of the engine from the
// shipped run identity, through the same builder the in-process path uses.
// onStep receives the step records (only the process hosting rank 0 emits
// any); the worker ships them to the coordinator, which owns the trace. The
// remote must exist before NewPartial so the spawned PEs can send during
// step-0 force construction; incoming frames buffer in the kernel until the
// caller's reader goroutine starts draining, moments later.
func newPartialFromSpec(spec *WireSpec, peer *transport.Peer, onStep func(core.StepStats)) (*core.Engine, error) {
	cfg, sys, err := runspec.Parallel(&spec.Meta, spec.Restore)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	cfg.OnStep, cfg.Runtime = onStep, spec.Runtime
	return core.NewPartial(cfg, sys, spec.Ranks, &peerRemote{peer: peer})
}
