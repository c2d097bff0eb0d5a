package distrib

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"sync/atomic"
	"time"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/core"
	"permcell/internal/transport"
)

// Config selects how a coordinator hosts its workers.
type Config struct {
	// Procs is the number of worker processes. Must be 1..P; ranks are
	// dealt in contiguous blocks (RanksOf).
	Procs int
	// Worker is the mdrank binary to exec per process. Empty hosts the
	// workers as goroutines in this process — still speaking real TCP
	// over loopback, which is what the cross-transport tests exercise
	// (and keeps them under the race detector).
	Worker string
	// Addr is the coordinator listen address; default "127.0.0.1:0".
	Addr string
	// OnStep receives each assembled step record (required); the engine
	// keeps none.
	OnStep func(core.StepStats)
}

// HandshakeTimeout bounds the accept+hello+spec phase on both sides of
// every link, so a worker that dies before connecting fails Start instead
// of hanging it, and a worker whose coordinator never deals a spec gives up.
const HandshakeTimeout = 60 * time.Second

// Liveness defaults: a second between beats with a five-miss budget keeps
// idle-link overhead negligible (one 17-byte frame/s) while bounding
// detection of a wedged peer at ~5 s. Tests shrink both.
const (
	DefaultHeartbeatEvery  = 1 * time.Second
	DefaultHeartbeatMisses = 5
)

// shutdownGrace is how long shutdown waits for an exec'd worker to exit
// after its connection closes before escalating to SIGKILL. The escalation
// matters: a SIGSTOP'd worker never notices the closed socket, and SIGKILL
// is the only signal a stopped process cannot ignore.
const shutdownGrace = 2 * time.Second

// Engine drives W worker processes in lockstep and presents the same
// stepwise surface as core.Engine: Step, AbsStep, Snapshot, Finish. Data
// frames between workers are forwarded through the coordinator by header
// only (star topology, payloads opaque). Not safe for concurrent use.
type Engine struct {
	spec   WireSpec
	peers  []*transport.Peer
	acks   []*controlIn // proc -> its link's control stream, read by collect
	procOf []int        // rank -> hosting proc
	ranks  [][]int      // proc -> hosted rank block
	last   []frameLog
	ctrl   chan ctrlFrame
	fatal  chan error
	cmds   []*exec.Cmd
	reaped []chan error // closed by the exit watcher once cmd.Wait returns
	onStep func(core.StepStats)

	hbStop  chan struct{}
	closing atomic.Bool

	base      int   // absolute step at start (restore offset)
	baseMsgs  int64 // comm counters carried over from the restored run
	baseBytes int64
	stepped   int
	err       error
	done      bool
	finRes    *core.Result
	finErr    error
}

type ctrlFrame struct {
	proc  int
	frame transport.Frame
}

// Start listens, launches cfg.Procs workers, deals rank blocks, and
// waits for every worker to report a constructed engine. spec.Proc and
// spec.Ranks are assigned per worker here; spec.Restore, when set,
// seeds the absolute step and comm counter continuations.
func Start(spec WireSpec, cfg Config) (*Engine, error) {
	p := spec.Meta.P
	w := cfg.Procs
	if w <= 0 {
		w = p
	}
	if w > p {
		return nil, fmt.Errorf("distrib: %d worker processes for %d ranks", w, p)
	}
	if spec.HeartbeatEvery <= 0 {
		spec.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if spec.HeartbeatMisses <= 0 {
		spec.HeartbeatMisses = DefaultHeartbeatMisses
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distrib: listen: %w", err)
	}
	defer ln.Close()
	dialAddr := ln.Addr().String()

	e := &Engine{
		spec:   spec,
		peers:  make([]*transport.Peer, w),
		acks:   make([]*controlIn, w),
		procOf: make([]int, p),
		ranks:  make([][]int, w),
		last:   make([]frameLog, w),
		ctrl:   make(chan ctrlFrame, 4*w),
		fatal:  make(chan error, w),
		onStep: cfg.OnStep,
		hbStop: make(chan struct{}),
	}
	if spec.Restore != nil {
		e.base = spec.Restore.Step
		e.baseMsgs = spec.Restore.CommMsgs
		e.baseBytes = spec.Restore.CommBytes
	}

	// Launch the workers. Process identity is assigned in accept order,
	// which is safe because the delivery contract is placement
	// independent: any worker can host any rank block.
	if cfg.Worker != "" {
		for i := 0; i < w; i++ {
			cmd := exec.Command(cfg.Worker, "-connect", dialAddr)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				e.shutdown()
				return nil, fmt.Errorf("distrib: start worker: %w", err)
			}
			e.cmds = append(e.cmds, cmd)
			e.reaped = append(e.reaped, make(chan error, 1))
			// Exit watcher: owns the single cmd.Wait. A worker dying
			// outside shutdown is a failure even if its socket lingers
			// (accept-order identity means the watcher cannot name the
			// proc; the router's EOF usually attributes it first).
			go func(cmd *exec.Cmd, reaped chan error) {
				werr := cmd.Wait()
				reaped <- werr
				close(reaped)
				if !e.closing.Load() {
					e.fail(&WorkerFailure{
						Proc: -1, Kind: FailExited,
						Err: fmt.Errorf("worker process exited mid-run: %v", werr),
					})
				}
			}(cmd, e.reaped[i])
		}
	} else {
		for i := 0; i < w; i++ {
			go func() {
				conn, derr := net.Dial("tcp", dialAddr)
				if derr != nil {
					return // surfaces as an accept timeout
				}
				if werr := RunWorker(conn); werr != nil {
					fmt.Fprintf(os.Stderr, "distrib: worker: %v\n", werr)
				}
			}()
		}
	}

	// Accept + hello, then deal each worker its spec.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(HandshakeTimeout))
	}
	for i := 0; i < w; i++ {
		conn, aerr := ln.Accept()
		if aerr != nil {
			e.shutdown()
			return nil, fmt.Errorf("distrib: accept worker %d/%d: %w", i, w, aerr)
		}
		peer := transport.NewPeer(conn)
		conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
		fr, herr := peer.Recv()
		if herr != nil || fr.Kind != transport.KindHello {
			e.peers[i] = peer
			e.shutdown()
			return nil, fmt.Errorf("distrib: worker %d hello: kind=%d err=%v", i, fr.Kind, herr)
		}
		conn.SetReadDeadline(time.Time{})
		e.peers[i] = peer
		e.acks[i] = newControlIn()
		// The liveness window: a healthy peer's heartbeats arrive every
		// HeartbeatEvery, so HeartbeatMisses consecutive losses trip the
		// read deadline. The same window bounds writes, so a peer that
		// stops draining its socket cannot wedge a flush.
		window := spec.HeartbeatEvery * time.Duration(spec.HeartbeatMisses)
		peer.SetTimeouts(window, window)

		ws := spec
		ws.Proc = i
		ws.Ranks = RanksOf(p, w, i)
		e.ranks[i] = ws.Ranks
		for _, r := range ws.Ranks {
			e.procOf[r] = i
		}
		if sab := spec.Sabotage; sab == nil || sab.Fired() || !slices.Contains(ws.Ranks, sab.Rank) {
			ws.Sabotage = nil
		}
		// The spec is the only value this direction's control stream
		// carries; commands are header-only frames.
		payload, perr := newControlOut().encode(ws)
		if perr != nil {
			e.shutdown()
			return nil, perr
		}
		if serr := peer.Send(transport.Frame{Kind: transport.KindSpec, Payload: payload}); serr != nil {
			e.shutdown()
			return nil, fmt.Errorf("distrib: send spec to worker %d: %w", i, serr)
		}
	}

	// Router per connection: data frames hop to the destination rank's
	// hosting peer; control frames queue for the collector. One router
	// goroutine per source connection preserves per-source frame order,
	// which together with the workers' single reader keeps the
	// per-(src,tag) FIFO delivery contract intact across the star.
	// Heartbeat senders keep every link inside the workers' read windows
	// even when the coordinator is idle between commands.
	for i := 0; i < w; i++ {
		go e.route(i)
		go heartbeat(e.peers[i], spec.HeartbeatEvery, -1, e.hbStop, nil)
	}

	// Every worker reports construction (an empty StepAck).
	if err := collect(e, transport.KindStepAck, func(ack *StepAck) error { return ack.Err }); err != nil {
		e.shutdown()
		return nil, fmt.Errorf("distrib: worker startup: %w", err)
	}
	return e, nil
}

// fail records a worker failure; the first one wins, later ones drop (the
// run is already dead and the collector only consumes one).
func (e *Engine) fail(f *WorkerFailure) {
	select {
	case e.fatal <- f:
	default:
	}
}

// linkFailure builds the typed failure for a broken proc link, attaching
// the rank block and last-frame forensics.
func (e *Engine) linkFailure(proc int, kind FailureKind, err error) *WorkerFailure {
	return &WorkerFailure{
		Proc:      proc,
		Ranks:     e.ranks[proc],
		Kind:      kind,
		Err:       err,
		Forensics: e.last[proc].describe(),
	}
}

// heartbeat keeps one link alive, from either end: a header-only
// KindHeartbeat frame from src at each tick of every, skipped while pause
// is set (only a worker passes one, for SabotageWorkerStall), until stop
// closes or the first send error (a dead link is the reader's failure to
// report, not this goroutine's).
func heartbeat(peer *transport.Peer, every time.Duration, src int32, stop <-chan struct{}, pause *atomic.Bool) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if pause != nil && pause.Load() {
				continue
			}
			if peer.Send(transport.Frame{Kind: transport.KindHeartbeat, Src: src, Dst: -1}) != nil {
				return
			}
		}
	}
}

// route is proc's link reader. Data frames are queued on the destination
// link unflushed; the links queued to are flushed once this link has
// nothing more buffered, before the read that could block — whatever kind
// the last frame was, so a data frame that arrived in one read with a
// heartbeat or an ack behind it is not left waiting for the next read.
func (e *Engine) route(proc int) {
	src := e.peers[proc]
	var queued []int // procs whose links hold frames forwarded from this one
	for {
		if len(queued) > 0 && src.Buffered() == 0 {
			for _, to := range queued {
				if err := e.peers[to].Flush(); err != nil {
					e.forwardFailed(proc, to, err)
					return
				}
			}
			queued = queued[:0]
		}
		fr, err := src.Recv()
		if err != nil {
			if src.Closed() || errors.Is(err, transport.ErrPeerClosed) {
				return // local teardown, not a worker failure
			}
			e.fail(e.linkFailure(proc, classifyLinkError(err), err))
			return
		}
		e.last[proc].note(fr)
		switch fr.Kind {
		case transport.KindHeartbeat:
			continue
		case transport.KindData:
			dst := int(fr.Dst)
			if dst < 0 || dst >= len(e.procOf) {
				e.fail(e.linkFailure(proc, FailProtocol,
					fmt.Errorf("data frame for rank %d out of range", dst)))
				return
			}
			// The payload is on loan from this link's read buffer and
			// goes out undecoded: Queue copies it into the destination
			// link's write buffer before the next Recv takes it back.
			to := e.procOf[dst]
			if err := e.peers[to].Queue(fr); err != nil {
				e.forwardFailed(proc, to, err)
				return
			}
			if !slices.Contains(queued, to) {
				queued = append(queued, to)
			}
		default:
			e.ctrl <- ctrlFrame{proc: proc, frame: fr}
		}
	}
}

// forwardFailed reports a failed forward from proc onto link to as to's
// failure, unless the link was closed here.
func (e *Engine) forwardFailed(proc, to int, err error) {
	if e.peers[to].Closed() || errors.Is(err, transport.ErrPeerClosed) {
		return
	}
	e.fail(e.linkFailure(to, classifyLinkError(err), fmt.Errorf("forward from proc %d: %w", proc, err)))
}

// broadcast sends one control frame to every worker.
func (e *Engine) broadcast(f transport.Frame) error {
	for i, p := range e.peers {
		if err := p.Send(f); err != nil {
			return e.linkFailure(i, classifyLinkError(err), fmt.Errorf("command: %w", err))
		}
	}
	return nil
}

// collect gathers one control ack of the given kind, with payload type A,
// from every worker, handing each to fold as it arrives. A link failure,
// wrong frame kind, undecodable or mistyped payload or error from fold
// aborts the batch at once: a worker whose ranks failed acks promptly, but
// its healthy peers are parked on receives from those ranks and will never
// ack. Finish then closes the links, which poisons the parked workers'
// worlds and lets them exit.
func collect[A any](e *Engine, kind byte, fold func(*A) error) error {
	for got := 0; got < len(e.peers); got++ {
		select {
		case err := <-e.fatal:
			return err
		case cf := <-e.ctrl:
			if cf.frame.Kind != kind {
				return e.linkFailure(cf.proc, FailProtocol,
					fmt.Errorf("sent frame kind %d, want %d", cf.frame.Kind, kind))
			}
			var ack A
			if err := e.acks[cf.proc].decode(cf.frame.Payload, &ack); err != nil {
				return e.linkFailure(cf.proc, FailFrameDecode,
					fmt.Errorf("decode ack: %w", err))
			}
			if err := fold(&ack); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step advances every worker by n steps in lockstep and hands the new
// rank-0 records to OnStep with their transport counters overwritten by the
// sum over all processes — making the trace identical to a single-process
// run of the same seed (transport counters excluded; they are
// transport-dependent by construction).
func (e *Engine) Step(n int) error {
	if e.err != nil {
		return e.err
	}
	if e.done {
		return fmt.Errorf("distrib: Step after Finish")
	}
	if n < 0 {
		return fmt.Errorf("core: negative step count %d", n)
	}
	if n == 0 {
		return nil
	}
	// The batch that contains the scripted step is the one the armed worker
	// fires in: spend the caller's script as that batch is issued.
	e.spec.Sabotage.FireIn(e.AbsStep(), n)
	if err := e.broadcast(transport.Frame{Kind: transport.KindStep, Tag: int32(n)}); err != nil {
		e.err = err
		return err
	}
	var sum comm.TransportStats
	var records []core.StepStats
	e.err = collect(e, transport.KindStepAck, func(ack *StepAck) error {
		sum.Frames += ack.Transport.Frames
		sum.Bytes += ack.Transport.Bytes
		if len(ack.Stats) > 0 {
			records = ack.Stats
		}
		return ack.Err
	})
	if e.err != nil {
		return e.err
	}
	for _, st := range records {
		st.SentFrames = sum.Frames
		st.SentBytes = sum.Bytes
		e.onStep(st)
	}
	e.stepped += n
	return nil
}

// AbsStep returns the absolute time step, counting any restored prefix.
func (e *Engine) AbsStep() int { return e.base + e.stepped }

// Procs returns the number of worker processes the engine is running on.
// The supervisor's rescale policy reads it to pick the survivor count.
func (e *Engine) Procs() int { return len(e.peers) }

// Snapshot assembles a full checkpoint from the per-worker frame sets at
// the current batch boundary. The comm counters continue the restored
// run's totals, matching the in-process engine bit for bit.
func (e *Engine) Snapshot() (*checkpoint.EngineState, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.done {
		return nil, fmt.Errorf("distrib: Snapshot after Finish")
	}
	if err := e.broadcast(transport.Frame{Kind: transport.KindSnapshot}); err != nil {
		e.err = err
		return nil, err
	}
	st := &checkpoint.EngineState{
		Step:   e.base + e.stepped,
		Frames: make([]checkpoint.Frame, e.spec.Meta.P),
	}
	var msgs, bytes int64
	e.err = collect(e, transport.KindSnapAck, func(ack *SnapAck) error {
		if ack.Err != nil {
			return ack.Err
		}
		msgs += ack.Msgs
		bytes += ack.Bytes
		for _, f := range ack.Frames {
			if f.Rank < 0 || f.Rank >= e.spec.Meta.P {
				return fmt.Errorf("distrib: snapshot frame for rank %d out of range", f.Rank)
			}
			st.Frames[f.Rank] = f
		}
		return nil
	})
	if e.err != nil {
		return nil, e.err
	}
	st.CommMsgs = e.baseMsgs + msgs
	st.CommBytes = e.baseBytes + bytes
	if err := st.Validate(e.spec.Meta.P); err != nil {
		e.err = err
		return nil, err
	}
	return st, nil
}

// Finish drains every worker, assembles the global Result, and releases
// the worker processes. Idempotent: repeated calls return the first
// outcome.
func (e *Engine) Finish() (*core.Result, error) {
	if e.done {
		return e.finRes, e.finErr
	}
	e.done = true
	defer e.shutdown()
	if e.err != nil {
		e.finErr = e.err
		return nil, e.finErr
	}
	if err := e.broadcast(transport.Frame{Kind: transport.KindFinish}); err != nil {
		e.finErr = err
		return nil, err
	}
	res := &core.Result{M: e.spec.Meta.M}
	res.CommMsgs, res.CommBytes = e.baseMsgs, e.baseBytes
	e.finErr = collect(e, transport.KindResultAck, func(ack *ResultAck) error {
		if ack.Err != nil {
			return ack.Err
		}
		if ack.Final != nil {
			final, err := ack.Final.SetOf()
			if err != nil {
				return fmt.Errorf("distrib: worker %d: final state: %w", ack.Proc, err)
			}
			res.Final = final
		}
		res.CommMsgs += ack.Msgs
		res.CommBytes += ack.Bytes
		res.Faults.Delays += ack.Faults.Delays
		res.Faults.Reorders += ack.Faults.Reorders
		res.Faults.Stalls += ack.Faults.Stalls
		return nil
	})
	if e.finErr != nil {
		return nil, e.finErr
	}
	e.finRes = res
	return res, nil
}

// shutdown closes every connection and reaps worker processes. Closing a
// connection unblocks the worker's reader, which exits RunWorker; a worker
// that does not exit within the grace window (wedged, SIGSTOP'd) is
// SIGKILLed — recovery must never wait on a stuck process. Idempotent.
func (e *Engine) shutdown() {
	if !e.closing.CompareAndSwap(false, true) {
		return
	}
	close(e.hbStop)
	for _, p := range e.peers {
		if p != nil {
			p.Close()
		}
	}
	for i, cmd := range e.cmds {
		select {
		case <-e.reaped[i]:
		case <-time.After(shutdownGrace):
			cmd.Process.Kill()
			<-e.reaped[i]
		}
	}
}
