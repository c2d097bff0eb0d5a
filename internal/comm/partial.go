package comm

import (
	"fmt"
	"sort"
)

// Remote is the delivery seam for partial worlds: messages addressed to
// ranks that are not hosted in this process are handed to it instead of a
// local inbox. The TCP backend implements it by framing the message onto
// the coordinator connection; tests implement it with in-memory pairs.
//
// Deliver is called from the sending rank's goroutine after the fault
// layer has already applied its jitter and reorder decisions, so a
// Remote sees exactly the post-chaos delivery stream. Implementations
// must preserve per-(src,tag) call order on delivery — the substrate's
// FIFO matching contract depends on it.
type Remote interface {
	// Deliver takes the message over: it must have encoded or copied data
	// by the time it returns (the sender reuses its buffers), but it may
	// hold the message back until the next Flush.
	Deliver(src, dst, tag int, data any, size int64) error
	// Flush sends on everything Deliver has accepted, from every local
	// rank. The world calls it wherever a rank could block — before a
	// Recv waits, before a send into a full inbox, at FlushFaults (a batch
	// end) and when a rank's function returns — so no message a peer waits
	// on stays buffered here, and a burst of sends leaves in one write.
	// Ranks call it concurrently. An error means the link is gone.
	Flush() error
	// Stats returns the cumulative count of messages delivered through
	// this remote and the bytes they occupied on the wire, framing
	// included (the source for the transport counters in StepStats). Only
	// Deliver's traffic counts — a link's keep-alives and control
	// protocol do not — so the numbers repeat exactly for a seed.
	Stats() (frames, bytes int64)
}

// TransportStats is the per-transport traffic view surfaced in step
// stats: frames and bytes that crossed the transport boundary. On an
// in-process world every message is a "frame" and bytes are the
// payload-size hints; on a partial world the numbers come from the Remote
// (real wire traffic of this process).
type TransportStats struct {
	Frames int64
	Bytes  int64
}

// NewPartialWorld returns a world of p logical ranks of which only the
// given subset is hosted in this process. Messages to non-local ranks
// are routed through remote; messages for local ranks arriving from
// other processes are fed in with Inject. Collectives work unchanged:
// they are built on point-to-point sends.
func NewPartialWorld(p int, local []int, remote Remote, opts ...Option) (*World, error) {
	if remote == nil {
		return nil, fmt.Errorf("comm: partial world requires a Remote")
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("comm: partial world hosts no ranks")
	}
	ranks := append([]int(nil), local...)
	sort.Ints(ranks)
	for i, r := range ranks {
		if r < 0 || r >= p {
			return nil, fmt.Errorf("comm: local rank %d out of range [0,%d)", r, p)
		}
		if i > 0 && r == ranks[i-1] {
			return nil, fmt.Errorf("comm: local rank %d listed twice", r)
		}
	}
	return newWorld(p, ranks, remote, opts...)
}

// Local returns the ranks hosted in this process, ascending.
func (w *World) Local() []int {
	return append([]int(nil), w.local...)
}

// Inject delivers a message that arrived over the transport into a local
// rank's inbox. It does NOT bump the msgs/bytes counters: traffic is
// counted once, on the sending side, so summing per-process Stats over
// all processes matches the single-process totals bit for bit (the
// checkpoint CommMsgs/CommBytes identity depends on this). Inject blocks
// if the inbox is full, exactly like a local sender would.
func (w *World) Inject(src, dst, tag int, data any, size int64) error {
	if dst < 0 || dst >= w.size {
		return fmt.Errorf("comm: inject: rank %d out of range [0,%d)", dst, w.size)
	}
	if w.inbox[dst] == nil {
		return fmt.Errorf("comm: inject: rank %d is not hosted in this process", dst)
	}
	w.inbox[dst] <- message{src: src, tag: tag, data: data, size: size}
	return nil
}

// TransportStats returns this process's transport traffic counters.
func (w *World) TransportStats() TransportStats {
	if w.remote != nil {
		frames, bytes := w.remote.Stats()
		return TransportStats{Frames: frames, Bytes: bytes}
	}
	return TransportStats{Frames: w.msgs.Load(), Bytes: w.bytes.Load()}
}

// TransportStats returns the world's transport traffic counters (rank 0
// stamps them into StepStats at each census).
func (c *Comm) TransportStats() TransportStats { return c.w.TransportStats() }

// deliverRemote hands a message for a non-local rank to the Remote. A
// delivery failure means the transport itself is gone (peer process died,
// socket closed), which — like a full-world channel send that can never
// complete — has no local recovery: panic and let the supervisor or the
// coordinator surface it.
func (c *Comm) deliverRemote(dst int, m message) {
	if err := c.w.remote.Deliver(m.src, dst, m.tag, m.data, m.size); err != nil {
		panic(fmt.Sprintf("comm: remote delivery rank %d -> %d (tag %d) failed: %v", m.src, dst, m.tag, err))
	}
}

// flushRemote pushes out what the Remote holds, on a partial world; it
// fails like deliverRemote.
func (c *Comm) flushRemote() {
	if c.w.remote == nil {
		return
	}
	if err := c.w.remote.Flush(); err != nil {
		panic(fmt.Sprintf("comm: remote flush from rank %d failed: %v", c.rank, err))
	}
}

// exitFlush is flushHeld for a rank whose function has returned. It runs
// outside any trap the function installed, so a delivery or flush that
// fails here — the link died under a finished rank — must not panic: it
// poisons the world instead, the same signal every other local rank gets
// from a dead link.
func (c *Comm) exitFlush() {
	defer func() {
		if r := recover(); r != nil {
			c.w.Poison(fmt.Sprint(r))
		}
	}()
	c.flushHeld()
}
