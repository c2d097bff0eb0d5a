// Package comm is the message-passing substrate that stands in for MPI on
// the T3E. A World of P ranks runs as P goroutines inside one process;
// point-to-point messages travel over buffered channels with MPI-style
// (source, tag) matching, and the collectives the engines use (reductions
// and gathers) are built on top. Every rank calls collectives in the same
// order, exactly like an SPMD MPI program.
//
// The substitution is documented in DESIGN.md: the DLB algorithm only needs
// P sequential processors exchanging messages on a virtual 2-D torus, which
// this package provides with identical semantics.
//
// For chaos testing, a World can be created with a deterministic
// fault-injection plan (WithFaults: latency jitter, bounded reordering and
// per-rank stalls, all replayable from one seed), and its sections can be
// watched for deadlock (WithTracking + WatchSection): a hang becomes an
// error carrying a per-rank state dump.
package comm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

type message struct {
	src, tag int
	data     any
	size     int64 // payload size hint in bytes (0 when unknown)
}

// World is a group of ranks that can communicate. Create one per parallel
// run, then obtain a Comm per rank. A full world (NewWorld) hosts every
// rank in-process; a partial world (NewPartialWorld) hosts a subset and
// routes the rest through a Remote — the inbox slice keeps one slot per
// logical rank with nil marking the remote ones.
type World struct {
	size  int
	inbox []chan message

	local  []int  // ranks hosted in this process, ascending
	remote Remote // nil on full worlds

	inboxCap int // 0 = the default; the watchdog tests set 1 to force backpressure
	fs       *faultState
	track    *tracker

	poison     chan struct{} // closed by Poison; unblocks every pending Recv
	poisonOnce sync.Once
	poisonWhy  string // written before poison closes (happens-before via close)

	msgs  atomic.Int64
	bytes atomic.Int64
}

// Poison marks the world's message substrate as dead: every rank blocked
// in (or later entering) the receive wait panics with the given reason
// instead of waiting for a message that can no longer arrive. The engine's
// rank trap converts that panic into a typed *supervise.RankFailure, so a
// partial world whose coordinator link died mid-batch unwinds promptly —
// without it, the hosting worker process would hang in Step forever,
// leaking an orphan that outlives its coordinator. Idempotent.
func (w *World) Poison(reason string) {
	w.poisonOnce.Do(func() {
		w.poisonWhy = reason
		close(w.poison)
	})
}

// Option configures a World at construction time.
type Option func(*World)

// WithFaults runs the world under the given deterministic fault-injection
// plan (see FaultPlan). A zero-probability plan with no stalls behaves
// identically to a world without one.
func WithFaults(plan FaultPlan) Option {
	return func(w *World) { w.fs = newFaultState(w.size, plan) }
}

// WithTracking arms per-op progress tracking, so Snapshot and WatchSection
// can report per-rank state. Without it the send and receive paths carry
// no instrumentation.
func WithTracking() Option {
	return func(w *World) { w.track = newTracker(w.size) }
}

// NewWorld returns a world of p ranks.
func NewWorld(p int, opts ...Option) (*World, error) {
	return newWorld(p, nil, nil, opts...)
}

// newWorld builds a world of p logical ranks hosting local (every rank
// when nil), with remote carrying the rest.
func newWorld(p int, local []int, remote Remote, opts ...Option) (*World, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: world size must be >= 1, got %d", p)
	}
	if local == nil {
		local = make([]int, p)
		for i := range local {
			local[i] = i
		}
	}
	w := &World{
		size:   p,
		inbox:  make([]chan message, p),
		local:  local,
		remote: remote,
		poison: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(w)
	}
	capacity := w.inboxCap
	if capacity == 0 {
		capacity = max(64*p, 256)
	}
	for _, r := range local {
		w.inbox[r] = make(chan message, capacity)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns the cumulative message and payload-byte counts across all
// ranks (bytes only reflect sends that passed a size hint).
func (w *World) Stats() (msgs, bytes int64) {
	return w.msgs.Load(), w.bytes.Load()
}

// Quiesced verifies that no messages are in flight: every rank's inbox is
// empty. Checkpoint drivers call it at a batch boundary — after every rank
// has acknowledged the batch, which provides the happens-before edge — to
// assert the snapshot captures a complete state with nothing still traveling.
// Each rank's private receive buffer and fault-layer holds are checked by
// that rank itself via Comm.Quiesced.
func (w *World) Quiesced() error {
	for r, in := range w.inbox {
		if in == nil {
			continue // remote rank: its hosting process checks it
		}
		if n := len(in); n > 0 {
			return fmt.Errorf("comm: not quiesced: rank %d inbox holds %d undelivered message(s)", r, n)
		}
	}
	return nil
}

// Quiesced verifies this rank has no communication state pending: its
// receive buffer holds no unmatched messages and (under a fault plan) none
// of its outgoing links is holding back a reordered message. Ranks call it
// at their snapshot point before serializing local state.
func (c *Comm) Quiesced() error {
	if n := len(c.pending); n > 0 {
		m := c.pending[0]
		return fmt.Errorf("comm: not quiesced: rank %d buffers %d unmatched message(s) (first: src=%d tag=%d)",
			c.rank, n, m.src, m.tag)
	}
	if fs := c.w.fs; fs != nil {
		for dst, lk := range fs.links[c.rank] {
			if n := len(lk.held); n > 0 {
				return fmt.Errorf("comm: not quiesced: rank %d holds %d reordered message(s) for rank %d", c.rank, n, dst)
			}
		}
	}
	return nil
}

// Run spawns fn on every locally-hosted rank as a goroutine and blocks
// until all return. It is the moral equivalent of mpirun: on a full world
// that is every rank, on a partial world just this process's share.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	wg.Add(len(w.local))
	for _, r := range w.local {
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			fn(c)
			c.exitFlush() // a finished rank may not strand held-back or buffered messages
			if c.tr != nil {
				c.tr.setOp("done", "")
			}
		}(r)
	}
	wg.Wait()
}

// Comm returns the communication handle for one rank. Each handle must be
// used by a single goroutine.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.size))
	}
	if w.inbox[rank] == nil {
		panic(fmt.Sprintf("comm: rank %d is not hosted in this process", rank))
	}
	c := &Comm{w: w, rank: rank}
	if w.track != nil {
		c.tr = &w.track.ranks[rank]
	}
	if w.fs != nil {
		for _, st := range w.fs.plan.Stalls {
			if st.Rank == rank {
				c.stalls = append(c.stalls, st)
			}
		}
		sort.Slice(c.stalls, func(a, b int) bool { return c.stalls[a].AfterOps < c.stalls[b].AfterOps })
	}
	return c
}

// Comm is one rank's endpoint. Not safe for concurrent use by multiple
// goroutines.
type Comm struct {
	w       *World
	rank    int
	pending []message
	collSeq int

	ops      int64 // comm-op counter (send/recv entries)
	stalls   []Stall
	stallIdx int
	tr       *rankTrack
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Send delivers data to rank dst with the given tag. Tags must be
// non-negative; negative tags are reserved for collectives. Send blocks only
// if the destination inbox is full, which bounded per-step protocols never
// trigger at the default capacity of max(64*p, 256) slots.
func (c *Comm) Send(dst, tag int, data any) { c.SendSized(dst, tag, data, 0) }

// SendSized is Send with an explicit payload-size hint in bytes for the
// communication cost accounting.
func (c *Comm) SendSized(dst, tag int, data any, size int64) {
	if tag < 0 {
		panic("comm: negative tags are reserved")
	}
	c.send(dst, tag, data, size)
}

// send is the uniform internal send path (used by both user tags and the
// reserved collective tags): it counts the op, then enqueues the message
// or, under a fault plan, hands it to the fault layer.
func (c *Comm) send(dst, tag int, data any, size int64) {
	c.opTick()
	if c.tr != nil {
		c.tr.setOp("send", fmt.Sprintf("dst=%d tag=%d", dst, tag))
	}
	if c.w.fs != nil {
		c.faultySend(dst, tag, data, size)
		return
	}
	c.enqueue(dst, message{src: c.rank, tag: tag, data: data, size: size})
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from other (src, tag) pairs arriving in the
// meantime are buffered, preserving per-pair FIFO order.
func (c *Comm) Recv(src, tag int) any {
	c.opTick()
	c.flushHeld() // never block on a receive while holding back messages
	if c.tr != nil {
		c.tr.setBlocked("recv", fmt.Sprintf("src=%d tag=%d", src, tag))
		defer func() {
			c.tr.clearBlocked()
			c.tr.setPending(c.pending)
		}()
	}
	for i, m := range c.pending {
		if m.src == src && m.tag == tag {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return m.data
		}
	}
	for {
		select {
		case m := <-c.w.inbox[c.rank]:
			if m.src == src && m.tag == tag {
				return m.data
			}
			c.pending = append(c.pending, m)
			if c.tr != nil {
				c.tr.setPending(c.pending) // keep the watchdog dump current while blocked
			}
		case <-c.w.poison:
			panic(fmt.Sprintf("comm: world poisoned while rank %d awaited src=%d tag=%d: %s",
				c.rank, src, tag, c.w.poisonWhy))
		}
	}
}

// nextCollTag returns a fresh reserved tag. All ranks execute collectives in
// the same order, so sequence numbers agree across ranks.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return -c.collSeq
}

// gatherAt0 gathers one value per rank at root 0 and returns the full slice
// on rank 0 (nil elsewhere).
func (c *Comm) gatherAt0(tag int, v any) []any {
	if c.rank != 0 {
		c.send(0, tag, v, 0)
		return nil
	}
	all := make([]any, c.w.size)
	all[0] = v
	for src := 1; src < c.w.size; src++ {
		all[src] = c.Recv(src, tag)
	}
	return all
}

// bcastFrom0 sends v from rank 0 to everyone and returns it.
func (c *Comm) bcastFrom0(tag int, v any) any {
	if c.rank == 0 {
		for dst := 1; dst < c.w.size; dst++ {
			c.send(dst, tag, v, 0)
		}
		return v
	}
	return c.Recv(0, tag)
}

// AllreduceFloat64 combines one float64 per rank with op and returns the
// result on every rank.
func (c *Comm) AllreduceFloat64(v float64, op func(a, b float64) float64) float64 {
	return allreduce(c, v, op)
}

// AllreduceInt64 combines one int64 per rank with op and returns the result
// on every rank.
func (c *Comm) AllreduceInt64(v int64, op func(a, b int64) int64) int64 {
	return allreduce(c, v, op)
}

// allreduce folds every rank's value at rank 0 in rank order and sends the
// result back to everyone.
func allreduce[T float64 | int64](c *Comm, v T, op func(a, b T) T) T {
	tag := c.nextCollTag()
	all := c.gatherAt0(tag, v)
	var r T
	if c.rank == 0 {
		r = all[0].(T)
		for _, x := range all[1:] {
			r = op(r, x.(T))
		}
	}
	tag2 := c.nextCollTag()
	return c.bcastFrom0(tag2, r).(T)
}

// Sum is the float64 reduction operator the engines use.
func Sum(a, b float64) float64 { return a + b }

// SumI is its int64 counterpart.
func SumI(a, b int64) int64 { return a + b }

// Allgather returns every rank's value, indexed by rank, on every rank.
func (c *Comm) Allgather(v any) []any {
	tag := c.nextCollTag()
	all := c.gatherAt0(tag, v)
	tag2 := c.nextCollTag()
	res := c.bcastFrom0(tag2, all)
	return res.([]any)
}

// Gather returns every rank's value, indexed by rank, on rank 0 and nil on
// every other rank — which only sends, and so does not wait for rank 0.
func (c *Comm) Gather(v any) []any { return c.gatherAt0(c.nextCollTag(), v) }
