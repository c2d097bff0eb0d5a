package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"permcell/internal/rng"
	"permcell/internal/trace"
)

// FaultPlan configures deterministic fault injection for a World. Every
// random choice is drawn from a per-link xoshiro stream derived from Seed,
// so a chaos run is replayable: the same plan on the same program yields
// the identical sequence of injected faults and the identical per-link
// delivery order (provided sends never block on a full inbox, which holds
// at the default inbox capacity).
//
// The layer never violates the substrate's matching contract: messages of
// the same (source, tag) pair are always delivered in send order. Bounded
// reordering only swaps messages of different tags on the same link, which
// is exactly the freedom a tag-matching MPI implementation has.
type FaultPlan struct {
	// Seed drives every per-link random stream.
	Seed uint64

	// DelayProb is the per-message probability of latency jitter: the
	// sender sleeps a uniform duration in (0, MaxDelay] before delivery.
	DelayProb float64
	MaxDelay  time.Duration

	// ReorderProb is the per-message probability that a message is held
	// back and overtaken by 1..ReorderDepth later messages on the same
	// link (different tags only; same-tag FIFO is preserved). Held
	// messages are flushed whenever the sender would block, so holding
	// never introduces a deadlock on its own.
	ReorderProb  float64
	ReorderDepth int // default 2 when ReorderProb > 0

	// Stalls schedules rank-local pauses: when rank Rank's comm-op
	// counter reaches AfterOps, the rank sleeps for Duration before the
	// op proceeds. Stalls perturb wall-clock load and interleaving
	// without touching message contents.
	Stalls []Stall

	// Record keeps per-event records (capped at MaxEvents, default 4096)
	// retrievable via World.FaultEvents. Counters in FaultStats are
	// always maintained.
	Record    bool
	MaxEvents int
}

// Stall is one scheduled per-rank pause.
type Stall struct {
	Rank     int
	AfterOps int64
	Duration time.Duration
}

// Validate checks the plan against a world of p ranks: DelayProb and
// ReorderProb in [0, 1] (NaN is not), MaxDelay, ReorderDepth and every
// stall's Duration not negative, and every stall's Rank in [0, p) — a stall
// on a rank the world does not have would never fire.
func (plan FaultPlan) Validate(p int) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"DelayProb", plan.DelayProb}, {"ReorderProb", plan.ReorderProb}} {
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("fault plan: %s %v outside [0, 1]", pr.name, pr.v)
		}
	}
	switch {
	case plan.MaxDelay < 0:
		return fmt.Errorf("fault plan: negative MaxDelay %v", plan.MaxDelay)
	case plan.ReorderDepth < 0:
		return fmt.Errorf("fault plan: negative ReorderDepth %d", plan.ReorderDepth)
	}
	for i, st := range plan.Stalls {
		switch {
		case st.Rank < 0 || st.Rank >= p:
			return fmt.Errorf("fault plan: stall %d on rank %d outside the world's ranks 0..%d", i, st.Rank, p-1)
		case st.Duration < 0:
			return fmt.Errorf("fault plan: stall %d has negative Duration %v", i, st.Duration)
		}
	}
	return nil
}

// FaultStats counts injected faults over a world's lifetime.
type FaultStats struct {
	Delays   int64 // messages delayed by latency jitter
	Reorders int64 // messages held back for reordering
	Stalls   int64 // scheduled rank stalls fired
}

// heldMsg is a message held back for reordering: it is delivered after
// overtake more messages pass it on the same link.
type heldMsg struct {
	m        message
	overtake int
}

// link is the sender-side fault state of one directed (src, dst) pair. It
// is owned by the source rank's goroutine; no locking — except heldN, an
// atomic mirror of len(held) so the watchdog can dump held-message counts
// from outside the owner goroutine without racing it.
type link struct {
	rng   *rng.Source
	held  []heldMsg
	heldN atomic.Int64
}

// setHeld replaces the held queue and refreshes the atomic mirror. Only the
// owning (source rank) goroutine calls it.
func (lk *link) setHeld(held []heldMsg) {
	lk.held = held
	lk.heldN.Store(int64(len(held)))
}

// faultState is the per-world fault-injection state.
type faultState struct {
	plan  FaultPlan
	links [][]*link // [src][dst]

	delays   atomic.Int64
	reorders atomic.Int64
	stalls   atomic.Int64

	mu     sync.Mutex
	events []trace.FaultEvent
}

func newFaultState(p int, plan FaultPlan) *faultState {
	if plan.ReorderProb > 0 && plan.ReorderDepth < 1 {
		plan.ReorderDepth = 2
	}
	if plan.MaxEvents <= 0 {
		plan.MaxEvents = 4096
	}
	fs := &faultState{plan: plan, links: make([][]*link, p)}
	for src := range fs.links {
		fs.links[src] = make([]*link, p)
		for dst := range fs.links[src] {
			// Each directed link gets its own stream, derived from the
			// plan seed by splitmix-style mixing of the link index, so
			// link streams are independent and replayable in isolation.
			fs.links[src][dst] = &link{
				rng: rng.New(plan.Seed ^ (0x9e3779b97f4a7c15 * uint64(src*p+dst+1))),
			}
		}
	}
	return fs
}

func (fs *faultState) record(ev trace.FaultEvent) {
	if !fs.plan.Record {
		return
	}
	fs.mu.Lock()
	if len(fs.events) < fs.plan.MaxEvents {
		fs.events = append(fs.events, ev)
	}
	fs.mu.Unlock()
}

// FaultStats returns the cumulative injected-fault counters (zero-valued
// when the world has no fault plan).
func (w *World) FaultStats() FaultStats {
	if w.fs == nil {
		return FaultStats{}
	}
	return FaultStats{
		Delays:   w.fs.delays.Load(),
		Reorders: w.fs.reorders.Load(),
		Stalls:   w.fs.stalls.Load(),
	}
}

// FaultEvents returns a copy of the recorded fault events (empty unless the
// plan set Record).
func (w *World) FaultEvents() []trace.FaultEvent {
	if w.fs == nil {
		return nil
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	return append([]trace.FaultEvent(nil), w.fs.events...)
}

// opTick advances this rank's comm-op counter and fires any scheduled
// stall that became due.
func (c *Comm) opTick() {
	c.ops++
	if c.tr != nil {
		c.tr.bumpOps()
	}
	fs := c.w.fs
	if fs == nil {
		return
	}
	for c.stallIdx < len(c.stalls) && c.ops >= c.stalls[c.stallIdx].AfterOps {
		st := c.stalls[c.stallIdx]
		c.stallIdx++
		fs.stalls.Add(1)
		fs.record(trace.FaultEvent{Rank: c.rank, Peer: -1, Kind: "stall", Seq: c.ops, Dur: st.Duration.Seconds()})
		time.Sleep(st.Duration)
	}
}

// faultySend is the send path under a fault plan: it may sleep for latency
// jitter and hold the message back for reordering, and it flushes any held
// messages that have been overtaken enough.
func (c *Comm) faultySend(dst, tag int, data any, size int64) {
	fs := c.w.fs
	lk := fs.links[c.rank][dst]
	if fs.plan.DelayProb > 0 && lk.rng.Float64() < fs.plan.DelayProb {
		d := time.Duration(lk.rng.Float64() * float64(fs.plan.MaxDelay))
		fs.delays.Add(1)
		fs.record(trace.FaultEvent{Rank: c.rank, Peer: dst, Tag: tag, Kind: "delay", Seq: c.ops, Dur: d.Seconds()})
		time.Sleep(d)
	}
	m := message{src: c.rank, tag: tag, data: data, size: size}

	// Same-tag FIFO: anything held with this tag must leave first.
	if len(lk.held) > 0 {
		kept := lk.held[:0]
		for _, h := range lk.held {
			if h.m.tag == tag {
				c.enqueue(dst, h.m)
			} else {
				kept = append(kept, h)
			}
		}
		lk.setHeld(kept)
	}

	if fs.plan.ReorderProb > 0 && len(lk.held) < fs.plan.ReorderDepth &&
		lk.rng.Float64() < fs.plan.ReorderProb {
		fs.reorders.Add(1)
		fs.record(trace.FaultEvent{Rank: c.rank, Peer: dst, Tag: tag, Kind: "reorder", Seq: c.ops})
		lk.setHeld(append(lk.held, heldMsg{m: m, overtake: 1 + lk.rng.Intn(fs.plan.ReorderDepth)}))
		return
	}

	c.enqueue(dst, m)

	// The new message overtook everything held on this link.
	if len(lk.held) > 0 {
		kept := lk.held[:0]
		for _, h := range lk.held {
			h.overtake--
			if h.overtake <= 0 {
				c.enqueue(dst, h.m)
			} else {
				kept = append(kept, h)
			}
		}
		lk.setHeld(kept)
	}
}

// enqueue places m into dst's inbox, or hands it to the Remote when dst
// lives in another process. If a local inbox is full it first flushes
// every held message on every link of this rank, so that a sender never
// blocks while holding back messages a peer may be waiting for.
func (c *Comm) enqueue(dst int, m message) {
	c.w.msgs.Add(1)
	c.w.bytes.Add(m.size)
	if c.w.inbox[dst] == nil {
		c.deliverRemote(dst, m)
		return
	}
	select {
	case c.w.inbox[dst] <- m:
		return
	default:
	}
	c.flushHeld()
	if c.tr != nil {
		c.tr.setBlocked("send", fmt.Sprintf("dst=%d tag=%d (inbox full)", dst, m.tag))
		defer c.tr.clearBlocked()
	}
	c.w.inbox[dst] <- m
}

// flushHeld delivers every message this rank is holding back, in link then
// hold order, and then flushes the Remote of a partial world. Called before
// any operation that can block indefinitely (Recv, a full-inbox send) and
// when the rank's function returns.
func (c *Comm) flushHeld() {
	c.deliverHeld()
	c.flushRemote()
}

func (c *Comm) deliverHeld() {
	fs := c.w.fs
	if fs == nil {
		return
	}
	for dst, lk := range fs.links[c.rank] {
		if len(lk.held) == 0 {
			continue
		}
		held := lk.held
		lk.setHeld(nil)
		for _, h := range held {
			// Bypass the full-inbox flush (we are the flush): plain send.
			c.w.msgs.Add(1)
			c.w.bytes.Add(h.m.size)
			if c.w.inbox[dst] == nil {
				c.deliverRemote(dst, h.m)
				continue
			}
			c.w.inbox[dst] <- h.m
		}
	}
}

// FlushFaults delivers every message the fault layer is holding back for
// reordering on this rank's links, and flushes a partial world's Remote. A
// rank that goes idle — acking a batch boundary to a driver and waiting
// for the next command — must call it first: a held or buffered message
// strands a peer that is still blocked receiving it, and with the holder
// no longer sending (the flush triggers below only fire inside comm
// operations) the run deadlocks. No-op on a full world without a fault
// plan or held messages.
func (c *Comm) FlushFaults() { c.flushHeld() }
