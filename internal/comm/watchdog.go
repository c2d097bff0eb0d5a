package comm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracker holds the per-rank progress state the watchdog inspects. It is
// only allocated under WithTracking, so the default fast path carries no
// instrumentation.
type tracker struct {
	ops   atomic.Int64 // global comm-op counter (progress signal)
	ranks []rankTrack
}

func newTracker(p int) *tracker {
	t := &tracker{ranks: make([]rankTrack, p)}
	for i := range t.ranks {
		t.ranks[i].t = t
	}
	return t
}

// rankTrack is one rank's last-known communication state.
type rankTrack struct {
	t *tracker

	mu      sync.Mutex
	lastOp  string // "send", "recv", "done"
	detail  string // e.g. "src=3 tag=5"
	ops     int64
	pending []string // buffered (src, tag) pairs awaiting a matching Recv
	blocked bool
	since   time.Time
}

func (r *rankTrack) bumpOps() {
	r.t.ops.Add(1)
	r.mu.Lock()
	r.ops++
	r.mu.Unlock()
}

func (r *rankTrack) setOp(op, detail string) {
	r.mu.Lock()
	r.lastOp, r.detail = op, detail
	r.blocked = false
	r.mu.Unlock()
}

func (r *rankTrack) setBlocked(op, detail string) {
	r.mu.Lock()
	r.lastOp, r.detail = op, detail
	r.blocked = true
	r.since = time.Now()
	r.mu.Unlock()
}

func (r *rankTrack) clearBlocked() {
	r.mu.Lock()
	r.blocked = false
	r.mu.Unlock()
}

func (r *rankTrack) setPending(pending []message) {
	tags := make([]string, len(pending))
	for i, m := range pending {
		tags[i] = fmt.Sprintf("src=%d tag=%d", m.src, m.tag)
	}
	r.mu.Lock()
	r.pending = tags
	r.mu.Unlock()
}

// RankState is a snapshot of one rank's communication state, as dumped by
// the deadlock watchdog.
type RankState struct {
	Rank    int
	LastOp  string // last comm operation entered ("done" after fn returned)
	Detail  string
	Ops     int64         // rank-local comm-op count
	Pending []string      // buffered messages awaiting a matching Recv
	Blocked bool          // currently inside a blocking wait
	For     time.Duration // how long the current block has lasted
	// Held lists this rank's fault-layer links with messages held back for
	// reordering ("dst=N held=K"); empty without a fault plan. A held
	// message a peer is blocked waiting for is the classic way an injected
	// reorder turns into an apparent deadlock, so the dump surfaces it.
	Held []string
}

func (s RankState) String() string {
	state := "running"
	if s.Blocked {
		state = fmt.Sprintf("BLOCKED %v in", s.For.Round(time.Millisecond))
	}
	pend := ""
	if len(s.Pending) > 0 {
		pend = fmt.Sprintf(", pending [%s]", strings.Join(s.Pending, "; "))
	}
	held := ""
	if len(s.Held) > 0 {
		held = fmt.Sprintf(", holding [%s]", strings.Join(s.Held, "; "))
	}
	return fmt.Sprintf("rank %d: %s %s %s (ops=%d%s%s)",
		s.Rank, state, s.LastOp, s.Detail, s.Ops, pend, held)
}

// Snapshot returns the current per-rank state. It is empty unless the
// world was created WithTracking.
func (w *World) Snapshot() []RankState {
	if w.track == nil {
		return nil
	}
	out := make([]RankState, len(w.track.ranks))
	for i := range w.track.ranks {
		r := &w.track.ranks[i]
		r.mu.Lock()
		out[i] = RankState{
			Rank:    i,
			LastOp:  r.lastOp,
			Detail:  r.detail,
			Ops:     r.ops,
			Pending: append([]string(nil), r.pending...),
			Blocked: r.blocked,
		}
		if r.blocked {
			out[i].For = time.Since(r.since)
		}
		r.mu.Unlock()
		out[i].Held = w.heldLinks(i)
	}
	return out
}

// heldLinks reports rank src's fault-layer links that are currently holding
// messages back for reordering, via the links' atomic counters (the held
// queues themselves are owned by the sender goroutine and are not read).
func (w *World) heldLinks(src int) []string {
	if w.fs == nil {
		return nil
	}
	var out []string
	for dst, lk := range w.fs.links[src] {
		if n := lk.heldN.Load(); n > 0 {
			out = append(out, fmt.Sprintf("dst=%d held=%d", dst, n))
		}
	}
	return out
}

// DeadlockError reports that no rank made progress for the watchdog
// timeout. It carries the per-rank state dump that replaces the hung run,
// plus a full goroutine stack dump taken at detection time — the per-rank
// states say *what* each rank was doing, the stacks say *where* in the
// protocol it is stuck.
type DeadlockError struct {
	Timeout time.Duration
	Ranks   []RankState
	// Stacks is the all-goroutine stack dump captured when the watchdog
	// fired (empty only if capture failed).
	Stacks string
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "comm: deadlock suspected: no progress for %v; per-rank state:", e.Timeout)
	for _, r := range e.Ranks {
		b.WriteString("\n  ")
		b.WriteString(r.String())
	}
	if e.Stacks != "" {
		b.WriteString("\ngoroutine stacks at detection:\n")
		b.WriteString(e.Stacks)
	}
	return b.String()
}

// allStacks captures every goroutine's stack, bounded at 1 MiB.
func allStacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return string(buf[:n])
}

// WatchSection watches one bounded section of communication for progress:
// it returns nil once done delivers (a value or its close) or abort does, or
// a *DeadlockError if no rank completes a communication operation for
// timeout while the section is in flight. It scopes the watchdog to a single
// batch of work — a stepwise engine's ranks sit idle between Step calls,
// which must not count as a stall. abort lets a caller's own failure signal
// (a nil channel never fires) end the wait; the caller tells the two nil
// returns apart.
//
// The timeout must comfortably exceed the longest injected stall or delay
// of the world's fault plan. On a deadlock the rank goroutines are left
// blocked (there is no way to preempt them); callers are expected to fail
// the run or exit the process, exactly as MPI_Abort would.
//
// Tracking must have been armed at construction (WithTracking); without it
// the call just waits for done or abort. A timeout <= 0 also just waits.
func (w *World) WatchSection(timeout time.Duration, done, abort <-chan struct{}) error {
	if timeout <= 0 || w.track == nil {
		select {
		case <-done:
		case <-abort:
		}
		return nil
	}
	poll := timeout / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	last := w.track.ops.Load()
	lastChange := time.Now()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-abort:
			return nil
		case <-ticker.C:
			cur := w.track.ops.Load()
			if cur != last {
				last, lastChange = cur, time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				return &DeadlockError{Timeout: timeout, Ranks: w.Snapshot(), Stacks: allStacks()}
			}
		}
	}
}
