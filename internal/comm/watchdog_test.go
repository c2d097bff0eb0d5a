package comm

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// watched runs fn on every rank under the deadlock watchdog, the way the
// engine watches each batch: one WatchSection around one Run.
func watched(w *World, timeout time.Duration, fn func(c *Comm)) error {
	done := make(chan struct{})
	go func() {
		w.Run(fn)
		close(done)
	}()
	return w.WatchSection(timeout, done, nil)
}

// TestWatchdogConvertsDeadlockToError is the headline watchdog property: a
// protocol bug that would hang go test forever instead returns an error
// carrying a per-rank state dump.
func TestWatchdogConvertsDeadlockToError(t *testing.T) {
	w, _ := NewWorld(2, WithTracking())
	err := watched(w, 150*time.Millisecond, func(c *Comm) {
		// Classic cross recv with no sends: both ranks wait forever.
		c.Recv(1-c.Rank(), 42)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(de.Ranks) != 2 {
		t.Fatalf("dump has %d ranks", len(de.Ranks))
	}
	for _, r := range de.Ranks {
		if !r.Blocked || r.LastOp != "recv" {
			t.Errorf("rank %d state = %+v, want blocked in recv", r.Rank, r)
		}
	}
	msg := err.Error()
	for _, want := range []string{"rank 0", "rank 1", "recv", "tag=42", "no progress"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
}

// withInboxCapacity overrides the per-rank inbox buffer. Small capacities
// (down to 1) force backpressure — senders block until the receiver drains —
// which provokes the deadlocks the watchdog must catch.
func withInboxCapacity(n int) Option {
	return func(w *World) { w.inboxCap = n }
}

// TestWatchdogBackpressureDeadlock forces the deadlock with a one-slot
// inbox: at capacity 1, two ranks that each send a burst before
// receiving wedge on full inboxes; the dump must show them blocked in send.
func TestWatchdogBackpressureDeadlock(t *testing.T) {
	w, _ := NewWorld(2, withInboxCapacity(1), WithTracking())
	err := watched(w, 150*time.Millisecond, func(c *Comm) {
		other := 1 - c.Rank()
		for i := 0; i < 10; i++ {
			c.Send(other, 1, i)
		}
		for i := 0; i < 10; i++ {
			c.Recv(other, 1)
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "inbox full") {
		t.Errorf("dump does not identify backpressure:\n%s", err)
	}
}

// TestWatchdogPassesCleanRun asserts no false positives: a normal exchange
// under the watchdog completes and returns nil.
func TestWatchdogPassesCleanRun(t *testing.T) {
	w, _ := NewWorld(4, WithTracking())
	err := watched(w, 2*time.Second, func(c *Comm) {
		for round := 0; round < 20; round++ {
			c.Send((c.Rank()+1)%4, 1, round)
			if got := c.Recv((c.Rank()+3)%4, 1).(int); got != round {
				t.Errorf("round %d: got %d", round, got)
			}
			c.AllreduceInt64(0, SumI)
		}
	})
	if err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	for _, r := range w.Snapshot() {
		if r.LastOp != "done" {
			t.Errorf("rank %d final state %q, want done", r.Rank, r.LastOp)
		}
		// Per round: a send, a receive and the allreduce — rank 0 takes
		// three receives and three sends in it, the others one send and
		// one receive.
		want := int64(80)
		if r.Rank == 0 {
			want = 160
		}
		if r.Ops != want {
			t.Errorf("rank %d ops = %d, want %d", r.Rank, r.Ops, want)
		}
	}
}

// TestWatchdogTolleratesStalls asserts a stall shorter than the timeout
// does not trip the watchdog even though no global progress happens while
// every rank sleeps.
func TestWatchdogToleratesStalls(t *testing.T) {
	w, _ := NewWorld(2, WithFaults(FaultPlan{
		Seed: 1,
		Stalls: []Stall{
			{Rank: 0, AfterOps: 1, Duration: 50 * time.Millisecond},
			{Rank: 1, AfterOps: 1, Duration: 50 * time.Millisecond},
		},
	}), WithTracking())
	err := watched(w, 500*time.Millisecond, func(c *Comm) {
		c.Send(1-c.Rank(), 1, "hi")
		c.Recv(1-c.Rank(), 1)
	})
	if err != nil {
		t.Fatalf("stalled-but-live run flagged: %v", err)
	}
}

// TestWatchdogDumpIncludesStacks asserts the deadlock error carries the
// all-goroutine stack dump, so a wedged protocol can be located in code and
// not just in the per-rank op log.
func TestWatchdogDumpIncludesStacks(t *testing.T) {
	w, _ := NewWorld(2, WithTracking())
	err := watched(w, 150*time.Millisecond, func(c *Comm) {
		c.Recv(1-c.Rank(), 42)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(de.Stacks, "goroutine") {
		t.Fatal("DeadlockError.Stacks has no goroutine dump")
	}
	msg := err.Error()
	if !strings.Contains(msg, "goroutine stacks at detection") {
		t.Errorf("rendered error omits the stack dump:\n%.400s", msg)
	}
}

// TestSnapshotShowsHeldMessages asserts the state dump surfaces fault-layer
// link state: a message held back for reordering shows up as "holding" on
// the sender's rank — the signature of an injected reorder when a peer
// appears stuck waiting for a message that was in fact sent. (A held message
// cannot persist into a real deadlock — flushHeld runs before every blocking
// op — so the test snapshots mid-flight while the holder is parked outside
// the comm layer.)
func TestSnapshotShowsHeldMessages(t *testing.T) {
	w, _ := NewWorld(2, WithFaults(FaultPlan{
		Seed:         7,
		ReorderProb:  1,
		ReorderDepth: 4,
	}), WithTracking())
	holding := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 5, "held back") // reorder layer holds this with prob 1
				close(holding)
				<-release
				c.Recv(1, 6) // flushes the held message first
			} else {
				c.Recv(0, 5)
				c.Send(0, 6, "ok")
			}
		})
	}()
	<-holding
	snap := w.Snapshot()
	if got := snap[0].Held; len(got) != 1 || got[0] != "dst=1 held=1" {
		t.Errorf("rank 0 held links = %v, want [dst=1 held=1]", got)
	}
	if !strings.Contains(snap[0].String(), "holding [dst=1 held=1]") {
		t.Errorf("rendered state omits held link: %s", snap[0])
	}
	close(release)
	<-done
	if got := w.Snapshot()[0].Held; len(got) != 0 {
		t.Errorf("held links not flushed by the blocking recv: %v", got)
	}
}

// TestWatchdogDumpShowsPending asserts the dump includes buffered messages
// that arrived but never matched — the clue for tag-mismatch bugs.
func TestWatchdogDumpShowsPending(t *testing.T) {
	w, _ := NewWorld(2, WithTracking())
	err := watched(w, 150*time.Millisecond, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, "wrong tag")
			c.Recv(1, 1)
		} else {
			c.Recv(0, 9) // waits forever; tag 7 sits in pending
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "src=0 tag=7") {
		t.Errorf("dump does not show pending unmatched message:\n%s", err)
	}
}

// TestFaultPlanArmsNoTracking asserts a fault plan alone leaves the send
// and receive paths uninstrumented: a fault-free round allocates nothing
// and Snapshot is empty. Only WithTracking arms the tracker.
func TestFaultPlanArmsNoTracking(t *testing.T) {
	w, _ := NewWorld(2, WithFaults(FaultPlan{Seed: 1}))
	c0, c1 := w.Comm(0), w.Comm(1)
	allocs := testing.AllocsPerRun(100, func() {
		c0.Send(1, 1, nil)
		c1.Recv(0, 1)
	})
	if allocs != 0 {
		t.Errorf("send/recv round under a fault plan allocates %.1f times, want 0", allocs)
	}
	if snap := w.Snapshot(); snap != nil {
		t.Errorf("fault plan armed tracking: snapshot %v", snap)
	}

	tracked, _ := NewWorld(2, WithFaults(FaultPlan{Seed: 1}), WithTracking())
	if got := len(tracked.Snapshot()); got != 2 {
		t.Errorf("tracked snapshot reports %d ranks, want 2", got)
	}
}
