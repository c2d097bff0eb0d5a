package comm

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// memRemote bridges two partial worlds in-memory: everything delivered to
// it is injected into the peer world. It stands in for the TCP transport
// in tests.
type memRemote struct {
	mu     sync.Mutex
	peer   *World
	frames atomic.Int64
	bytes  atomic.Int64
}

func (r *memRemote) Deliver(src, dst, tag int, data any, size int64) error {
	r.frames.Add(1)
	r.bytes.Add(size)
	// The lock serializes concurrent senders like a connection write mutex
	// would; each sender's own sequence stays in order.
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peer.Inject(src, dst, tag, data, size)
}

func (r *memRemote) Flush() error { return nil } // Deliver holds nothing back

func (r *memRemote) Stats() (frames, bytes int64) { return r.frames.Load(), r.bytes.Load() }

// deadRemote is the link of a process whose far end died: once dead is set,
// deliveries and flushes fail.
type deadRemote struct {
	dead      atomic.Bool
	delivered atomic.Int64
}

func (r *deadRemote) Deliver(src, dst, tag int, data any, size int64) error {
	if r.dead.Load() {
		return errors.New("link gone")
	}
	r.delivered.Add(1)
	return nil
}

func (r *deadRemote) Flush() error {
	if r.dead.Load() {
		return errors.New("link gone")
	}
	return nil
}

func (r *deadRemote) Stats() (frames, bytes int64) { return r.delivered.Load(), 0 }

// TestRankExitFlushFailurePoisons: the flush World.Run makes after a rank's
// function returns runs outside any trap the function set up, so a link
// that dies under a finished rank must not panic the process there. The
// flush of the Remote and the delivery of a held-back message both fail
// after fn returns; Run comes back, and the world is poisoned with the
// failure, which is what wakes any local rank still waiting on that link.
func TestRankExitFlushFailurePoisons(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"flush", nil},
		{"held message", []Option{WithFaults(FaultPlan{Seed: 1, ReorderProb: 1, ReorderDepth: 1})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &deadRemote{}
			w, err := NewPartialWorld(2, []int{0}, r, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			w.Run(func(c *Comm) {
				c.Send(1, 3, 1.5)
				r.dead.Store(true)
			})
			select {
			case <-w.poison:
			default:
				t.Fatal("a failed exit flush left the world unpoisoned")
			}
			if !strings.Contains(w.poisonWhy, "link gone") || !strings.Contains(w.poisonWhy, "rank 0") {
				t.Fatalf("poisoned with %q, want the failure naming rank 0", w.poisonWhy)
			}
		})
	}
}

// splitWorlds returns two partial worlds covering ranks [0,cut) and
// [cut,p), bridged by in-memory remotes.
func splitWorlds(t *testing.T, p, cut int, opts ...Option) (*World, *World) {
	t.Helper()
	ra, rb := &memRemote{}, &memRemote{}
	var lo, hi []int
	for r := 0; r < p; r++ {
		if r < cut {
			lo = append(lo, r)
		} else {
			hi = append(hi, r)
		}
	}
	wa, err := NewPartialWorld(p, lo, ra, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewPartialWorld(p, hi, rb, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ra.peer, rb.peer = wb, wa
	return wa, wb
}

// runBoth runs fn on every rank across both partial worlds and waits.
func runBoth(wa, wb *World, fn func(c *Comm)) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); wa.Run(fn) }()
	go func() { defer wg.Done(); wb.Run(fn) }()
	wg.Wait()
}

// TestPartialWorldMatchesFullWorld runs the same SPMD program — point to
// point ring exchange plus the collective census paths — on a full world
// and on a pair of bridged partial worlds, and requires identical results.
func TestPartialWorldMatchesFullWorld(t *testing.T) {
	const p = 4
	program := func(c *Comm, out []float64) {
		r := c.Rank()
		next, prev := (r+1)%p, (r+p-1)%p
		c.SendSized(next, 1, float64(r*10), 8)
		got := c.Recv(prev, 1).(float64)

		sum := c.AllreduceFloat64(float64(r)+got/100, Sum)
		all := c.Allgather(float64(r * r))
		mx := c.AllreduceInt64(int64(r), func(a, b int64) int64 { return max(a, b) })
		bc := c.Allgather(r)[2].(int)

		acc := got + sum + float64(mx) + float64(bc)
		for i, v := range all {
			acc += v.(float64) * float64(i+1)
		}
		out[r] = acc
	}

	full, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, p)
	full.Run(func(c *Comm) { program(c, want) })

	wa, wb := splitWorlds(t, p, 2)
	got := make([]float64, p)
	runBoth(wa, wb, func(c *Comm) { program(c, got) })

	for r := 0; r < p; r++ {
		if got[r] != want[r] {
			t.Fatalf("rank %d: partial=%v full=%v", r, got[r], want[r])
		}
	}

	// Sender-side counting: summing the two partial worlds' message
	// counters must equal the full world's.
	fm, fb := full.Stats()
	am, ab := wa.Stats()
	bm, bb := wb.Stats()
	if am+bm != fm || ab+bb != fb {
		t.Fatalf("stats mismatch: partial %d msgs/%d bytes vs full %d/%d", am+bm, ab+bb, fm, fb)
	}

	if err := wa.Quiesced(); err != nil {
		t.Fatalf("partial world A not quiesced: %v", err)
	}
	if err := wb.Quiesced(); err != nil {
		t.Fatalf("partial world B not quiesced: %v", err)
	}
}

// TestPartialWorldFaultPlanMatchesFull replays a chaos plan on split
// worlds: the per-link RNG streams are placement-independent, so the
// healed delivery order — and therefore the program result — must match
// the full-world run bit for bit.
func TestPartialWorldFaultPlanMatchesFull(t *testing.T) {
	const p = 4
	plan := FaultPlan{Seed: 99, DelayProb: 0.2, MaxDelay: 100_000, ReorderProb: 0.3}

	program := func(c *Comm, out []int64) {
		r := c.Rank()
		var acc int64
		for round := 0; round < 20; round++ {
			for _, dst := range []int{(r + 1) % p, (r + 2) % p} {
				c.SendSized(dst, 3+round%2, int64(r*1000+round), 8)
			}
			for _, src := range []int{(r + p - 1) % p, (r + p - 2) % p} {
				acc = acc*31 + c.Recv(src, 3+round%2).(int64)
			}
		}
		out[r] = acc + c.AllreduceInt64(acc, SumI)
	}

	full, err := NewWorld(p, WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, p)
	full.Run(func(c *Comm) { program(c, want) })

	wa, wb := splitWorlds(t, p, 2, WithFaults(plan))
	got := make([]int64, p)
	runBoth(wa, wb, func(c *Comm) { program(c, got) })

	for r := 0; r < p; r++ {
		if got[r] != want[r] {
			t.Fatalf("rank %d under faults: partial=%d full=%d", r, got[r], want[r])
		}
	}

	// Placement-independent link streams: summed fault counters match.
	fs, as, bs := full.FaultStats(), wa.FaultStats(), wb.FaultStats()
	sum := FaultStats{
		Delays:   as.Delays + bs.Delays,
		Reorders: as.Reorders + bs.Reorders,
		Stalls:   as.Stalls + bs.Stalls,
	}
	if sum != fs {
		t.Fatalf("fault stats mismatch: partial sum %+v vs full %+v", sum, fs)
	}
}

func TestPartialWorldGuards(t *testing.T) {
	wa, _ := splitWorlds(t, 4, 2)

	if err := wa.Inject(0, 3, 1, "x", 1); err == nil {
		t.Fatal("inject to a remote rank must error")
	}
	if err := wa.Inject(0, 7, 1, "x", 1); err == nil {
		t.Fatal("inject out of range must error")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("Comm(remote rank)", func() { wa.Comm(3) })

	if _, err := NewPartialWorld(4, []int{0, 1}, nil); err == nil {
		t.Fatal("nil remote must error")
	}
	if _, err := NewPartialWorld(4, nil, &memRemote{}); err == nil {
		t.Fatal("empty local set must error")
	}
	if _, err := NewPartialWorld(4, []int{0, 0}, &memRemote{}); err == nil {
		t.Fatal("duplicate local rank must error")
	}
	if _, err := NewPartialWorld(4, []int{4}, &memRemote{}); err == nil {
		t.Fatal("out-of-range local rank must error")
	}

	got := wa.Local()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Local() = %v, want [0 1]", got)
	}
}

func TestTransportStats(t *testing.T) {
	full, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	full.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendSized(1, 1, "m", 5)
		} else {
			c.Recv(0, 1)
		}
	})
	ts := full.TransportStats()
	if ts.Frames != 1 || ts.Bytes != 5 {
		t.Fatalf("full world transport stats: %+v", ts)
	}

	wa, wb := splitWorlds(t, 4, 2)
	runBoth(wa, wb, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendSized(1, 1, "local", 3) // stays in-process
			c.SendSized(2, 1, "wire", 7)  // crosses the remote
		case 1:
			c.Recv(0, 1)
		case 2:
			c.Recv(0, 1)
		}
	})
	ta := wa.TransportStats()
	if ta.Frames != 1 || ta.Bytes != 7 {
		t.Fatalf("partial world A transport stats: %+v (want only the cross-process send)", ta)
	}
	if tb := wb.TransportStats(); tb.Frames != 0 || tb.Bytes != 0 {
		t.Fatalf("partial world B transport stats: %+v (sent nothing remote)", tb)
	}
}
