package core

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/decomp"
	"permcell/internal/space"
	"permcell/internal/transport"
	"permcell/internal/workload"
)

// instantiation is one way of standing the step runtime up. The lifecycle,
// sabotage and batching tests run once over every entry: the runtime is one
// loop, so its contract may not depend on which ownership map it steps over
// or on how its ranks are dealt to blocks.
type instantiation struct {
	name string
	p    int
	// split > 0 deals the ranks to two blocks, [0,split) and [split,p),
	// joined by in-memory remotes.
	split int
	// static selects a fixed decomposition of the given shape instead of
	// the column ledger.
	static bool
	shape  decomp.Shape
	// tamper is handed to the remotes of a split run (see memRemote).
	tamper func(src, dst, tag int, data any) any
}

var instantiations = []instantiation{
	{name: "all-ranks", p: 4},
	{name: "split", p: 4, split: 2},
	{name: "plane", p: 4, static: true, shape: decomp.Plane},
	{name: "pillar", p: 4, static: true, shape: decomp.SquarePillar},
	{name: "cube", p: 8, static: true, shape: decomp.Cube},
}

// config returns the instantiation's engine configuration over g.
func (in instantiation) config(t *testing.T, g space.Grid) Config {
	t.Helper()
	cfg := baseConfig(g, in.p)
	if in.static {
		d, err := decomp.New(in.shape, g, in.p)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Decomp = d
	}
	return cfg
}

// memRemote bridges two rank blocks in memory: everything delivered to it
// crosses the boundary the way the tcp transport carries it — through the
// payload codec, encode on this side and decode on the other — and is
// injected into the peer block's world. Every split run thereby holds the
// codec to the bit-identical traces the lifecycle tests compare, and a
// payload type without a codec fails the send. The PEs already exchange
// halos while the second block is still being constructed, so delivery
// waits for the peer to be attached.
type memRemote struct {
	attached chan struct{}
	mu       sync.Mutex
	peer     *comm.World
	sent     map[reflect.Type]bool // dynamic types delivered so far
	frames   atomic.Int64
	// tamper, when set, may replace a decoded payload before it is
	// injected: the protocol-violation tests corrupt one message with it.
	tamper func(src, dst, tag int, data any) any
}

func (r *memRemote) Deliver(src, dst, tag int, data any, size int64) error {
	<-r.attached
	r.frames.Add(1)
	wire, err := transport.EncodePayload(data)
	if err != nil {
		return err
	}
	got, err := transport.DecodePayload(wire)
	if err != nil {
		return err
	}
	// Serialize concurrent senders like a connection write mutex would.
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sent == nil {
		r.sent = make(map[reflect.Type]bool)
	}
	r.sent[reflect.TypeOf(data)] = true
	if r.tamper != nil {
		got = r.tamper(src, dst, tag, got)
	}
	return r.peer.Inject(src, dst, tag, got, size)
}

func (r *memRemote) Flush() error { return nil } // Deliver holds nothing back

func (r *memRemote) Stats() (frames, bytes int64) { return r.frames.Load(), 0 }

// collect chains a recorder of the step records into cfg.OnStep, the way
// the facade keeps the trace: the engines keep none.
func collect(cfg *Config, into *[]StepStats) {
	hook := cfg.OnStep
	cfg.OnStep = func(st StepStats) {
		*into = append(*into, st)
		if hook != nil {
			hook(st)
		}
	}
}

// traced is an all-ranks Engine whose records are collected through
// OnStep and handed back in the Result on Finish.
type traced struct {
	*Engine
	stats []StepStats
}

func newTraced(cfg Config, sys workload.System) (*traced, error) {
	e := &traced{}
	collect(&cfg, &e.stats)
	var err error
	if e.Engine, err = NewEngine(cfg, sys); err != nil {
		return nil, err
	}
	return e, nil
}

// Stats returns the records collected so far.
func (e *traced) Stats() []StepStats { return e.stats }

func (e *traced) Finish() (*Result, error) {
	res, err := e.Engine.Finish()
	if res != nil {
		res.Stats = e.stats
	}
	return res, err
}

// Run executes steps time steps as one traced batch, torn down on failure.
// The input system is not modified.
func Run(cfg Config, sys workload.System, steps int) (*Result, error) {
	e, err := newTraced(cfg, sys)
	if err != nil {
		return nil, err
	}
	if err := e.Step(steps); err != nil {
		e.Finish() // best-effort release of the ranks; the Step error is the outcome
		return nil, err
	}
	return e.Finish()
}

// rig drives the blocks of one instantiation in lockstep, as the distrib
// coordinator drives its workers, and collects the records rank 0 emits.
type rig struct {
	blocks  []*Engine
	remotes []*memRemote // one per block of a split run
	stats   []StepStats
}

// start stands the instantiation up on sys.
func (in instantiation) start(t *testing.T, cfg Config, sys workload.System) *rig {
	t.Helper()
	r := &rig{}
	collect(&cfg, &r.stats)
	if in.split == 0 {
		e, err := NewEngine(cfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		r.blocks = []*Engine{e}
		return r
	}
	var lo, hi []int
	for r := 0; r < in.p; r++ {
		if r < in.split {
			lo = append(lo, r)
		} else {
			hi = append(hi, r)
		}
	}
	ra := &memRemote{attached: make(chan struct{}), tamper: in.tamper}
	rb := &memRemote{attached: make(chan struct{}), tamper: in.tamper}
	a, err := NewPartial(cfg, sys, lo, ra)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPartial(cfg, sys, hi, rb)
	if err != nil {
		t.Fatal(err)
	}
	ra.peer, rb.peer = b.World(), a.World()
	close(ra.attached)
	close(rb.attached)
	r.blocks, r.remotes = []*Engine{a, b}, []*memRemote{ra, rb}
	return r
}

// each runs fn on every block concurrently — the blocks of a split run wait
// on each other inside a command — and joins their errors.
func (r *rig) each(fn func(i int, e *Engine) error) error {
	errs := make([]error, len(r.blocks))
	var wg sync.WaitGroup
	for i, e := range r.blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, e)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *rig) Step(n int) error {
	return r.each(func(_ int, e *Engine) error { return e.Step(n) })
}

// Snapshot assembles the blocks' frames into one state in rank order.
func (r *rig) Snapshot() (*checkpoint.EngineState, error) {
	if len(r.blocks) == 1 {
		return r.blocks[0].Snapshot()
	}
	parts := make([][]checkpoint.Frame, len(r.blocks))
	err := r.each(func(i int, e *Engine) (err error) {
		parts[i], err = e.SnapshotLocal()
		return err
	})
	if err != nil {
		return nil, err
	}
	st := &checkpoint.EngineState{Step: r.blocks[0].AbsStep()}
	for i, e := range r.blocks {
		st.Frames = append(st.Frames, parts[i]...)
		msgs, bytes := e.World().Stats()
		st.CommMsgs += msgs
		st.CommBytes += bytes
	}
	sort.Slice(st.Frames, func(a, b int) bool { return st.Frames[a].Rank < st.Frames[b].Rank })
	return st, nil
}

// Stats returns the records collected so far.
func (r *rig) Stats() []StepStats { return r.stats }

// Finish finishes every block and returns the rank-0 block's Result with
// the collected records.
func (r *rig) Finish() (*Result, error) {
	results := make([]*Result, len(r.blocks))
	err := r.each(func(i int, e *Engine) (err error) {
		results[i], err = e.Finish()
		return err
	})
	if results[0] != nil {
		results[0].Stats = r.stats
	}
	return results[0], err
}
