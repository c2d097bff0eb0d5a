package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"permcell/internal/balance"
	"permcell/internal/comm"
	"permcell/internal/decomp"
	"permcell/internal/dlb"
	"permcell/internal/kernel"
	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/supervise"
	"permcell/internal/topology"
	"permcell/internal/vec"
)

// rankPlan is one rank's plan as newPE and refreshTopology build it, stood
// up without an engine around it.
type rankPlan struct {
	nbs  []int
	plan *plan
	need map[int][]int // the need-list oracle: host -> ghost cells, ascending
}

// buildRankPlan builds rank's plan over own, and next to it the need-list
// the request round used to build every step — the ghost cells grouped by
// their host — which is what a neighbor was asked for and so what the plan's
// lists must reproduce.
func buildRankPlan(g space.Grid, p, rank int, own ownership) rankPlan {
	rp := rankPlan{nbs: own.neighbors(), need: make(map[int][]int)}
	cl := kernel.NewCellLists(g, 1)
	cl.SetHosted(own.hostedCells(nil))
	rp.plan = newPlan(g.NumCells(), p, rp.nbs)
	rp.plan.rebuild(rank, own, cl)
	for _, nc := range cl.GhostCells() {
		host, err := own.hostOf(nc)
		if err != nil {
			panic(err)
		}
		rp.need[host] = append(rp.need[host], nc)
	}
	return rp
}

func sendCells(blocks []cellBlock) []int {
	cells := make([]int, len(blocks))
	for i := range blocks {
		cells[i] = blocks[i].Cell
	}
	return cells
}

// checkPlansMirror holds every pair of ranks to the plan's premise: what a
// sends b is what b expects from a, cell for cell, and both are the
// need-list b would have sent a. It also checks that neighborhood itself is
// mutual and that every need-list names a neighbor.
func checkPlansMirror(t *testing.T, plans []rankPlan) {
	t.Helper()
	for a, pa := range plans {
		for host := range pa.need {
			if !slices.Contains(pa.nbs, host) {
				t.Fatalf("rank %d needs cells of %d, which is not among its neighbors %v", a, host, pa.nbs)
			}
		}
		for ka, b := range pa.nbs {
			pb := plans[b]
			kb := slices.Index(pb.nbs, a)
			if kb < 0 {
				t.Fatalf("rank %d lists %d as a neighbor but not the other way round", a, b)
			}
			send, recv, need := sendCells(pa.plan.send[ka]), sendCells(pb.plan.recv[kb]), pb.need[a]
			if !slices.Equal(send, recv) {
				t.Fatalf("rank %d sends %d the cells %v, which expects %v", a, b, send, recv)
			}
			if !slices.Equal(recv, need) {
				t.Fatalf("rank %d expects the cells %v of %d, the need-list was %v", b, recv, a, need)
			}
			if !slices.IsSorted(send) {
				t.Fatalf("rank %d's send list to %d is not ascending: %v", a, b, send)
			}
		}
	}
}

func planGrid(t *testing.T, nc int) space.Grid {
	t.Helper()
	box, err := space.NewCubicBox(float64(nc) * 2.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHaloPlanSymmetric checks the mirror property on every ownership map
// the engine runs over: the three static shapes, and the column ledgers
// after random sequences of legal balancer decisions — every registered
// balancer deciding from random but mutually consistent load pictures, the
// decisions applied to every ledger the way balanceStep applies them.
func TestHaloPlanSymmetric(t *testing.T) {
	statics := []struct {
		shape decomp.Shape
		p, nc int
	}{
		{decomp.Plane, 4, 4}, {decomp.Plane, 9, 9}, {decomp.Plane, 16, 16},
		{decomp.SquarePillar, 4, 4}, {decomp.SquarePillar, 9, 6}, {decomp.SquarePillar, 16, 8},
		// No cube of 4, 9 or 16 PEs exists; 8 is the cube the engine tests run.
		{decomp.Cube, 8, 4},
	}
	for _, c := range statics {
		t.Run(fmt.Sprintf("%v/P=%d", c.shape, c.p), func(t *testing.T) {
			g := planGrid(t, c.nc)
			d, err := decomp.New(c.shape, g, c.p)
			if err != nil {
				t.Fatal(err)
			}
			plans := make([]rankPlan, c.p)
			for r := range plans {
				plans[r] = buildRankPlan(g, c.p, r, fixedOwner{d: d, rank: r})
			}
			checkPlansMirror(t, plans)
		})
	}

	for name, b := range coreZoo() {
		for _, c := range []struct{ s, m int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 2}, {4, 3}} {
			t.Run(fmt.Sprintf("%s/P=%d/m=%d", name, c.s*c.s, c.m), func(t *testing.T) {
				layout, err := dlb.NewLayout(c.s, c.m)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Validate(layout); err != nil {
					t.Skipf("balancer does not run on this layout: %v", err)
				}
				p := layout.P()
				g := planGrid(t, c.s*c.m)
				ledgers := make([]*dlb.Ledger, p)
				deciders := make([]balance.Decider, p)
				owners := make([]*ledgerOwner, p)
				for r := range ledgers {
					ledgers[r] = dlb.NewLedger(layout, r)
					deciders[r] = b.NewDecider(layout, r)
					owners[r] = &ledgerOwner{g: g, lg: ledgers[r]}
				}
				rnd := rng.New(uint64(7 + 31*c.s + c.m))
				moved := 0
				for epoch := 0; epoch < 25; epoch++ {
					// One load picture for the whole torus, so that what
					// two ranks believe about a third agrees.
					peLoad := make([]float64, p)
					for r := range peLoad {
						peLoad[r] = rnd.Uniform(1, 100)
					}
					colLoad := make([]float64, layout.NumColumns())
					for col := range colLoad {
						colLoad[col] = rnd.Uniform(0, 10)
					}
					decisions := make([][]dlb.Decision, p)
					for r := range decisions {
						obs := balance.Observation{Self: peLoad[r], ColLoad: func(col int) float64 { return colLoad[col] }}
						pi, pj := layout.T.Coords(r)
						for k, off := range topology.Offsets8 {
							obs.Neighbor[k] = peLoad[layout.T.Rank(pi+off.DI, pj+off.DJ)]
						}
						if b.Scope() == balance.ScopeGlobal {
							obs.PELoad = peLoad
						}
						decisions[r] = deciders[r].Decide(ledgers[r], obs)
						moved += len(decisions[r])
					}
					for r, lg := range ledgers {
						for _, d := range decisions[r] {
							if err := lg.Apply(r, d); err != nil {
								t.Fatalf("epoch %d: rank %d self-apply: %v", epoch, r, err)
							}
						}
						for _, nb := range owners[r].neighbors() {
							for _, d := range decisions[nb] {
								if err := lg.Apply(nb, d); err != nil {
									t.Fatalf("epoch %d: rank %d applying %d's decision: %v", epoch, r, nb, err)
								}
							}
						}
					}
					plans := make([]rankPlan, p)
					for r := range plans {
						if err := ledgers[r].CheckInvariants(); err != nil {
							t.Fatalf("epoch %d: %v", epoch, err)
						}
						plans[r] = buildRankPlan(g, p, r, owners[r])
					}
					checkPlansMirror(t, plans)
				}
				if moved == 0 {
					t.Fatal("no column ever moved: the ledgers were only checked at home")
				}
			})
		}
	}
}

// TestHaloReplyTamperPanics corrupts one halo reply on its way between two
// rank blocks — short, long, misordered, repeated, or carrying a cell the
// receiver hosts itself — and requires the receiving rank to fail with a
// panic that names itself, the sender and the cell, surfacing as the typed
// rank failure. Before the plan a reply was staged as it came, and a cell
// it left out was silently empty.
func TestHaloReplyTamperPanics(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(b []cellBlock) ([]cellBlock, string)
	}{
		{"short", func(b []cellBlock) ([]cellBlock, string) {
			return b[:len(b)-1], fmt.Sprintf("ends before cell %d", b[len(b)-1].Cell)
		}},
		{"long", func(b []cellBlock) ([]cellBlock, string) {
			return append(b, cellBlock{Cell: b[0].Cell}), fmt.Sprintf("carries cell %d after the %d cells", b[0].Cell, len(b))
		}},
		{"misordered", func(b []cellBlock) ([]cellBlock, string) {
			want := fmt.Sprintf("carries cell %d where the plan expects cell %d", b[1].Cell, b[0].Cell)
			b[0], b[1] = b[1], b[0]
			return b, want
		}},
		{"repeated", func(b []cellBlock) ([]cellBlock, string) {
			want := fmt.Sprintf("carries cell %d where the plan expects cell %d", b[0].Cell, b[1].Cell)
			b[1] = b[0]
			return b, want
		}},
		{"not a ghost", func(b []cellBlock) ([]cellBlock, string) {
			// Cell ids are dense, so the id after the reply's last cell is
			// either a cell of another rank or one the receiver hosts.
			last := &b[len(b)-1]
			want := fmt.Sprintf("carries cell %d where the plan expects cell %d", last.Cell+1, last.Cell)
			last.Cell++
			return b, want
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			expectTamperPanic(t, tagHalo, "halo reply", func(data any) (any, string) {
				return c.mutate(slices.Clone(data.([]cellBlock)))
			})
		})
	}
}

// expectTamperPanic runs the split instantiation with the third message
// under tag on the link from rank 0 to rank 2 — the second step's, the run
// being two exchanges old by then — replaced by what mutate makes of it, and
// requires the receiver to fail with a panic that names itself, the sender,
// the message (what) and mutate's fragment, surfacing as the typed rank
// failure.
func expectTamperPanic(t *testing.T, tag int, what string, mutate func(data any) (any, string)) {
	t.Helper()
	const src, dst = 0, 2 // ranks 0,1 and 2,3 are the two blocks
	sys, g := testSystem(t, 4, 0.3, 7)
	in := instantiation{name: "split", p: 4, split: 2}
	var seen atomic.Int32
	var want atomic.Value
	in.tamper = func(s, d, tg int, data any) any {
		if s != src || d != dst || tg != tag || seen.Add(1) != 3 {
			return data
		}
		out, msg := mutate(data)
		want.Store(msg)
		return out
	}
	cfg := in.config(t, g)
	cfg.Watchdog = 50 * time.Millisecond // unwedges the block that did not fail
	r := in.start(t, cfg, sys)
	err := r.Step(3)
	var rf *supervise.RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("Step error = %v, want *supervise.RankFailure", err)
	}
	if rf.Rank != dst {
		t.Errorf("failed rank = %d, want the receiver %d", rf.Rank, dst)
	}
	for _, frag := range []string{fmt.Sprintf("rank %d: %s from %d", dst, what, src), want.Load().(string)} {
		if !strings.Contains(rf.Value, frag) {
			t.Errorf("panic %q does not say %q", rf.Value, frag)
		}
	}
	if _, ferr := r.Finish(); !errors.As(ferr, &rf) {
		t.Errorf("Finish error = %v, want the rank failure", ferr)
	}
}

// TestForceReturnTamperPanics does to a force return what
// TestHaloReplyTamperPanics does to a halo reply: a cell missing, one too
// many, two out of order, or a cell's forces not as many as the positions
// sent for it, each a panic on the receiving rank — never forces added to
// the wrong particles, or a cell's share of Newton's third law dropped.
func TestForceReturnTamperPanics(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(b []cellBlock) ([]cellBlock, string)
	}{
		{"missing cell", func(b []cellBlock) ([]cellBlock, string) {
			return b[:len(b)-1], fmt.Sprintf("ends before cell %d", b[len(b)-1].Cell)
		}},
		{"extra cell", func(b []cellBlock) ([]cellBlock, string) {
			return append(b, cellBlock{Cell: b[0].Cell}), fmt.Sprintf("carries cell %d after the %d cells", b[0].Cell, len(b))
		}},
		{"reordered", func(b []cellBlock) ([]cellBlock, string) {
			want := fmt.Sprintf("carries cell %d where the plan expects cell %d", b[1].Cell, b[0].Cell)
			b[0], b[1] = b[1], b[0]
			return b, want
		}},
		{"wrong force count", func(b []cellBlock) ([]cellBlock, string) {
			i := slices.IndexFunc(b, func(blk cellBlock) bool { return len(blk.Pos) > 0 })
			want := fmt.Sprintf("carries %d forces for cell %d, sent with %d positions", len(b[i].Pos)-1, b[i].Cell, len(b[i].Pos))
			b[i].Pos = b[i].Pos[1:]
			return b, want
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			expectTamperPanic(t, tagForce, "force return", func(data any) (any, string) {
				ret := data.(forceReturn)
				cells, msg := c.mutate(slices.Clone(ret.Cells))
				return forceReturn{Load: ret.Load, Cells: cells}, msg
			})
		})
	}
}

// TestStepAllocsSteadyState bounds what one Step(1) of a static pillar run
// at P=4 allocates, over all four rank goroutines and the driver. What is
// left is the census (a gather of boxed records and what rank 0 folds them
// into) and one interface box per non-empty message: 35 objects. The
// driver's per-command channels and goroutines made it 39 until the driver
// collected the acks itself; 28 before the force return gave every
// neighbor link a third (boxed) message a step.
// With the need-list round — a map, its lists, fresh reply blocks and
// positions, eight boxed messages per rank — the same step allocated 299,
// so a per-step map or list coming back fails here, not in a benchmark.
func TestStepAllocsSteadyState(t *testing.T) {
	const bound = 60
	sys, g := testSystem(t, 4, 0.3, 7)
	cfg := staticConfig(t, decomp.SquarePillar, 4, g)
	e, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Finish()
	if err := e.Step(20); err != nil { // past buffer growth
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.Step(1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Step(1)", allocs)
	if allocs > bound {
		t.Errorf("Step(1) allocates %.0f objects, bound %d", allocs, bound)
	}
}

// TestPlanPackReusesItsArena pins the send side's buffer contract: packing
// the same reply twice returns the same blocks over the same backing array,
// with every block a capacity-clipped window of it — and the same for the
// force return, whose blocks are windows of the kernel's ghost accumulator.
func TestPlanPackReusesItsArena(t *testing.T) {
	sys, g := testSystem(t, 4, 0.3, 7)
	d, err := decomp.New(decomp.SquarePillar, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	own := fixedOwner{d: d, rank: 0}
	nbs := own.neighbors()
	cl := kernel.NewCellLists(g, 1)
	cl.SetHosted(own.hostedCells(nil))
	var mine []vec.V
	for _, p := range sys.Set.Pos {
		if d.OwnerOf(g.CellOf(p)) == 0 {
			mine = append(mine, p)
		}
	}
	if bad := cl.Bin(mine); bad >= 0 {
		t.Fatalf("particle %d binned outside rank 0", bad)
	}
	x := newPlan(g.NumCells(), 4, nbs)
	x.rebuild(0, own, cl)

	first, bytes := x.pack(0, cl, mine)
	n := 0
	for _, blk := range first {
		idx, _ := cl.CellParticles(blk.Cell)
		if len(blk.Pos) != len(idx) || cap(blk.Pos) != len(blk.Pos) {
			t.Fatalf("cell %d: block of %d positions (cap %d), cell holds %d", blk.Cell, len(blk.Pos), cap(blk.Pos), len(idx))
		}
		for k, j := range idx {
			if blk.Pos[k] != mine[j] {
				t.Fatalf("cell %d position %d is not particle %d's", blk.Cell, k, j)
			}
		}
		n += len(idx)
	}
	if n == 0 || bytes != int64(n)*24 {
		t.Fatalf("reply of %d positions counted as %d bytes", n, bytes)
	}
	if allocs := testing.AllocsPerRun(10, func() { x.pack(0, cl, mine) }); allocs != 0 {
		t.Errorf("a repeated pack allocates %v times", allocs)
	}

	// The force return to the same neighbor: one block per cell its halo
	// reply carries, each as long as what was staged for the cell.
	cl.ClearGhosts()
	staged := make(map[int]int)
	for i, gc := range cl.GhostCells() {
		staged[gc] = i % 3
		cl.StageGhost(gc, make([]vec.V, i%3))
	}
	cl.SealGhosts()
	set := particle.Set{Pos: mine, Frc: make([]vec.V, len(mine))}
	cl.Compute(potential.NewPaperLJ(), &set)
	ret, bytes := x.packReturn(0, cl, 42)
	if ret.Load != 42 || len(ret.Cells) != len(x.recv[0]) || len(ret.Cells) == 0 {
		t.Fatalf("return of %d cells with load %v, the plan expects %d cells of neighbor %d", len(ret.Cells), ret.Load, len(x.recv[0]), nbs[0])
	}
	n = 0
	for _, blk := range ret.Cells {
		if len(blk.Pos) != staged[blk.Cell] || cap(blk.Pos) != len(blk.Pos) {
			t.Fatalf("cell %d: %d forces (cap %d) for %d staged positions", blk.Cell, len(blk.Pos), cap(blk.Pos), staged[blk.Cell])
		}
		n += len(blk.Pos)
	}
	if n == 0 || bytes != int64(n)*24 {
		t.Fatalf("return of %d forces counted as %d bytes", n, bytes)
	}
	again, _ := x.packReturn(0, cl, 42)
	if &again.Cells[0] != &ret.Cells[0] {
		t.Error("a repeated packReturn hands out new blocks")
	}
	if allocs := testing.AllocsPerRun(10, func() { x.packReturn(0, cl, 42) }); allocs != 0 {
		t.Errorf("a repeated packReturn allocates %v times", allocs)
	}
}

// TestSendBufferReuseUnderReordering runs a balanced, migrating system under
// a fault plan that delays, holds back and reorders messages, with
// the census — the one collective that would otherwise line every rank up
// once a step — taken only every seventh step, and requires the records and
// the final state of the fault-free run bit for bit. Every halo reply,
// force return and migrate list in it is a buffer its sender refills a step
// later — the force return's blocks are windows of the kernel's own ghost
// accumulator, which the next Compute clears — so under the race detector
// (the CI step that runs this) a refill that could overlap a neighbor still
// reading is a reported race, not a rare wrong bit. A second fault seed and
// a sharded kernel (the accumulator is then reduced by the worker pool)
// widen the interleavings the force return is seen under.
func TestSendBufferReuseUnderReordering(t *testing.T) {
	sys, g := blobSystem(t, 6)
	for _, shards := range []int{1, 2} {
		run := func(faults *comm.FaultPlan) *Result {
			cfg := baseConfig(g, 9)
			cfg.Dt = 0.004
			cfg.Balancer = balance.PermanentCell{}
			cfg.StatsEvery = 7
			cfg.Shards = shards
			cfg.Faults = faults
			res, err := Run(cfg, sys, 42)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		clean := run(nil)
		moved := 0
		for _, st := range clean.Stats {
			moved += st.Moved
		}
		if moved == 0 {
			t.Fatal("no column moved: the plan was never rebuilt mid-run")
		}
		chaos := run(&comm.FaultPlan{
			Seed:      uint64(10 + shards),
			DelayProb: 0.05, MaxDelay: 200 * time.Microsecond,
			ReorderProb: 0.3, ReorderDepth: 3,
		})
		if chaos.Faults.Reorders == 0 || chaos.Faults.Delays == 0 {
			t.Fatalf("shards=%d: fault plan injected too little: %+v", shards, chaos.Faults)
		}
		if len(chaos.Stats) != len(clean.Stats) {
			t.Fatalf("shards=%d: %d records under faults, %d without", shards, len(chaos.Stats), len(clean.Stats))
		}
		for i := range clean.Stats {
			if !stepsEqualDeterministic(chaos.Stats[i], clean.Stats[i]) {
				t.Fatalf("shards=%d: record %d differs under the fault plan", shards, i)
			}
		}
		for i := range clean.Final.ID {
			if chaos.Final.ID[i] != clean.Final.ID[i] || chaos.Final.Pos[i] != clean.Final.Pos[i] || chaos.Final.Vel[i] != clean.Final.Vel[i] {
				t.Fatalf("shards=%d: particle %d differs under the fault plan", shards, clean.Final.ID[i])
			}
		}
	}
}
