package kernel

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// kernelOut is everything one Compute produces.
type kernelOut struct {
	frc, ghost       []vec.V // hosted forces; returned ghost forces, ghost cells ascending
	pot, vir         float64
	pairs, evaluated int64
}

// diff names the first output of o that does not carry want's bits (two
// NaNs agree), or returns "".
func (o kernelOut) diff(want kernelOut) string {
	switch {
	case o.pairs != want.pairs || o.evaluated != want.evaluated:
		return fmt.Sprintf("pairs %d evaluated %d, want %d %d", o.pairs, o.evaluated, want.pairs, want.evaluated)
	case !sameOrNaN(vec.New(o.pot, o.vir, 0), vec.New(want.pot, want.vir, 0)):
		return fmt.Sprintf("pot %v vir %v, want %v %v", o.pot, o.vir, want.pot, want.vir)
	}
	for i, f := range o.frc {
		if !sameOrNaN(f, want.frc[i]) {
			return fmt.Sprintf("force %d: %v, want %v", i, f, want.frc[i])
		}
	}
	for i, f := range o.ghost {
		if !sameOrNaN(f, want.ghost[i]) {
			return fmt.Sprintf("ghost force %d: %v, want %v", i, f, want.ghost[i])
		}
	}
	return ""
}

// outputOf reads what the last Compute on cl left in s and in the ghost arena.
func outputOf(cl *CellLists, s *particle.Set, pot, vir float64, pairs int64) kernelOut {
	o := kernelOut{frc: slices.Clone(s.Frc), pot: pot, vir: vir, pairs: pairs, evaluated: cl.Evaluated()}
	for _, gc := range cl.GhostCells() {
		o.ghost = append(o.ghost, cl.GhostForces(gc)...)
	}
	return o
}

// localOf is the set of the particles of global in cells pred selects, in
// global order.
func localOf(g space.Grid, global []vec.V, pred func(cell int) bool) *particle.Set {
	s := &particle.Set{}
	for i, p := range global {
		if pred(g.CellOf(p)) {
			s.Add(int64(i), p, vec.Zero)
		}
	}
	return s
}

// workerDomain is one state the search worker count must not move a bit of.
type workerDomain struct {
	name   string
	g      space.Grid
	global []vec.V
	pred   func(cell int) bool
}

// workerDomains returns the lattice and disordered 50k states the kernel
// benchmarks time, a condensed domain whose crowded cell pairs exceed the
// hit buffer (so a searcher stops short of a chunk's end), a split domain
// with ghosts on every side, and a gas with a NaN coordinate.
func workerDomains(t *testing.T) []workerDomain {
	t.Helper()
	all := func(int) bool { return true }
	var out []workerDomain

	pr, err := kernelPresetByName("50k")
	if err != nil {
		t.Fatal(err)
	}
	sys, g, err := pr.Build()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, workerDomain{"lattice", g, slices.Clone(sys.Set.Pos), all})
	r := rng.New(50) // BenchmarkKernelDisordered's state
	for i, p := range sys.Set.Pos {
		sys.Set.Pos[i] = g.Box.Wrap(p.Add(vec.New(r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1))))
	}
	out = append(out, workerDomain{"disordered", g, sys.Set.Pos, all})

	pr, err = kernelPresetByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	sys, g, err = pr.Build()
	if err != nil {
		t.Fatal(err)
	}
	r = rng.New(3)
	crowded := slices.Clone(sys.Set.Pos)
	crowded = crowd(crowded, g, 0, 2, 2, 320, r)
	crowded = crowd(crowded, g, 1, 2, 2, 320, r)
	crowded = crowd(crowded, g, g.Nx-1, 2, 2, 320, r)
	if 320*320 <= hitCap {
		t.Fatal("the crowded cell pair fits the hit buffer")
	}
	west := func(cell int) bool { ix, _, _ := g.Coords(cell); return ix < g.Nx/2 }
	out = append(out, workerDomain{"condensed", g, crowded, west})

	r = rng.New(20)
	jiggled := slices.Clone(sys.Set.Pos)
	for i := range jiggled {
		jiggled[i] = g.Box.Wrap(jiggled[i].Add(vec.New(r.Uniform(-0.3, 0.3), r.Uniform(-0.3, 0.3), r.Uniform(-0.3, 0.3))))
	}
	hostedCols := make([]bool, g.Nx*g.Ny)
	for col := range hostedCols {
		hostedCols[col] = r.Float64() < 0.5
	}
	out = append(out, workerDomain{"split", g, jiggled, func(cell int) bool { return hostedCols[g.ColumnOf(cell)] }})

	g6 := gridOf(t, 6, 6, 6)
	nan := randomGas(g6, 500, 11)
	nan[17].Y = math.NaN()
	out = append(out, workerDomain{"NaN", g6, nan, all})
	return out
}

// TestSearchWorkersBitIdentical: forces, returned ghost forces, energy,
// virial and both counts carry the same bits with the Go search leaf and
// with the vector one, each cell unit by unit and, where the CPU has the
// cell leaf, whole cells in one call, each with the Go accumulate loop
// forced and with the vector accumulate leaf, at 1, 2, 3 and 8 search
// workers, over several passes each (the workers split each pass
// differently), and a NaN coordinate still reaches the forces.
func TestSearchWorkersBitIdentical(t *testing.T) {
	lj := potential.NewPaperLJ()
	selected, selectedAcc, selectedWhole := searchLeaf, accumulateLJ, wholeCells
	t.Cleanup(func() { searchLeaf, accumulateLJ, wholeCells = selected, selectedAcc, selectedWhole })
	under, accs := leaves(t), accumulates(t)
	for _, l := range under {
		if l.name == "vector" {
			if _, ok := vectorCellLeaf(); ok {
				under = append(under, namedLeaf{"vector per-cell", l.leaf})
			}
		}
	}
	for _, d := range workerDomains(t) {
		local := localOf(d.g, d.global, d.pred)
		t.Run(d.name, func(t *testing.T) {
			var want kernelOut
			first := true
			for _, l := range under {
				for _, acc := range accs {
					searchLeaf, accumulateLJ = l.leaf, acc.leaf
					wholeCells = l.name == "vector per-cell"
					for _, workers := range []int{1, 2, 3, 8} {
						s := local.Clone()
						cl := buildFlat(t, d.g, s, d.global, d.pred)
						cl.SetSearchWorkers(workers)
						for pass := range 3 {
							s.ZeroForces()
							pot, vir, pairs := cl.Compute(lj, s)
							got := outputOf(cl, s, pot, vir, pairs)
							if first {
								want, first = got, false
							} else if msg := got.diff(want); msg != "" {
								t.Fatalf("%s search leaf, %s accumulate, workers=%d pass %d: %s", l.name, acc.name, workers, pass, msg)
							}
						}
						cl.Close()
					}
				}
			}
			if d.name == "NaN" {
				poisoned := 0
				for _, f := range want.frc {
					if !f.IsFinite() {
						poisoned++
					}
				}
				if poisoned < 2 {
					t.Fatalf("%d forces poisoned: the NaN never reached the accumulators", poisoned)
				}
			}
		})
	}
}

// TestSegmentsResumeBitForBit drives the owner's side of the pipeline on a
// fixed schedule, whatever the scheduler does: before the owner starts, the
// first k chunks are searched into ring segments as a helper would (up to a
// full ring), so the owner takes them in from the segments and searches on
// where each stopped. On the condensed domain a segment stops short of its
// chunk's end at the crowded cells. The result must carry the one-worker
// bits.
func TestSegmentsResumeBitForBit(t *testing.T) {
	lj := potential.NewPaperLJ()
	for _, d := range workerDomains(t) {
		if d.name == "lattice" {
			continue // the disordered state has the same chunks
		}
		local := localOf(d.g, d.global, d.pred)
		t.Run(d.name, func(t *testing.T) {
			s := local.Clone()
			s.ZeroForces()
			cl := buildFlat(t, d.g, s, d.global, d.pred)
			pot, vir, pairs := cl.Compute(lj, s)
			want := outputOf(cl, s, pot, vir, pairs)

			cl.SetSearchWorkers(2)
			cl.ensurePool() // the rings; the idle helper is never released here
			stopped := false
			for _, k := range []int{1, 3, ringLen, ringLen + 1} {
				s.ZeroForces()
				cl.begin(lj)
				f := &cl.feed
				for range k {
					c := f.claim()
					if c < 0 {
						break // the ring is full until the owner takes a chunk in
					}
					cl.searchAhead(c)
					_, hi := f.chunk(c)
					stopped = stopped || f.ring[c%ringLen].stop.i < hi
				}
				pot, vir, pairs := cl.force(s.Frc)
				got := outputOf(cl, s, pot, vir, pairs)
				if msg := got.diff(want); msg != "" {
					t.Fatalf("%d chunks searched ahead: %s", k, msg)
				}
			}
			if d.name == "condensed" && !stopped {
				t.Fatal("no segment stopped short of its chunk: the resume path went untested")
			}
		})
	}
}

// panicPair is the paper's potential until its budget of evaluations runs
// out, then it panics: an owner dying halfway through a force pass.
type panicPair struct {
	*potential.LJ
	left *int
}

func (p panicPair) EnergyForce(r2 float64) (e, f float64) {
	if *p.left--; *p.left < 0 {
		panic("pair budget spent")
	}
	return p.LJ.EnergyForce(r2)
}

// TestCloseAfterAbandonedPass: when the owner panics in the middle of a pass
// and both helpers have gone to sleep on the full ring, where nothing will
// free a segment, Close still stops every helper and returns. Without its
// stop flag the helpers would wait on the ring for ever and Close with them.
func TestCloseAfterAbandonedPass(t *testing.T) {
	pr, err := kernelPresetByName("50k")
	if err != nil {
		t.Fatal(err)
	}
	sys, g, err := pr.Build()
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	base := runtime.NumGoroutine()
	cl := NewCellLists(g, 1)
	cl.SetSearchWorkers(3)
	cl.SetHosted(cells)
	cl.SealGhosts()
	if bad := cl.Bin(sys.Set.Pos); bad >= 0 {
		t.Fatal("bin failed")
	}
	budget := 5000
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the pass finished: the pair never panicked")
			}
		}()
		cl.Compute(panicPair{potential.NewPaperLJ(), &budget}, sys.Set)
	}()
	for deadline := time.Now().Add(10 * time.Second); cl.parked.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 helpers asleep on the full ring", cl.parked.Load())
		}
	}
	cl.Close()
	for range 500 { // an exited goroutine may still be counted for a moment
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%d goroutines live after Close, %d before the pool started", runtime.NumGoroutine(), base)
}
