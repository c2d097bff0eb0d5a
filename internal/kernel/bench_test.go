package kernel

import (
	"fmt"
	"runtime"
	"testing"

	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/space"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// Benchmarks comparing the historical map-based kernel against the flat
// CellLists kernel, per full step (re-bin + force pass). The map side
// rebuilds its per-cell slices the way the engines' rebuild() did every
// step: clear the map, re-register the hosted cells, append from scratch.

// benchSystem builds the Tiny-preset m=3 box: nc = m*sqrt(P) = 6 cells of
// side 2.5 per dimension, N = round(rho * L^3) = 1296 at rho = 0.384.
func benchSystem(b *testing.B) (workload.System, space.Grid) {
	b.Helper()
	sys, err := workload.LatticeGas(1296, 0.384, 0.722, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := space.NewGrid(sys.Box, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	if g.Nx != 6 || g.Ny != 6 || g.Nz != 6 {
		b.Fatalf("grid %dx%dx%d, want the Tiny 6x6x6", g.Nx, g.Ny, g.Nz)
	}
	return sys, g
}

func BenchmarkKernelMap(b *testing.B) {
	sys, g := benchSystem(b)
	lj := potential.NewPaperLJ()
	cellMap := make(map[int][]int)
	hosted := make(map[int]bool)
	for c := 0; c < g.NumCells(); c++ {
		hosted[c] = true
		cellMap[c] = nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		clear(cellMap)
		for c := 0; c < g.NumCells(); c++ {
			cellMap[c] = nil
		}
		for i := range sys.Set.Pos {
			c := g.CellOf(sys.Set.Pos[i])
			cellMap[c] = append(cellMap[c], i)
		}
		sys.Set.ZeroForces()
		mapPairForces(g, lj, sys.Set, cellMap, hosted, nil)
	}
}

func benchmarkKernelFlat(b *testing.B, shards int) {
	sys, g := benchSystem(b)
	lj := potential.NewPaperLJ()
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	cl := NewCellLists(g, shards)
	defer cl.Close()
	cl.SetHosted(cells)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if bad := cl.Bin(sys.Set.Pos); bad >= 0 {
			b.Fatal("bin failed")
		}
		sys.Set.ZeroForces()
		cl.Compute(lj, sys.Set)
	}
}

func BenchmarkKernelFlat(b *testing.B)        { benchmarkKernelFlat(b, 1) }
func BenchmarkKernelFlatShards2(b *testing.B) { benchmarkKernelFlat(b, 2) }
func BenchmarkKernelFlatShards8(b *testing.B) { benchmarkKernelFlat(b, 8) }

// searchWorkerAxis is the search-worker counts the kernel benchmarks run
// at: one, and one per core when that is more (run with -cpu 2 to see what
// a second core buys).
func searchWorkerAxis() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkKernelPresets runs the full bench matrix (kernelPresets:
// tiny plus the 50k/100k/200k paper-density systems) against the flat
// kernel at shard counts 1, 2 and 8, each with one search worker and with
// one per core. The large presets are where the force array no longer fits
// in cache and shard parallelism has work to amortize against. A developer
// tool (go test -run '^$' -bench BenchmarkKernel ./internal/kernel):
// changes are judged by bench/, not by these numbers.
func BenchmarkKernelPresets(b *testing.B) {
	for _, pr := range kernelPresets() {
		sys, g, err := pr.Build()
		if err != nil {
			b.Fatal(err)
		}
		cells := make([]int, g.NumCells())
		for c := range cells {
			cells[c] = c
		}
		for _, shards := range []int{1, 2, 8} {
			for _, workers := range searchWorkerAxis() {
				b.Run(fmt.Sprintf("%s/shards=%d/workers=%d", pr.Name, shards, workers), func(b *testing.B) {
					cl := NewCellLists(g, shards)
					defer cl.Close()
					cl.SetSearchWorkers(workers)
					cl.SetHosted(cells)
					cl.SealGhosts()
					b.ReportAllocs()
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						if bad := cl.Bin(sys.Set.Pos); bad >= 0 {
							b.Fatal("bin failed")
						}
						sys.Set.ZeroForces()
						cl.Compute(ljBench, sys.Set)
					}
				})
			}
		}
	}
}

var ljBench = potential.NewPaperLJ()

// BenchmarkKernelSetHosted times what an engine constructor pays for its
// topology: a fresh CellLists and the SetHosted walk over every cell of the
// grid, at the tiny and 50k presets' geometries (6^3 and 24^3 cells). A
// rebuild into a used CellLists — a DLB column move — allocates nothing at
// all; the allocations reported here are the constructor's own, and there
// are a handful of them whatever the cell count.
func BenchmarkKernelSetHosted(b *testing.B) {
	for _, name := range []string{"tiny", "50k"} {
		pr, err := kernelPresetByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := gridOf(b, pr.NC, pr.NC, pr.NC)
		cells := make([]int, g.NumCells())
		for c := range cells {
			cells[c] = c
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				cl := NewCellLists(g, 1)
				cl.SetHosted(cells)
				setHostedSink = cl
			}
		})
	}
}

var setHostedSink *CellLists

// BenchmarkKernelDisordered times the force pass alone on the 50k preset
// with every coordinate moved by up to ±1.0 — a fluid-like state in which
// the pairs inside the cut-off arrive at random among the rejected ones —
// at one search worker and at one per core.
// BenchmarkKernelPresets times the initial lattice, whose hit pattern
// repeats from cell to cell and flatters any branch predictor.
func BenchmarkKernelDisordered(b *testing.B) {
	pr, err := kernelPresetByName("50k")
	if err != nil {
		b.Fatal(err)
	}
	sys, g, err := pr.Build()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(50)
	for i, p := range sys.Set.Pos {
		sys.Set.Pos[i] = g.Box.Wrap(p.Add(vec.New(r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1))))
	}
	cells := make([]int, g.NumCells())
	for c := range cells {
		cells[c] = c
	}
	for _, workers := range searchWorkerAxis() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cl := NewCellLists(g, 1)
			defer cl.Close()
			cl.SetSearchWorkers(workers)
			cl.SetHosted(cells)
			cl.SealGhosts()
			if bad := cl.Bin(sys.Set.Pos); bad >= 0 {
				b.Fatal("bin failed")
			}
			var pairs int64
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sys.Set.ZeroForces()
				_, _, pairs = cl.Compute(ljBench, sys.Set)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
		})
	}
}
