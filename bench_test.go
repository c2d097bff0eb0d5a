package permcell_test

// One benchmark per table/figure of the paper's evaluation section (at the
// Tiny preset so the whole suite runs in minutes; use cmd/figures
// -scale small|full for the larger reproductions), plus micro-benchmarks of
// the performance-critical kernels and ablation benches for the design
// choices called out in DESIGN.md section 5.

import (
	"fmt"
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/comm"
	"permcell/internal/core"
	"permcell/internal/decomp"
	"permcell/internal/dlb"
	"permcell/internal/experiments"
	"permcell/internal/mdserial"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/topology"
	"permcell/internal/units"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// ---- Figure / table reproductions -------------------------------------

func BenchmarkFig5a(b *testing.B) {
	pr := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(pr, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DDMGrowth(), "ddm-growth")
		b.ReportMetric(r.DLBGrowth(), "dlb-growth")
	}
}

func BenchmarkFig5b(b *testing.B) {
	pr := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(pr, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DDMGrowth(), "ddm-growth")
		b.ReportMetric(r.DLBGrowth(), "dlb-growth")
	}
}

func BenchmarkFig6(b *testing.B) {
	pr := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(pr, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.DDM.Steps) - 1
		b.ReportMetric(r.DDM.Spread(last), "ddm-final-spread")
		b.ReportMetric(r.DLB.Spread(last), "dlb-final-spread")
	}
}

func BenchmarkFig9(b *testing.B) {
	pr := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(pr, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.C0C[len(r.C0C)-1], "final-c0-over-c")
		if r.BoundaryIdx >= 0 {
			b.ReportMetric(float64(r.Steps[r.BoundaryIdx]), "boundary-step")
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	pr := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(pr, 2, pr.P, 1)
		if err != nil {
			b.Fatal(err)
		}
		if r.Fitted {
			b.ReportMetric(r.EOverT, "E-over-T")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	pr := experiments.Tiny()
	pr.Densities = pr.Densities[:1]
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(pr, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range r.Ms {
			for _, p := range r.Ps {
				if v, ok := r.EOverT[m][p]; ok {
					b.ReportMetric(v, fmt.Sprintf("E-over-T-m%d-p%d", m, p))
				}
			}
		}
	}
}

// ---- Micro-benchmarks ---------------------------------------------------

func BenchmarkForceKernelSerial(b *testing.B) {
	sys, err := workload.LatticeGas(4096, units.PaperDensity, units.PaperTref, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := mdserial.New(mdserial.Config{
		Box: sys.Box, Pair: potential.NewPaperLJ(), Dt: units.PaperTimeStep,
	}, sys.Set)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.ReportMetric(float64(eng.PairCount()), "pairs/step")
}

// BenchmarkKernelSharded measures the whole serial step (re-bin + flat
// force kernel) against the intra-PE shard count; the pure-kernel
// comparison against the historical map kernel lives in internal/kernel.
func BenchmarkKernelSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			sys, err := workload.LatticeGas(4096, units.PaperDensity, units.PaperTref, 1)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := mdserial.New(mdserial.Config{
				Box: sys.Box, Pair: potential.NewPaperLJ(), Dt: units.PaperTimeStep,
				Shards: shards,
			}, sys.Set)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

func BenchmarkParallelStepDDM(b *testing.B) { benchParallelStep(b, false) }
func BenchmarkParallelStepDLB(b *testing.B) { benchParallelStep(b, true) }

func benchParallelStep(b *testing.B, dlbOn bool) {
	spec := experiments.RunSpec{
		M: 3, P: 4, Rho: 0.256, Steps: b.N,
		Seed: 1, WellK: 1.5, Wells: 3, StatsEvery: 1 << 30,
	}
	if dlbOn {
		spec.Balancer = balance.PermanentCell{Hysteresis: 0.1}
	}
	b.ResetTimer()
	if _, _, err := spec.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelStepMetricsOff/On bracket the observability layer's
// whole-step overhead (the acceptance budget is <5%: a handful of
// time.Now() calls and fixed-array adds per step, no allocation).
func BenchmarkParallelStepMetricsOff(b *testing.B) { benchParallelStepMetrics(b, false) }
func BenchmarkParallelStepMetricsOn(b *testing.B)  { benchParallelStepMetrics(b, true) }

func benchParallelStepMetrics(b *testing.B, on bool) {
	spec := experiments.RunSpec{
		M: 3, P: 4, Rho: 0.256, Steps: b.N, Balancer: balance.PermanentCell{Hysteresis: 0.1},
		Seed: 1, WellK: 1.5, Wells: 3, StatsEvery: 1 << 30,
		Metrics: on,
	}
	b.ResetTimer()
	if _, _, err := spec.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDLBDecide(b *testing.B) {
	layout, err := dlb.NewLayout(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	lg := dlb.NewLedger(layout, 5)
	loads := dlb.Loads{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = float64(k) + 1
	}
	cfg := dlb.Config{Pick: dlb.PickMostLoaded}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Decide(loads, cfg)
	}
}

func BenchmarkCommAllreduce(b *testing.B) {
	w, err := comm.NewWorld(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		for i := 0; i < b.N; i++ {
			c.AllreduceFloat64(float64(c.Rank()), comm.Sum)
		}
	})
}

func BenchmarkCommNeighborExchange(b *testing.B) {
	tor, err := topology.NewSquareTorus(16)
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.NewWorld(16)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]float64, 256)
	b.ResetTimer()
	w.Run(func(c *comm.Comm) {
		nbs := tor.UniqueNeighbors(c.Rank())
		for i := 0; i < b.N; i++ {
			for _, nb := range nbs {
				c.Send(nb, 1, payload)
			}
			for _, nb := range nbs {
				c.Recv(nb, 1)
			}
		}
	})
}

func BenchmarkTheoryF(b *testing.B) {
	// Trivially fast; present for completeness of the Section 4 pipeline.
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += theoryF4(1 + math.Mod(float64(i), 2))
	}
	_ = sink
}

func theoryF4(n float64) float64 { return 27 / (43*n - 16) }

// ---- Ablation benches (DESIGN.md section 5) ------------------------------

// BenchmarkAblationLoadMetric compares the deterministic work-count load
// metric against wall-time measurement as the DLB decision input.
func BenchmarkAblationLoadMetric(b *testing.B) {
	for _, mode := range []struct {
		name   string
		metric core.LoadMetric
	}{{"work", core.WorkCount}, {"wall", core.WallTime}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := experiments.RunSpec{
					M: 2, P: 4, Rho: 0.256, Steps: 150, Balancer: balance.PermanentCell{Hysteresis: 0.1},
					Seed: 1, WellK: 1.5, Wells: 3, StatsEvery: 1,
				}
				cfg, sys, _, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg.Metric = mode.metric
				res, err := core.Run(cfg, sys, spec.Steps)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats[len(res.Stats)-1].Imbalance(), "final-imbalance")
			}
		})
	}
}

// BenchmarkAblationDLBInterval varies how often the DLB exchange runs
// (the paper: every step).
func BenchmarkAblationDLBInterval(b *testing.B) {
	for _, every := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := experiments.RunSpec{
					M: 2, P: 4, Rho: 0.256, Steps: 150, Balancer: balance.PermanentCell{Hysteresis: 0.1},
					Seed: 1, WellK: 1.5, Wells: 3, StatsEvery: 1,
				}
				cfg, sys, _, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg.DLBEvery = every
				res, err := core.Run(cfg, sys, spec.Steps)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats[len(res.Stats)-1].Imbalance(), "final-imbalance")
			}
		})
	}
}

// BenchmarkAblationPickStrategy varies which candidate column a PE hands
// over.
func BenchmarkAblationPickStrategy(b *testing.B) {
	for _, s := range []struct {
		name string
		pick dlb.Strategy
	}{
		{"most-loaded", dlb.PickMostLoaded},
		{"least-loaded", dlb.PickLeastLoaded},
		{"lowest-index", dlb.PickLowestIndex},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := experiments.RunSpec{
					M: 3, P: 4, Rho: 0.256, Steps: 150, Balancer: balance.PermanentCell{Hysteresis: 0.1},
					Seed: 1, WellK: 1.5, Wells: 3, StatsEvery: 1,
				}
				cfg, sys, _, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				cfg.Balancer = balance.PermanentCell{Hysteresis: 0.1, Pick: s.pick}
				res, err := core.Run(cfg, sys, spec.Steps)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats[len(res.Stats)-1].Imbalance(), "final-imbalance")
			}
		})
	}
}

// BenchmarkShapeEngines runs the static-decomposition engine on each of the
// three domain shapes (same system, same P) and reports the halo bytes each
// moved — the Section 2.2 comparison as running code.
func BenchmarkShapeEngines(b *testing.B) {
	const nc, p = 8, 8 // plane: slabs of 1; pillar needs sqrt(8)... use per-shape P
	cases := []struct {
		name  string
		shape decomp.Shape
		p     int
	}{
		{"plane", decomp.Plane, 4},
		{"pillar", decomp.SquarePillar, 4},
		{"cube", decomp.Cube, 8},
	}
	l := float64(nc) * units.PaperCutoff
	n := int(0.256 * l * l * l)
	sys, err := workload.LatticeGas(n, float64(n)/(l*l*l), units.PaperTref, 1)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		b.Fatal(err)
	}
	_ = p
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d, err := decomp.New(c.shape, grid, c.p)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{
				P: c.p, Grid: grid, Decomp: d,
				Pair: potential.NewPaperLJ(), Dt: units.PaperTimeStep,
				Tref: units.PaperTref, RescaleEvery: units.PaperRescaleInterval,
			}
			res, err := core.Run(cfg, sys, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.CommBytes)/float64(b.N), "halo-bytes/step")
			b.ReportMetric(float64(res.Stats[0].GhostCellsMax), "ghost-cells")
		})
	}
}

// BenchmarkAblationKohring compares the balancing capability of Kohring's
// 1-D discrete boundary shifting (related work) against the paper's
// permanent-cell DLB on the identical per-cell load stream from a real
// condensing run.
func BenchmarkAblationKohring(b *testing.B) {
	const nc, p = 8, 4
	l := float64(nc) * units.PaperCutoff
	n := int(0.256 * l * l * l)
	sys, err := workload.LatticeGas(n, float64(n)/(l*l*l), units.PaperTref, 11)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		b.Fatal(err)
	}
	// Each iteration replays a fixed 150-step condensing window so the
	// reported imbalances do not depend on b.N.
	const window = 150
	var kSpread, dSpread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		koh, err := balance.NewKohring(grid, p)
		if err != nil {
			b.Fatal(err)
		}
		pdlb, err := balance.NewPermanentCellDLB(grid, p, dlb.Config{Hysteresis: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		// Dispersed droplet nuclei, the workload shape of the paper's
		// condensing gas (a single central well is the pathological case
		// for any cell-granular balancer).
		wells := potential.MultiWell{
			Centers: []vec.V{
				sys.Box.L.Hadamard(vec.New(0.2, 0.3, 0.6)),
				sys.Box.L.Hadamard(vec.New(0.7, 0.6, 0.2)),
				sys.Box.L.Hadamard(vec.New(0.5, 0.8, 0.8)),
				sys.Box.L.Hadamard(vec.New(0.9, 0.1, 0.4)),
			},
			K: 1.5, L: sys.Box.L,
		}
		engRun, err := mdserial.New(mdserial.Config{
			Box: sys.Box, Pair: potential.NewPaperLJ(), Ext: wells,
			Dt: 0.005, Tref: units.PaperTref, RescaleEvery: units.PaperRescaleInterval,
			Grid: grid,
		}, sys.Set.Clone())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for step := 0; step < window; step++ {
			engRun.Step()
			load := balance.PairLoad(grid, engRun.CellOccupancy())
			kSpread = koh.Step(load).Spread()
			im, err := pdlb.Step(load)
			if err != nil {
				b.Fatal(err)
			}
			dSpread = im.Spread()
		}
	}
	b.ReportMetric(kSpread, "kohring-imbalance")
	b.ReportMetric(dSpread, "dlb-imbalance")
}

// BenchmarkAblationShapes reports the communication surfaces of the three
// domain shapes (Section 2.2's reason for the square pillar).
func BenchmarkAblationShapes(b *testing.B) {
	const nc, p = 64, 64
	box, err := space.NewCubicBox(nc * 2.5)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := space.NewGridWithDims(box, nc, nc, nc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		plane, err := decomp.NewPlane(grid, p)
		if err != nil {
			b.Fatal(err)
		}
		pillar, err := decomp.NewSquarePillar(grid, p)
		if err != nil {
			b.Fatal(err)
		}
		cube, err := decomp.NewCube(grid, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(plane.GhostCells(0)), "plane-ghosts")
		b.ReportMetric(float64(pillar.GhostCells(0)), "pillar-ghosts")
		b.ReportMetric(float64(cube.GhostCells(0)), "cube-ghosts")
	}
}
