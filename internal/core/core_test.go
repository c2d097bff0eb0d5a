package core

import (
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/mdserial"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// testSystem builds a lattice gas whose box is exactly nc cells of side 2.5
// across, so grids conform to any sqrt(P) dividing nc.
func testSystem(t *testing.T, nc int, rho float64, seed uint64) (workload.System, space.Grid) {
	t.Helper()
	l := float64(nc) * 2.5
	n := int(math.Round(rho * l * l * l))
	sys, err := workload.LatticeGas(n, rho, 0.722, seed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.Box.L.X-l) > 1e-9 {
		t.Fatalf("box side %v, want %v", sys.Box.L.X, l)
	}
	g, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	return sys, g
}

func baseConfig(g space.Grid, p int) Config {
	return Config{
		P:            p,
		Grid:         g,
		Pair:         potential.NewPaperLJ(),
		Dt:           1e-4,
		Tref:         0.722,
		RescaleEvery: 50,
	}
}

func TestConfigValidation(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 1)
	_ = sys
	cfg := baseConfig(g, 5)
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("non-square P accepted")
	}
	cfg = baseConfig(g, 9) // 4 % 3 != 0
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("indivisible grid accepted")
	}
	cfg = baseConfig(g, 4)
	cfg.Dt = 0
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("dt=0 accepted")
	}
	cfg = baseConfig(g, 4)
	cfg.Pair = nil
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("nil potential accepted")
	}
}

func serialRun(t *testing.T, sys workload.System, g space.Grid, steps int) *mdserial.Engine {
	t.Helper()
	e, err := mdserial.New(mdserial.Config{
		Box:          sys.Box,
		Pair:         potential.NewPaperLJ(),
		Dt:           1e-4,
		Tref:         0.722,
		RescaleEvery: 50,
		Grid:         g,
	}, sys.Set.Clone())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	e.Run(steps)
	return e
}

func TestParallelMatchesSerialDDM(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 21)
	const steps = 10

	ser := serialRun(t, sys, g, steps)

	cfg := baseConfig(g, 4)
	res, err := Run(cfg, sys, steps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() != sys.Set.Len() {
		t.Fatalf("parallel lost particles: %d vs %d", res.Final.Len(), sys.Set.Len())
	}
	serSet := ser.Set()
	serSet.SortByID()
	for i := range res.Final.ID {
		if res.Final.ID[i] != serSet.ID[i] {
			t.Fatalf("ID mismatch at %d", i)
		}
		if d := res.Final.Pos[i].Dist(serSet.Pos[i]); d > 1e-8 {
			t.Fatalf("particle %d position diverged by %v", res.Final.ID[i], d)
		}
		if d := res.Final.Vel[i].Dist(serSet.Vel[i]); d > 1e-6 {
			t.Fatalf("particle %d velocity diverged by %v", res.Final.ID[i], d)
		}
	}
	// Global energy must agree with the serial engine.
	last := res.Stats[len(res.Stats)-1]
	if rel := math.Abs(last.TotalEnergy-ser.TotalEnergy()) / (1 + math.Abs(ser.TotalEnergy())); rel > 1e-8 {
		t.Errorf("energy: parallel %v vs serial %v", last.TotalEnergy, ser.TotalEnergy())
	}
}

func TestParallelMatchesSerialWithDLB(t *testing.T) {
	// DLB moves cells between PEs but must not change the physics.
	sys, g := testSystem(t, 6, 0.4, 22)
	const steps = 10

	ser := serialRun(t, sys, g, steps)

	cfg := baseConfig(g, 9)
	cfg.Balancer = balance.PermanentCell{}
	res, err := Run(cfg, sys, steps)
	if err != nil {
		t.Fatal(err)
	}
	serSet := ser.Set()
	serSet.SortByID()
	if res.Final.Len() != serSet.Len() {
		t.Fatalf("N: %d vs %d", res.Final.Len(), serSet.Len())
	}
	// DLB changes per-PE force summation order, so floating-point roundoff
	// diverges chaotically; after 10 steps agreement to ~1e-5 sigma shows
	// the trajectories are physically identical.
	for i := range res.Final.ID {
		if d := res.Final.Pos[i].Dist(serSet.Pos[i]); d > 1e-5 {
			t.Fatalf("particle %d diverged by %v with DLB", res.Final.ID[i], d)
		}
	}
}

func TestDLBMovesColumnsUnderImbalance(t *testing.T) {
	// A concentrated blob plus an attracting well forces load imbalance;
	// DLB must respond by moving columns.
	nc := 6
	l := float64(nc) * 2.5
	n := int(math.Round(0.3 * l * l * l))
	rho := float64(n) / (l * l * l) // box side exactly nc cells
	sys, err := blobGas(n, rho, 0.722, 0.7, 4.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := space.NewGridWithDims(sys.Box, nc, nc, nc)
	cfg := baseConfig(g, 9)
	cfg.Balancer = balance.PermanentCell{}
	cfg.Ext = potential.HarmonicWell{Center: sys.Box.L.Scale(0.5), K: 1, L: sys.Box.L}
	res, err := Run(cfg, sys, 30)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, st := range res.Stats {
		moved += st.Moved
	}
	if moved == 0 {
		t.Error("DLB never moved a column despite heavy imbalance")
	}
}

func TestParticleConservationLongRun(t *testing.T) {
	sys, g := testSystem(t, 6, 0.256, 24)
	cfg := baseConfig(g, 9)
	cfg.Balancer = balance.PermanentCell{}
	cfg.Ext = potential.HarmonicWell{Center: sys.Box.L.Scale(0.5), K: 0.5, L: sys.Box.L}
	res, err := Run(cfg, sys, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() != sys.Set.Len() {
		t.Fatalf("particle count %d -> %d", sys.Set.Len(), res.Final.Len())
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range res.Final.Pos {
		if !res.Final.Pos[i].IsFinite() || !res.Final.Vel[i].IsFinite() {
			t.Fatalf("particle %d non-finite", res.Final.ID[i])
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 25)
	cfg := baseConfig(g, 4)
	cfg.Balancer = balance.PermanentCell{}
	r1, err := Run(cfg, sys, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, sys, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Stats {
		if r1.Stats[i].WorkMax != r2.Stats[i].WorkMax ||
			r1.Stats[i].Moved != r2.Stats[i].Moved {
			t.Fatalf("step %d stats diverged between identical runs", i)
		}
	}
	for i := range r1.Final.Pos {
		if r1.Final.Pos[i] != r2.Final.Pos[i] {
			t.Fatalf("particle %d position differs between identical runs", r1.Final.ID[i])
		}
	}
}

func TestStatsCensus(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 26)
	cfg := baseConfig(g, 4)
	res, err := Run(cfg, sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 5 {
		t.Fatalf("stats = %d records", len(res.Stats))
	}
	for _, st := range res.Stats {
		if st.Conc.C != g.NumCells() {
			t.Errorf("step %d: census C = %d, want %d", st.Step, st.Conc.C, g.NumCells())
		}
		if st.WorkMax < st.WorkAve || st.WorkAve < st.WorkMin || st.WorkMin < 0 {
			t.Errorf("step %d: work ordering broken: %v %v %v", st.Step, st.WorkMax, st.WorkAve, st.WorkMin)
		}
		if st.Temperature <= 0 {
			t.Errorf("step %d: temperature %v", st.Step, st.Temperature)
		}
	}
}

func TestStatsEvery(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 27)
	cfg := baseConfig(g, 4)
	cfg.StatsEvery = 5
	res, err := Run(cfg, sys, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("StatsEvery=5 over 20 steps: %d records, want 4", len(res.Stats))
	}
}

func TestOnStepCallback(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 28)
	cfg := baseConfig(g, 4)
	var steps []int
	cfg.OnStep = func(st StepStats) { steps = append(steps, st.Step) }
	if _, err := Run(cfg, sys, 3); err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 1 || steps[2] != 3 {
		t.Errorf("callback steps = %v", steps)
	}
}

func TestThermostatParallel(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 29)
	cfg := baseConfig(g, 4)
	cfg.RescaleEvery = 10
	res, err := Run(cfg, sys, 10)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Stats[len(res.Stats)-1]
	if math.Abs(last.Temperature-0.722) > 1e-9 {
		t.Errorf("T after rescale = %v", last.Temperature)
	}
}

func TestImbalanceMetric(t *testing.T) {
	st := StepStats{WorkMax: 10, WorkAve: 5, WorkMin: 2}
	if got := st.Imbalance(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("Imbalance = %v", got)
	}
	if (StepStats{}).Imbalance() != 0 {
		t.Error("zero stats imbalance not 0")
	}
}

func TestCommStatsRecorded(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 30)
	cfg := baseConfig(g, 4)
	res, err := Run(cfg, sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommMsgs == 0 {
		t.Error("no messages recorded")
	}
}

func TestLargerTorus(t *testing.T) {
	// P=16 (s=4): exercises ledgers whose neighbor sets do not cover the
	// whole torus, unlike the P=4/P=9 cases.
	sys, g := testSystem(t, 8, 0.3, 34)
	cfg := baseConfig(g, 16)
	cfg.Balancer = balance.PermanentCell{}
	cfg.Ext = potential.HarmonicWell{Center: sys.Box.L.Scale(0.5), K: 1, L: sys.Box.L}
	res, err := Run(cfg, sys, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() != sys.Set.Len() {
		t.Fatalf("particle count %d -> %d", sys.Set.Len(), res.Final.Len())
	}
}

func TestHeadlineDLBBeatsDDM(t *testing.T) {
	// The paper's Fig. 5 claim in miniature: on a condensing system, the
	// final work imbalance under DLB-DDM is lower than under plain DDM.
	nc := 6
	l := float64(nc) * 2.5
	n := int(math.Round(0.3 * l * l * l))
	rho := float64(n) / (l * l * l) // box side exactly nc cells
	mk := func() workload.System {
		sys, err := blobGas(n, rho, 0.722, 0.5, 4.0, 31)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	g, _ := space.NewGridWithDims(mk().Box, nc, nc, nc)
	well := potential.HarmonicWell{Center: vec.New(l/2, l/2, l/2), K: 1, L: vec.New(l, l, l)}

	cfgDDM := baseConfig(g, 9)
	cfgDDM.Ext = well
	resDDM, err := Run(cfgDDM, mk(), 100)
	if err != nil {
		t.Fatal(err)
	}
	cfgDLB := cfgDDM
	cfgDLB.Balancer = balance.PermanentCell{}
	resDLB, err := Run(cfgDLB, mk(), 100)
	if err != nil {
		t.Fatal(err)
	}
	tail := func(stats []StepStats) float64 {
		var s float64
		k := 0
		for _, st := range stats[len(stats)-20:] {
			s += st.Imbalance()
			k++
		}
		return s / float64(k)
	}
	iDDM, iDLB := tail(resDDM.Stats), tail(resDLB.Stats)
	if iDLB >= iDDM {
		t.Errorf("DLB imbalance %v >= DDM imbalance %v", iDLB, iDDM)
	}
}
