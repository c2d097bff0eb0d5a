package mdserial

import (
	"math"
	"testing"

	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/units"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

func paperConfig(box space.Box) Config {
	return Config{
		Box:          box,
		Pair:         potential.NewPaperLJ(),
		Dt:           units.PaperTimeStep,
		Tref:         units.PaperTref,
		RescaleEvery: units.PaperRescaleInterval,
	}
}

func TestNewValidation(t *testing.T) {
	box, _ := space.NewCubicBox(10)
	sys, _ := workload.LatticeGas(27, 0.3, 0.722, 1)
	if _, err := New(Config{Box: box, Dt: 1e-4}, sys.Set); err == nil {
		t.Error("nil potential accepted")
	}
	if _, err := New(Config{Box: box, Pair: potential.NewPaperLJ(), Dt: 0}, sys.Set); err == nil {
		t.Error("dt=0 accepted")
	}
}

func TestCellForcesMatchBruteForce(t *testing.T) {
	sys, err := workload.LatticeGas(216, 0.4, 0.722, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig(sys.Box)
	e, err := New(cfg, sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the lattice so forces are nonzero, then compare kernels.
	e.Run(20)
	frcBrute, potBrute := e.ForcesBruteForce()
	if math.Abs(potBrute-e.PotentialEnergy()) > 1e-9*(1+math.Abs(potBrute)) {
		t.Errorf("potential: cell %v vs brute %v", e.PotentialEnergy(), potBrute)
	}
	for i := range frcBrute {
		if frcBrute[i].Dist(e.Set().Frc[i]) > 1e-9*(1+frcBrute[i].Norm()) {
			t.Fatalf("force %d: cell %v vs brute %v", i, e.Set().Frc[i], frcBrute[i])
		}
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	sys, err := workload.LatticeGas(216, 0.256, 0.722, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig(sys.Box)
	cfg.RescaleEvery = 0 // pure NVE
	e, err := New(cfg, sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e0 := e.TotalEnergy()
	e.Run(500)
	e1 := e.TotalEnergy()
	if rel := math.Abs(e1-e0) / (1 + math.Abs(e0)); rel > 1e-4 {
		t.Errorf("energy drift %v -> %v (rel %v)", e0, e1, rel)
	}
}

func TestMomentumConservation(t *testing.T) {
	sys, err := workload.LatticeGas(125, 0.256, 0.722, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig(sys.Box)
	cfg.RescaleEvery = 0
	e, err := New(cfg, sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	if p := e.Set().Momentum(); p.Norm() > 1e-8 {
		t.Errorf("momentum after 300 steps = %v", p)
	}
}

func TestThermostatHoldsTemperature(t *testing.T) {
	sys, err := workload.LatticeGas(216, 0.256, 0.722, 14)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100) // two rescale intervals
	// Right after a rescale step the temperature is exactly Tref.
	if math.Abs(e.Set().Temperature()-0.722) > 1e-9 {
		t.Errorf("T after rescale = %v", e.Set().Temperature())
	}
}

func TestParticlesStayInBox(t *testing.T) {
	sys, err := workload.LatticeGas(125, 0.3, 1.0, 15)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(200)
	l := sys.Box.L
	for i, p := range e.Set().Pos {
		if p.X < 0 || p.X >= l.X || p.Y < 0 || p.Y >= l.Y || p.Z < 0 || p.Z >= l.Z {
			t.Fatalf("particle %d escaped: %v", i, p)
		}
		if !p.IsFinite() || !e.Set().Vel[i].IsFinite() {
			t.Fatalf("particle %d non-finite state", i)
		}
	}
}

func TestCellOccupancySums(t *testing.T) {
	sys, err := workload.LatticeGas(216, 0.256, 0.722, 16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	total := 0
	for _, o := range e.CellOccupancy() {
		total += o
	}
	if total != 216 {
		t.Errorf("occupancy sums to %d, want 216", total)
	}
}

// TestEmptyCells holds the allocation-free census count to the occupancy
// slice it replaces in the per-step statistics, on a gas thin enough to
// leave most cells empty.
func TestEmptyCells(t *testing.T) {
	sys, err := workload.LatticeGas(64, 0.01, 0.722, 16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	empty := 0
	for _, o := range e.CellOccupancy() {
		if o == 0 {
			empty++
		}
	}
	if got := e.EmptyCells(); got != empty || empty < 64 {
		t.Errorf("EmptyCells = %d, the occupancy has %d empty cells of %d", got, empty, e.Grid().NumCells())
	}
	if allocs := testing.AllocsPerRun(5, func() { e.EmptyCells() }); allocs != 0 {
		t.Errorf("EmptyCells allocates %v times", allocs)
	}
}

func TestPairCountPositive(t *testing.T) {
	sys, _ := workload.LatticeGas(216, 0.256, 0.722, 17)
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	if e.PairCount() <= 0 {
		t.Errorf("pair count = %d, want > 0", e.PairCount())
	}
}

func TestExternalWellPullsParticles(t *testing.T) {
	sys, err := workload.LatticeGas(125, 0.2, 0.5, 18)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig(sys.Box)
	center := sys.Box.L.Scale(0.5)
	cfg.Ext = potential.HarmonicWell{Center: center, K: 0.5, L: sys.Box.L}
	cfg.RescaleEvery = 50
	cfg.Tref = 0.3
	e, err := New(cfg, sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	meanDist := func() float64 {
		var sum float64
		for _, p := range e.Set().Pos {
			sum += math.Sqrt(sys.Box.Displacement(p, center).Norm2())
		}
		return sum / float64(e.Set().Len())
	}
	before := meanDist()
	e.Run(2000)
	after := meanDist()
	if after >= before {
		t.Errorf("well did not concentrate particles: mean dist %v -> %v", before, after)
	}
}

func TestPressureDiluteGasNearIdeal(t *testing.T) {
	// At very low density the virial correction vanishes: P -> rho*T.
	sys, err := workload.LatticeGas(125, 0.01, 1.0, 21)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	ideal := float64(e.Set().Len()) / sys.Box.Volume() * e.Set().Temperature()
	if rel := math.Abs(e.Pressure()-ideal) / ideal; rel > 0.05 {
		t.Errorf("dilute pressure %v vs ideal %v (rel %v)", e.Pressure(), ideal, rel)
	}
}

func TestPressureDenseGasBelowIdeal(t *testing.T) {
	// In the attractive supercooled regime the virial is negative, so the
	// pressure sits below the ideal-gas value.
	sys, err := workload.LatticeGas(216, 0.5, 0.722, 22)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(paperConfig(sys.Box), sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	ideal := float64(e.Set().Len()) / sys.Box.Volume() * e.Set().Temperature()
	if e.Pressure() >= ideal {
		t.Errorf("dense supercooled pressure %v not below ideal %v", e.Pressure(), ideal)
	}
}

func TestDeterministicTrajectory(t *testing.T) {
	run := func() vec.V {
		sys, _ := workload.LatticeGas(64, 0.256, 0.722, 19)
		e, _ := New(paperConfig(sys.Box), sys.Set)
		e.Run(50)
		return e.Set().Pos[10]
	}
	if run() != run() {
		t.Error("identical runs diverged")
	}
}

func TestGridOverrideRespected(t *testing.T) {
	sys, _ := workload.LatticeGas(216, 0.256, 0.722, 20)
	g, err := space.NewGridWithDims(sys.Box, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig(sys.Box)
	cfg.Grid = g
	e, err := New(cfg, sys.Set)
	if err != nil {
		t.Fatal(err)
	}
	if e.Grid().NumCells() != 8 {
		t.Errorf("grid cells = %d, want 8", e.Grid().NumCells())
	}
	// Forces must still match brute force with the coarser grid.
	e.Run(5)
	frc, _ := e.ForcesBruteForce()
	for i := range frc {
		if frc[i].Dist(e.Set().Frc[i]) > 1e-9*(1+frc[i].Norm()) {
			t.Fatalf("force %d mismatch with coarse grid", i)
		}
	}
}
