package core

import (
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/decomp"
	"permcell/internal/potential"
	"permcell/internal/space"
)

// staticConfig is baseConfig over a fixed decomposition of the given shape.
func staticConfig(t *testing.T, shape decomp.Shape, p int, g space.Grid) Config {
	t.Helper()
	return instantiation{p: p, static: true, shape: shape}.config(t, g)
}

func TestDecompValidation(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 1)
	cfg := staticConfig(t, decomp.SquarePillar, 4, g)
	cfg.Balancer = balance.PermanentCell{}
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("balancer accepted over a static decomposition")
	}
	cfg = staticConfig(t, decomp.SquarePillar, 4, g)
	cfg.Verify = true
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("ledger verification accepted over a static decomposition")
	}
	cfg = staticConfig(t, decomp.Plane, 4, g)
	cfg.P = 2
	if _, err := Run(cfg, sys, 1); err == nil {
		t.Error("decomposition over a different P accepted")
	}
	// A plane needs no perfect-square P.
	if _, err := Run(staticConfig(t, decomp.Plane, 2, g), sys, 1); err != nil {
		t.Errorf("plane over P=2: %v", err)
	}
}

// TestAllShapesMatchSerial verifies each shape reproduces the serial
// trajectory on the same system.
func TestAllShapesMatchSerial(t *testing.T) {
	sys, g := testSystem(t, 4, 0.3, 2)
	const steps = 8
	ser := serialRun(t, sys, g, steps)
	serSet := ser.Set()
	serSet.SortByID()

	for _, in := range instantiations {
		if !in.static {
			continue
		}
		res, err := Run(in.config(t, g), sys, steps)
		if err != nil {
			t.Fatalf("%v: %v", in.shape, err)
		}
		if res.Final.Len() != serSet.Len() {
			t.Fatalf("%v: N = %d, want %d", in.shape, res.Final.Len(), serSet.Len())
		}
		for i := range res.Final.ID {
			if d := res.Final.Pos[i].Dist(serSet.Pos[i]); d > 1e-7 {
				t.Fatalf("%v: particle %d diverged by %v", in.shape, res.Final.ID[i], d)
			}
		}
		last := res.Stats[len(res.Stats)-1]
		if rel := math.Abs(last.TotalEnergy-ser.TotalEnergy()) / (1 + math.Abs(ser.TotalEnergy())); rel > 1e-8 {
			t.Errorf("%v: energy %v vs serial %v", in.shape, last.TotalEnergy, ser.TotalEnergy())
		}
	}
}

// TestGhostCountsMatchAnalysis verifies the runtime ghost-cell counts equal
// the closed-form communication surfaces of Section 2.2.
func TestGhostCountsMatchAnalysis(t *testing.T) {
	sys, g := testSystem(t, 8, 0.2, 3)
	cases := []struct {
		shape decomp.Shape
		p     int
	}{
		{decomp.Plane, 4},
		{decomp.SquarePillar, 16},
		{decomp.Cube, 8},
	}
	for _, c := range cases {
		res, err := Run(staticConfig(t, c.shape, c.p, g), sys, 2)
		if err != nil {
			t.Fatalf("%v: %v", c.shape, err)
		}
		a, err := decomp.AnalyzeSurface(c.shape, 8, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats[0].GhostCellsMax; got != a.GhostCells {
			t.Errorf("%v: runtime ghosts %d, closed form %d", c.shape, got, a.GhostCells)
		}
	}
	// The DDM ledger at home is the square pillar: same surface.
	res, err := Run(baseConfig(g, 16), sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := decomp.AnalyzeSurface(decomp.SquarePillar, 8, 16)
	if got := res.Stats[0].GhostCellsMax; got != a.GhostCells {
		t.Errorf("DDM: runtime ghosts %d, pillar closed form %d", got, a.GhostCells)
	}
}

// TestShapeCommVolumeOrdering verifies the paper's Section 2.2 point as
// observed message bytes: plane imports more halo data than the pillar.
func TestShapeCommVolumeOrdering(t *testing.T) {
	// Same P for both shapes (nc=16 conforms to plane and pillar at P=16):
	// the pillar must move fewer halo bytes, Section 2.2's argument.
	sys, g := testSystem(t, 16, 0.2, 4)
	plane, err := Run(staticConfig(t, decomp.Plane, 16, g), sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	pillar, err := Run(staticConfig(t, decomp.SquarePillar, 16, g), sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pillar.CommBytes >= plane.CommBytes {
		t.Errorf("pillar halo bytes %d >= plane %d at equal P", pillar.CommBytes, plane.CommBytes)
	}
}

func TestStaticParticleConservation(t *testing.T) {
	sys, g := testSystem(t, 6, 0.4, 5)
	cfg := staticConfig(t, decomp.SquarePillar, 9, g)
	cfg.Ext = potential.HarmonicWell{Center: sys.Box.L.Scale(0.5), K: 0.5, L: sys.Box.L}
	cfg.Dt = 0.005
	res, err := Run(cfg, sys, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() != sys.Set.Len() {
		t.Fatalf("N %d -> %d", sys.Set.Len(), res.Final.Len())
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotResumeBitIdenticalStatic is the checkpoint contract over a
// fixed decomposition: a snapshot leaves the run unperturbed, and a fresh
// engine restored from it reproduces the uninterrupted run's tail bit for
// bit with continuing comm counters.
func TestSnapshotResumeBitIdenticalStatic(t *testing.T) {
	sys, g := testSystem(t, 4, 0.3, 7)
	const b = 10

	for _, in := range instantiations {
		if !in.static {
			continue
		}
		t.Run(in.name, func(t *testing.T) {
			cfg := in.config(t, g)
			gRes, err := Run(cfg, sys, 2*b)
			if err != nil {
				t.Fatal(err)
			}

			eng, err := newTraced(cfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(b); err != nil {
				t.Fatal(err)
			}
			st, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if st.Step != b {
				t.Fatalf("snapshot at step %d, want %d", st.Step, b)
			}

			// The engine keeps running unperturbed after the snapshot.
			if err := eng.Step(b); err != nil {
				t.Fatal(err)
			}
			cRes, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for i := range gRes.Stats {
				if !stepsEqualDeterministic(cRes.Stats[i], gRes.Stats[i]) {
					t.Fatalf("snapshot perturbed the run at record %d", i)
				}
			}

			rcfg := cfg
			rcfg.Restore = st
			resumed, err := newTraced(rcfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.AbsStep() != b {
				t.Fatalf("restored AbsStep %d, want %d", resumed.AbsStep(), b)
			}
			if err := resumed.Step(b); err != nil {
				t.Fatal(err)
			}
			rRes, err := resumed.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for i := range rRes.Stats {
				want := gRes.Stats[b+i]
				if !stepsEqualDeterministic(rRes.Stats[i], want) {
					t.Fatalf("resumed trace diverged at step %d:\n got %+v\nwant %+v",
						rRes.Stats[i].Step, rRes.Stats[i], want)
				}
			}
			if rRes.Final.Len() != gRes.Final.Len() {
				t.Fatalf("final count %d vs %d", rRes.Final.Len(), gRes.Final.Len())
			}
			for i := range gRes.Final.ID {
				if rRes.Final.ID[i] != gRes.Final.ID[i] ||
					rRes.Final.Pos[i] != gRes.Final.Pos[i] ||
					rRes.Final.Vel[i] != gRes.Final.Vel[i] {
					t.Fatalf("final state not bit-identical at particle %d", i)
				}
			}
			if rRes.CommMsgs <= st.CommMsgs {
				t.Fatalf("comm counters did not continue: %d from base %d", rRes.CommMsgs, st.CommMsgs)
			}
		})
	}
}
