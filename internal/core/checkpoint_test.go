package core

import (
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/space"
	"permcell/internal/workload"
)

// stepsEqualDeterministic compares the deterministic fields of two step
// records (wall-clock fields differ between any two runs).
func stepsEqualDeterministic(a, b StepStats) bool {
	return a.Step == b.Step &&
		a.WorkMax == b.WorkMax && a.WorkAve == b.WorkAve && a.WorkMin == b.WorkMin &&
		a.Moved == b.Moved && a.GhostCellsMax == b.GhostCellsMax &&
		a.TotalEnergy == b.TotalEnergy && a.Temperature == b.Temperature &&
		a.Conc == b.Conc
}

func blobSystem(t *testing.T, nc int) (workload.System, space.Grid) {
	t.Helper()
	// Clustered density: creates the load imbalance that makes DLB move
	// columns, so the snapshot captures a mid-flight ownership state.
	l := float64(nc) * 2.5
	n := int(math.Round(0.3 * l * l * l))
	rho := float64(n) / (l * l * l) // box side exactly nc cells
	sys, err := blobGas(n, rho, 0.722, 0.5, 4.0, 31)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	return sys, g
}

func TestSnapshotResumeBitIdenticalDLB(t *testing.T) {
	sys, g := blobSystem(t, 6)
	cfg := baseConfig(g, 4)
	cfg.Balancer = balance.PermanentCell{}
	cfg.Verify = true
	const b = 10 // snapshot point; total run is 2b

	golden, err := newTraced(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Step(2 * b); err != nil {
		t.Fatal(err)
	}
	gRes, err := golden.Finish()
	if err != nil {
		t.Fatal(err)
	}

	first, err := newTraced(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Step(b); err != nil {
		t.Fatal(err)
	}
	st, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != b {
		t.Fatalf("snapshot at step %d, want %d", st.Step, b)
	}
	lent := 0
	layout, _ := cfg.Layout()
	for r := range st.Frames {
		for _, col := range st.Frames[r].Cols {
			if layout.OwnerOf(col) != r {
				lent++
			}
		}
	}
	if lent == 0 {
		t.Fatal("test not exercising DLB: no column lent at the snapshot point")
	}

	// The engine stays usable after a snapshot: finishing the run from the
	// same engine must still match the golden run exactly.
	if err := first.Step(b); err != nil {
		t.Fatal(err)
	}
	fRes, err := first.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(fRes.Stats) != len(gRes.Stats) {
		t.Fatalf("stats length %d vs %d", len(fRes.Stats), len(gRes.Stats))
	}
	for i := range gRes.Stats {
		if !stepsEqualDeterministic(fRes.Stats[i], gRes.Stats[i]) {
			t.Fatalf("snapshot perturbed the run at record %d", i)
		}
	}

	// Restore into a fresh engine and finish: trace and final state must be
	// bit-identical to the golden run's tail.
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
	tail := gRes.Stats[len(gRes.Stats)-len(rRes.Stats):]
	for i := range tail {
		if !stepsEqualDeterministic(rRes.Stats[i], tail[i]) {
			t.Fatalf("resumed trace diverged at record %d (step %d):\n got %+v\nwant %+v",
				i, rRes.Stats[i].Step, rRes.Stats[i], tail[i])
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
		t.Fatalf("comm counters did not continue: %d after restore from %d", rRes.CommMsgs, st.CommMsgs)
	}
}

func TestSnapshotResumeOneShotRun(t *testing.T) {
	// Config.Restore also works through the one-shot Run path.
	sys, g := blobSystem(t, 6)
	cfg := baseConfig(g, 4)
	cfg.Balancer = balance.PermanentCell{}
	const b = 8

	gRes, err := Run(cfg, sys, 2*b)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(cfg, sys)
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
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Restore = st
	rRes, err := Run(rcfg, sys, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rRes.Stats {
		want := gRes.Stats[b+i]
		if !stepsEqualDeterministic(rRes.Stats[i], want) {
			t.Fatalf("one-shot resume diverged at step %d", rRes.Stats[i].Step)
		}
	}
	for i := range gRes.Final.ID {
		if rRes.Final.Pos[i] != gRes.Final.Pos[i] || rRes.Final.Vel[i] != gRes.Final.Vel[i] {
			t.Fatalf("one-shot resume final state differs at particle %d", i)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	sys, g := blobSystem(t, 6)
	cfg := baseConfig(g, 4)
	cfg.Balancer = balance.PermanentCell{}

	eng, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}

	// Wrong rank count.
	bad := *st
	bad.Frames = st.Frames[:3]
	cfg.Restore = &bad
	if _, err := NewEngine(cfg, sys); err == nil {
		t.Error("frame/rank mismatch accepted")
	}

	// Duplicate column hosting breaks the global partition.
	dup := *st
	dup.Frames = append([]checkpoint.Frame(nil), st.Frames...)
	dup.Frames[1].Cols = append(append([]int(nil), st.Frames[1].Cols...), st.Frames[0].Cols[0])
	cfg.Restore = &dup
	if _, err := NewEngine(cfg, sys); err == nil {
		t.Error("doubly-hosted column accepted")
	}

	// A missing column leaves the partition incomplete.
	missing := *st
	missing.Frames = append([]checkpoint.Frame(nil), st.Frames...)
	missing.Frames[2] = st.Frames[2]
	missing.Frames[2].Cols = st.Frames[2].Cols[:len(st.Frames[2].Cols)-1]
	cfg.Restore = &missing
	if _, err := NewEngine(cfg, sys); err == nil {
		t.Error("unhosted column accepted")
	}
}
