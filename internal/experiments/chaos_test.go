package experiments

import (
	"testing"
	"time"

	"permcell"
	"permcell/internal/balance"
	"permcell/internal/comm"
)

func tinyChaosSpec() ChaosSpec {
	return ChaosSpec{
		RunSpec: RunSpec{Spec: permcell.Spec{
			Kind: permcell.KindDLB, M: 2, P: 4, Rho: 0.256, Balancer: balance.Encode(balance.PermanentCell{}), Seed: 1,
			WellK: 1.5,
		}, Steps: 30},
		Plan: comm.FaultPlan{
			Seed:         42,
			DelayProb:    0.05,
			MaxDelay:     50 * time.Microsecond,
			ReorderProb:  0.2,
			ReorderDepth: 2,
			Stalls:       []comm.Stall{{Rank: 2, AfterOps: 100, Duration: 2 * time.Millisecond}},
		},
		Watchdog: 30 * time.Second,
	}
}

// TestChaosReplaySameTrace is the replay property at the full-engine level:
// two chaos runs from the same seeds produce the identical deterministic
// per-step trace.
func TestChaosReplaySameTrace(t *testing.T) {
	spec := tinyChaosSpec()
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hashes differ across replays: %x vs %x", a.TraceHash, b.TraceHash)
	}
	if a.Res.Faults == (comm.FaultStats{}) {
		t.Error("chaos plan injected no faults")
	}
	if movedCols(a.Res.Stats) == 0 {
		t.Error("chaos run moved no columns: no transfer ran under faults")
	}
}

// TestChaosFaultFreeMatchesPlainRun asserts a zero plan leaves the engine
// byte-identical on the deterministic trace fields: chaos plumbing off the
// hot path changes nothing.
func TestChaosFaultFreeMatchesPlainRun(t *testing.T) {
	spec := tinyChaosSpec()
	spec.Plan = comm.FaultPlan{Seed: 9} // all probabilities zero, no stalls

	chaos, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	plain, info, err := spec.RunSpec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if info != chaos.Info {
		t.Errorf("system info differs: %+v vs %+v", info, chaos.Info)
	}
	if chaos.Res.Faults != (comm.FaultStats{}) {
		t.Errorf("fault-free plan injected faults: %+v", chaos.Res.Faults)
	}
	if got, want := chaos.TraceHash, TraceHash(plain.Stats); got != want {
		t.Fatalf("fault-free chaos trace differs from plain run: %x vs %x", got, want)
	}
}

// TestTraceHashIgnoresWallTime pins the contract that lets chaos replays
// compare equal: wall-clock fields do not contribute to the hash.
func TestTraceHashIgnoresWallTime(t *testing.T) {
	stats := []permcell.StepStats{{Step: 1, WorkMax: 10, WallMax: 1.5, StepWallMax: 2}}
	perturbed := []permcell.StepStats{{Step: 1, WorkMax: 10, WallMax: 9.9, StepWallMax: 7}}
	if TraceHash(stats) != TraceHash(perturbed) {
		t.Error("wall-time fields leak into the trace hash")
	}
	changed := []permcell.StepStats{{Step: 1, WorkMax: 11, WallMax: 1.5, StepWallMax: 2}}
	if TraceHash(stats) == TraceHash(changed) {
		t.Error("work fields do not affect the trace hash")
	}
}

// movedCols sums the columns a trace's balancer moved: a chaos scenario
// that moves none never runs a transfer under faults.
func movedCols(stats []permcell.StepStats) int {
	n := 0
	for _, st := range stats {
		n += st.Moved
	}
	return n
}
