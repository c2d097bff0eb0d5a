package permcell_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"permcell"
)

// settledGoroutines polls until the live goroutine count drops to at most
// base (worker teardown is asynchronous), returning the last count seen.
func settledGoroutines(base int) int {
	var n int
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= base {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestStepGuardsUniform pins the facade-wide Step/Result contract to
// identical behavior across all three engines: negative counts and Step
// after Result are rejected with the same messages, Step(0) is a no-op,
// and Result is idempotent.
func TestStepGuardsUniform(t *testing.T) {
	engines := []struct {
		name string
		mk   func() (permcell.Engine, error)
	}{
		{"parallel", func() (permcell.Engine, error) { return permcell.New(2, 4, 0.2) }},
		{"static", func() (permcell.Engine, error) { return permcell.NewStatic(permcell.ShapeCube, 4, 8, 0.2) }},
		{"serial", func() (permcell.Engine, error) { return permcell.NewSerial(4, 0.2) }},
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(-3); err == nil || !strings.Contains(err.Error(), "permcell: negative step count -3") {
				t.Errorf("Step(-3) err = %v", err)
			}
			if err := eng.Step(0); err != nil {
				t.Errorf("Step(0) err = %v", err)
			}
			if err := eng.Step(2); err != nil {
				t.Fatalf("Step(2) err = %v", err)
			}
			res, err := eng.Result()
			if err != nil {
				t.Fatalf("Result err = %v", err)
			}
			if res == nil || res.Final == nil {
				t.Fatal("no result")
			}
			if err := eng.Step(1); err == nil || !strings.Contains(err.Error(), "permcell: Step after Result") {
				t.Errorf("Step after Result err = %v", err)
			}
			again, err := eng.Result()
			if err != nil {
				t.Fatalf("second Result err = %v", err)
			}
			if again != res {
				t.Error("Result not idempotent")
			}
		})
	}
}

// TestStatsEveryZeroSafe pins the WithStatsEvery(0) fix: it used to reach a
// modulo-by-zero in the serial and static facade engines.
func TestStatsEveryZeroSafe(t *testing.T) {
	for _, mk := range []func() (permcell.Engine, error){
		func() (permcell.Engine, error) { return permcell.NewSerial(4, 0.2, permcell.WithStatsEvery(0)) },
		func() (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeCube, 4, 8, 0.2, permcell.WithStatsEvery(0))
		},
	} {
		eng, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := permcell.RunEngine(context.Background(), eng, 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunEngineCancelReleasesGoroutines cancels a run mid-flight and
// demands both a usable partial result and full teardown of the PE
// goroutines — the regression test for RunEngine returning without
// finalizing the engine. At GOMAXPROCS 8 each of the 4 ranks runs a
// pair-search helper beside its force pass, which teardown must stop too.
func TestRunEngineCancelReleasesGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	steps := 0
	eng, err := permcell.New(2, 4, 0.2, permcell.WithOnStep(func(permcell.StepStats) {
		if steps++; steps == 3 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := permcell.RunEngine(ctx, eng, 1000)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Final == nil || len(res.Stats) < 3 {
		t.Fatalf("unusable partial result: %+v", res)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d live, %d before the run", n, base)
	}
}

// TestRunEngineStepErrorSalvage injects a stall long enough to trip the
// batch watchdog, so Step returns a *DeadlockError mid-run. RunEngine must
// finalize the engine anyway: the stall eventually clears, the best-effort
// teardown drains the batch under its extended grace, and the caller gets
// the statistics collected before the failure plus the original error —
// with no goroutines left behind — the ranks' pair-search helpers, which
// GOMAXPROCS 8 gives them, included.
func TestRunEngineStepErrorSalvage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	base := runtime.NumGoroutine()
	eng, err := permcell.New(2, 4, 0.2,
		permcell.WithFaultPlan(permcell.FaultPlan{
			Seed:   1,
			Stalls: []permcell.Stall{{Rank: 1, AfterOps: 400, Duration: 300 * time.Millisecond}},
		}),
		permcell.WithWatchdog(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := permcell.RunEngine(context.Background(), eng, 500)
	var dl *permcell.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if res == nil || res.Final == nil || len(res.Stats) == 0 {
		t.Fatalf("salvage produced no usable partial result: %+v", res)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines leaked: %d live, %d before the run", n, base)
	}
}

// TestStepwiseFaultPlanReplay drives every parallel backend one step per
// command under a reordering fault plan. A rank may not go idle between
// commands still holding a message the fault layer reordered — a peer
// still inside the batch would wait on it forever — so the run must finish
// with no *DeadlockError, and the same seed must replay to the same trace,
// final state and fault counters.
func TestStepwiseFaultPlanReplay(t *testing.T) {
	plan := permcell.FaultPlan{Seed: 7, ReorderProb: 0.5, ReorderDepth: 2, Record: true}
	opts := []permcell.Option{permcell.WithFaultPlan(plan), permcell.WithWatchdog(500 * time.Millisecond)}
	backends := []struct {
		name string
		mk   func() (permcell.Engine, error)
	}{
		{"parallel", func() (permcell.Engine, error) { return permcell.New(2, 4, 0.2, opts...) }},
		{"tcp", func() (permcell.Engine, error) { return permcell.New(2, 4, 0.2, append(opts, tcp(2))...) }},
		{"static", func() (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.2, opts...)
		}},
	}
	for _, tc := range backends {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *permcell.Result {
				eng, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					if err := eng.Step(1); err != nil {
						eng.Result()
						t.Fatalf("Step %d: %v", i+1, err)
					}
				}
				res, err := eng.Result()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first, again := run(), run()
			sameTrace(t, "replay", first.Stats, again.Stats)
			sameFinal(t, "replay", first, again)
			if first.Faults.Reorders == 0 || first.Faults != again.Faults {
				t.Errorf("fault counters: %+v, replayed as %+v", first.Faults, again.Faults)
			}
			// The tcp coordinator sums the fault counters but leaves the
			// per-process event logs with the workers.
			if tc.name != "tcp" && len(first.FaultEvents) == 0 {
				t.Error("recorded fault log missing from the Result")
			}
		})
	}
}
