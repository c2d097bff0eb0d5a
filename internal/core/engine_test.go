package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"permcell/internal/balance"
)

// TestEngineMatchesRun drives every instantiation over uneven batches and
// demands the exact Result that Run — all ranks in one block, one batch —
// produces for the same configuration and total step count: bit-identical
// final state and per-step stats. Batching and the dealing of ranks to
// blocks change how the loop is commanded, never what it computes.
func TestEngineMatchesRun(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.4, 41)
			cfg := in.config(t, g)
			if !in.static {
				cfg.Balancer = balance.PermanentCell{}
			}
			const steps = 12

			ref, err := Run(cfg, sys, steps)
			if err != nil {
				t.Fatal(err)
			}

			r := in.start(t, cfg, sys)
			for _, batch := range []int{1, 0, 4, 7} { // 12 total, with a no-op batch
				if err := r.Step(batch); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range r.blocks {
				if e.AbsStep() != steps {
					t.Fatalf("AbsStep() = %d, want %d", e.AbsStep(), steps)
				}
			}
			res, err := r.Finish()
			if err != nil {
				t.Fatal(err)
			}

			if len(res.Stats) != len(ref.Stats) {
				t.Fatalf("stats length %d vs %d", len(res.Stats), len(ref.Stats))
			}
			for i := range ref.Stats {
				// Wall-clock fields are nondeterministic; everything else
				// must be bit-identical.
				if a, b := res.Stats[i], ref.Stats[i]; !stepsEqualDeterministic(a, b) {
					t.Fatalf("step %d stats diverged: stepwise %+v vs run %+v", b.Step, a, b)
				}
			}
			if res.Final.Len() != ref.Final.Len() {
				t.Fatalf("N %d vs %d", res.Final.Len(), ref.Final.Len())
			}
			for i := range ref.Final.Pos {
				if res.Final.Pos[i] != ref.Final.Pos[i] || res.Final.Vel[i] != ref.Final.Vel[i] {
					t.Fatalf("particle %d state differs between stepwise and Run", ref.Final.ID[i])
				}
			}
			if res.CommMsgs == 0 {
				t.Error("no comm stats collected")
			}
		})
	}
}

// TestEngineStatsBetweenBatches checks that stats accumulate incrementally
// and are safely readable while the PEs idle between batches.
func TestEngineStatsBetweenBatches(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 42)
	cfg := baseConfig(g, 4)
	cfg.Watchdog = time.Minute // exercise the batch-scoped watchdog path
	eng, err := newTraced(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(3); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.Stats()); n != 3 {
		t.Fatalf("after 3 steps: %d stats", n)
	}
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.Stats()); n != 5 {
		t.Fatalf("after 5 steps: %d stats", n)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("no final state")
	}
	// Finish is idempotent; Step afterwards is an error.
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(1); err == nil {
		t.Error("Step after Finish accepted")
	}
}

// TestStepStartsNoGoroutine: a Step runs on the rank goroutines the engine
// already has, and the driver collects their acks on its own goroutine, so
// OnStep, sampling from inside the step, counts exactly the goroutines of
// the idle engine between steps — with and without the watchdog's ticker.
// A goroutine that exits meanwhile (another test's residue) only lowers
// the inside count.
func TestStepStartsNoGoroutine(t *testing.T) {
	for _, watchdog := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprint("watchdog=", watchdog), func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.256, 42)
			cfg := baseConfig(g, 4)
			cfg.Balancer = balance.PermanentCell{}
			cfg.Watchdog = watchdog
			inside := 0 // written by rank 0 in OnStep; Step's acks order the read
			cfg.OnStep = func(StepStats) { inside = runtime.NumGoroutine() }
			e, err := NewEngine(cfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Finish()
			if err := e.Step(2); err != nil { // past init and the kernel's lazy pool
				t.Fatal(err)
			}
			for range 10 {
				idle := runtime.NumGoroutine()
				if err := e.Step(1); err != nil {
					t.Fatal(err)
				}
				if inside > idle {
					t.Fatalf("%d goroutines inside Step(1), %d between steps", inside, idle)
				}
			}
		})
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	sys, g := testSystem(t, 4, 0.256, 43)
	cfg := baseConfig(g, 5) // not a perfect square
	if _, err := NewEngine(cfg, sys); err == nil {
		t.Error("non-square P accepted")
	}
	cfg = baseConfig(g, 4)
	eng, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(-1); err == nil {
		t.Error("negative batch accepted")
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
}
