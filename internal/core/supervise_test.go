package core

import (
	"errors"
	"testing"
	"time"

	"permcell/internal/supervise"
)

// TestSabotagePanicBecomesRankFailure: an injected PE panic must surface
// from Step as a typed *supervise.RankFailure instead of killing the
// process, and Finish must return the same error without hanging — on
// every instantiation of the runtime.
func TestSabotagePanicBecomesRankFailure(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.3, 7)
			cfg := in.config(t, g)
			cfg.Sabotage = &supervise.Sabotage{Kind: supervise.SabotagePanic, Step: 3, Rank: 1}
			if in.split > 0 {
				cfg.Watchdog = 50 * time.Millisecond // unwedges the block that did not fail
			}

			r := in.start(t, cfg, sys)
			err := r.Step(5)
			var rf *supervise.RankFailure
			if !errors.As(err, &rf) {
				t.Fatalf("Step error = %v, want *supervise.RankFailure", err)
			}
			if rf.Rank != 1 {
				t.Errorf("failed rank = %d, want 1", rf.Rank)
			}
			if rf.Stack == "" {
				t.Error("rank failure carries no stack trace")
			}
			if _, ferr := r.Finish(); !errors.As(ferr, &rf) {
				t.Fatalf("Finish error = %v, want the rank failure", ferr)
			}
		})
	}
}

// TestSabotageNaNTripsFiniteGuard: an injected NaN velocity must be caught
// by the physics guard at the same step's census, as a typed
// *supervise.GuardViolation, before any poisoned record is emitted.
func TestSabotageNaNTripsFiniteGuard(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.3, 7)
			cfg := in.config(t, g)
			cfg.Guard = &supervise.GuardConfig{}
			cfg.Sabotage = &supervise.Sabotage{Kind: supervise.SabotageNaN, Step: 3, Rank: 1}
			if in.split > 0 {
				cfg.Watchdog = 50 * time.Millisecond
			}

			r := in.start(t, cfg, sys)
			err := r.Step(5)
			var gv *supervise.GuardViolation
			if !errors.As(err, &gv) {
				t.Fatalf("Step error = %v, want *supervise.GuardViolation", err)
			}
			if gv.Check != "finite" || gv.Step != 3 {
				t.Errorf("violation = %+v, want the finite check at step 3", gv)
			}
			for _, st := range r.Stats() {
				if st.Step >= 3 {
					t.Fatalf("poisoned step %d leaked into stats", st.Step)
				}
			}
			if _, ferr := r.Finish(); !errors.As(ferr, &gv) {
				t.Fatalf("Finish error = %v, want the guard violation", ferr)
			}
		})
	}
}

// TestGuardsAreTraceNeutral: enabling the guards must not change a healthy
// run's per-step records (guards only observe; they never alter physics).
func TestGuardsAreTraceNeutral(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.3, 7)
			run := func(guard *supervise.GuardConfig) *Result {
				cfg := in.config(t, g)
				cfg.Guard = guard
				r := in.start(t, cfg, sys)
				if err := r.Step(6); err != nil {
					t.Fatal(err)
				}
				res, err := r.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain, guarded := run(nil), run(&supervise.GuardConfig{})
			if len(plain.Stats) != len(guarded.Stats) {
				t.Fatalf("stats length %d vs %d", len(plain.Stats), len(guarded.Stats))
			}
			for i := range plain.Stats {
				if a, b := plain.Stats[i], guarded.Stats[i]; !stepsEqualDeterministic(a, b) {
					t.Fatalf("step %d diverged under guards: %+v vs %+v", a.Step, a, b)
				}
			}
		})
	}
}
