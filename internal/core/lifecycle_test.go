package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"permcell/internal/comm"
	"permcell/internal/supervise"
)

// TestLifecycle pins the engine's command contract once over every
// instantiation: argument guards, a snapshot that leaves the run usable,
// an idempotent Finish, and rejection of commands after it.
func TestLifecycle(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.3, 61)
			r := in.start(t, in.config(t, g), sys)

			if err := r.Step(-1); err == nil || !strings.Contains(err.Error(), "negative step count -1") {
				t.Errorf("Step(-1) err = %v", err)
			}
			if err := r.Step(0); err != nil {
				t.Errorf("Step(0) err = %v", err)
			}
			if err := r.Step(2); err != nil {
				t.Fatalf("Step(2) err = %v", err)
			}
			st, err := r.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot err = %v", err)
			}
			if err := st.Validate(in.p); err != nil {
				t.Fatal(err)
			}
			n := 0
			for i := range st.Frames {
				n += len(st.Frames[i].ID)
				if in.static && st.Frames[i].Cols != nil {
					t.Errorf("static frame %d carries a column set", i)
				}
			}
			if st.Step != 2 || n != sys.Set.Len() {
				t.Errorf("snapshot at step %d holds %d particles, want step 2 and %d", st.Step, n, sys.Set.Len())
			}
			if err := r.Step(1); err != nil {
				t.Fatalf("Step after Snapshot err = %v", err)
			}

			res, err := r.Finish()
			if err != nil {
				t.Fatalf("Finish err = %v", err)
			}
			if res == nil || res.Final == nil || res.Final.Len() != sys.Set.Len() || len(res.Stats) != 3 {
				t.Fatalf("unusable result: %+v", res)
			}
			again, err := r.Finish()
			if err != nil || again != res {
				t.Errorf("second Finish = (%p, %v), want the first outcome (%p, nil)", again, err, res)
			}
			if err := r.Step(1); err == nil || !strings.Contains(err.Error(), "Step after Finish") {
				t.Errorf("Step after Finish err = %v", err)
			}
			if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), "Snapshot after Finish") {
				t.Errorf("Snapshot after Finish err = %v", err)
			}
		})
	}
}

// TestRankPanicBeforeStep kills a rank during the step-0 force computation
// (a restore frame holding another rank's particles trips the binning check
// in init): the first Step must report the typed failure instead of queueing
// a batch to a dead world, Snapshot must refuse the same way, and Finish
// must return the failure without hanging.
func TestRankPanicBeforeStep(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.3, 62)
			cfg := in.config(t, g)
			cfg.Watchdog = 50 * time.Millisecond // unwedges the blocks that did not fail
			healthy := in.start(t, cfg, sys)
			st, err := healthy.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := healthy.Finish(); err != nil {
				t.Fatal(err)
			}
			fr := st.Frames
			fr[0].ID, fr[1].ID = fr[1].ID, fr[0].ID
			fr[0].Pos, fr[1].Pos = fr[1].Pos, fr[0].Pos
			fr[0].Vel, fr[1].Vel = fr[1].Vel, fr[0].Vel
			cfg.Restore = st

			r := in.start(t, cfg, sys)
			var rf *supervise.RankFailure
			if err := r.Step(1); !errors.As(err, &rf) {
				t.Fatalf("Step err = %v, want *supervise.RankFailure", err)
			}
			if rf.Rank != 0 && rf.Rank != 1 {
				t.Errorf("failed rank = %d, want 0 or 1", rf.Rank)
			}
			if _, err := r.Snapshot(); !errors.As(err, &rf) {
				t.Errorf("Snapshot err = %v, want the rank failure", err)
			}
			if res, err := r.Finish(); !errors.As(err, &rf) || res != nil {
				t.Errorf("Finish = (%v, %v), want (nil, the rank failure)", res, err)
			}
		})
	}
}

// TestStalledBatchSalvage injects a stall that outlasts the batch watchdog:
// Step returns a *comm.DeadlockError, and Finish — waiting out the stall
// under its extended grace — still drains the batch and returns the
// statistics and final state together with the original error.
func TestStalledBatchSalvage(t *testing.T) {
	for _, in := range instantiations {
		t.Run(in.name, func(t *testing.T) {
			sys, g := testSystem(t, 4, 0.3, 63)
			cfg := in.config(t, g)
			cfg.Watchdog = 60 * time.Millisecond
			cfg.Faults = &comm.FaultPlan{
				Seed:   1,
				Stalls: []comm.Stall{{Rank: 1, AfterOps: 150, Duration: 300 * time.Millisecond}},
			}
			r := in.start(t, cfg, sys)
			var dl *comm.DeadlockError
			if err := r.Step(40); !errors.As(err, &dl) {
				r.Finish()
				t.Fatalf("Step err = %v, want *comm.DeadlockError", err)
			}
			res, err := r.Finish()
			if !errors.As(err, &dl) {
				t.Fatalf("Finish err = %v, want the deadlock error", err)
			}
			if res == nil || res.Final == nil || res.Final.Len() != sys.Set.Len() || len(res.Stats) != 40 {
				t.Fatalf("salvage produced no usable result: %+v", res)
			}
		})
	}
}
