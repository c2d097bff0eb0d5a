package permcell_test

import (
	"context"
	"testing"

	"permcell"
)

// TestMetricsPhaseBreakdown runs each engine under WithMetrics and checks
// the observability contract: phases accumulate time, comm phases carry
// message counts on the parallel engines, and the per-step phase sum
// accounts for the bulk of the measured whole-step wall time (the taxonomy
// excludes only the stats census and tiny glue, so the run-aggregate sum
// must land close below the wall-clock reference).
func TestMetricsPhaseBreakdown(t *testing.T) {
	engines := []struct {
		name     string
		parallel bool
		mk       func() (permcell.Engine, error)
	}{
		{"parallel", true, func() (permcell.Engine, error) {
			return permcell.New(2, 4, 0.3, permcell.WithMetrics(), permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})))
		}},
		{"static", true, func() (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeCube, 4, 8, 0.3, permcell.WithMetrics())
		}},
		{"serial", false, func() (permcell.Engine, error) {
			return permcell.NewSerial(4, 0.3, permcell.WithMetrics())
		}},
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := permcell.RunEngine(context.Background(), eng, 20)
			if err != nil {
				t.Fatal(err)
			}
			var phaseSum, wallSum float64
			var msgs int64
			for _, st := range res.Stats {
				if st.StepWallAve <= 0 || st.StepWallMax < st.StepWallAve {
					t.Fatalf("step %d wall times %v/%v", st.Step, st.StepWallMax, st.StepWallAve)
				}
				if st.Phases.AveSecs[permcell.PhaseForce] <= 0 {
					t.Fatalf("step %d has no force-phase time", st.Step)
				}
				phaseSum += st.Phases.SumAveSecs()
				wallSum += st.StepWallAve
				msgs += st.Phases.SumMsgs()
			}
			ratio := phaseSum / wallSum
			if ratio > 1.001 {
				t.Errorf("phase sum exceeds step wall: ratio %v", ratio)
			}
			if ratio < 0.6 {
				t.Errorf("phase sum covers only %.0f%% of step wall", 100*ratio)
			}
			if tc.parallel {
				if msgs == 0 {
					t.Error("parallel engine recorded no per-phase messages")
				}
				if res.Stats[0].Phases.Msgs[permcell.PhaseHalo] == 0 {
					t.Error("no halo messages attributed")
				}
			}
		})
	}
}

// TestMetricsOffLeavesStatsZero pins the default: without WithMetrics the
// breakdown stays all-zero, so the hot path demonstrably skipped the timer.
func TestMetricsOffLeavesStatsZero(t *testing.T) {
	res, err := permcell.Run(context.Background(), 2, 4, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stats {
		if st.Phases != (permcell.PhaseBreakdown{}) {
			t.Fatalf("step %d has a phase breakdown without WithMetrics: %+v", st.Step, st.Phases)
		}
	}
}
