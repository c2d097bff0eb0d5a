package experiments

import (
	"fmt"
	"io"

	"permcell"
	"permcell/internal/balance"
	"permcell/internal/metrics"
	"permcell/internal/trace"
)

// PhasesResult is the observability companion to Figs. 5 and 7: the
// per-step imbalance gauges (max/ave load ratio and parallel efficiency)
// for plain DDM vs DLB-DDM on the same condensing system, plus each run's
// per-phase wall-time breakdown averaged over the trace. It is built from
// the metrics layer (permcell.WithMetrics) rather than the deterministic
// work census alone, so the phase shares reflect measured time.
type PhasesResult struct {
	M, P int
	Info SysInfo

	Steps              []int
	RatioDDM, RatioDLB []float64 // Fmax/Fave per step (1 = perfect balance)
	EffDDM, EffDLB     []float64 // Fave/Fmax per step
	MovedDLB           []float64 // columns moved by DLB per step

	// PhaseSecsDDM/DLB are run averages of the PE-average per-phase wall
	// seconds; StepWallDDM/DLB the matching whole-step averages.
	PhaseSecsDDM, PhaseSecsDLB [metrics.NumPhases]float64
	StepWallDDM, StepWallDLB   float64
}

// Phases runs the condensing system once without and once with DLB, both
// under the phase-timing layer, and reduces the per-step records into the
// imbalance curves and phase breakdowns.
func Phases(pr Preset, m int, seed uint64) (*PhasesResult, error) {
	const rho = 0.256
	run := func(b balance.Balancer) (*permcell.Result, SysInfo, error) {
		spec := pr.spec(m, pr.P, rho, pr.FigSteps, b, seed)
		spec.Metrics = true
		return spec.Run()
	}
	ddm, info, err := run(nil)
	if err != nil {
		return nil, err
	}
	dlbRes, _, err := run(pr.dlb())
	if err != nil {
		return nil, err
	}

	r := &PhasesResult{M: m, P: pr.P, Info: info}
	for i, st := range ddm.Stats {
		if i >= len(dlbRes.Stats) {
			break
		}
		dl := dlbRes.Stats[i]
		r.Steps = append(r.Steps, st.Step)
		r.RatioDDM = append(r.RatioDDM, st.LoadRatio())
		r.EffDDM = append(r.EffDDM, st.Efficiency())
		r.RatioDLB = append(r.RatioDLB, dl.LoadRatio())
		r.EffDLB = append(r.EffDLB, dl.Efficiency())
		r.MovedDLB = append(r.MovedDLB, float64(dl.Moved))
		for ph := 0; ph < metrics.NumPhases; ph++ {
			r.PhaseSecsDDM[ph] += st.Phases.AveSecs[ph]
			r.PhaseSecsDLB[ph] += dl.Phases.AveSecs[ph]
		}
		r.StepWallDDM += st.StepWallAve
		r.StepWallDLB += dl.StepWallAve
	}
	if n := float64(len(r.Steps)); n > 0 {
		for ph := 0; ph < metrics.NumPhases; ph++ {
			r.PhaseSecsDDM[ph] /= n
			r.PhaseSecsDLB[ph] /= n
		}
		r.StepWallDDM /= n
		r.StepWallDLB /= n
	}
	return r, nil
}

// mean of a series (0 for empty).
func seriesMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// MeanRatioDDM is the run-average DDM load ratio.
func (r *PhasesResult) MeanRatioDDM() float64 { return seriesMean(r.RatioDDM) }

// MeanRatioDLB is the run-average DLB-DDM load ratio.
func (r *PhasesResult) MeanRatioDLB() float64 { return seriesMean(r.RatioDLB) }

// Render prints the phase breakdown table and the imbalance series.
func (r *PhasesResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Phases (m=%d): per-phase time share and load imbalance, DDM vs DLB-DDM\n", r.M)
	fmt.Fprintf(w, "  P=%d  N=%d  C=%d\n\n", r.P, r.Info.N, r.Info.C)
	fmt.Fprintf(w, "  %-14s %14s %7s %14s %7s\n", "phase", "DDM [s/step]", "share", "DLB [s/step]", "share")
	for ph := metrics.Phase(0); ph < metrics.NumPhases; ph++ {
		shareDDM, shareDLB := 0.0, 0.0
		if r.StepWallDDM > 0 {
			shareDDM = 100 * r.PhaseSecsDDM[ph] / r.StepWallDDM
		}
		if r.StepWallDLB > 0 {
			shareDLB = 100 * r.PhaseSecsDLB[ph] / r.StepWallDLB
		}
		fmt.Fprintf(w, "  %-14s %14.3e %6.1f%% %14.3e %6.1f%%\n",
			ph.String(), r.PhaseSecsDDM[ph], shareDDM, r.PhaseSecsDLB[ph], shareDLB)
	}
	fmt.Fprintf(w, "  %-14s %14.3e %7s %14.3e\n\n", "step wall", r.StepWallDDM, "", r.StepWallDLB)
	fmt.Fprintf(w, "  mean load ratio Fmax/Fave: DDM %.3f, DLB-DDM %.3f\n", r.MeanRatioDDM(), r.MeanRatioDLB())
	fmt.Fprintf(w, "  mean efficiency Fave/Fmax: DDM %.3f, DLB-DDM %.3f\n\n",
		seriesMean(r.EffDDM), seriesMean(r.EffDLB))
	return trace.Plot(w, []string{"ratio DDM", "ratio DLB-DDM"},
		[][]float64{r.RatioDDM, r.RatioDLB}, 72, 18)
}

// WriteCSV emits the per-step imbalance series in machine-readable form.
func (r *PhasesResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,ratio_ddm,eff_ddm,ratio_dlb,eff_dlb,moved_dlb"); err != nil {
		return err
	}
	for i, s := range r.Steps {
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%g,%g\n",
			s, r.RatioDDM[i], r.EffDDM[i], r.RatioDLB[i], r.EffDLB[i], r.MovedDLB[i]); err != nil {
			return err
		}
	}
	return nil
}
