package experiments

import (
	"fmt"
	"io"

	"permcell"
	"permcell/internal/trace"
)

// Fig9Result reproduces Fig. 9: the trajectory a DLB-DDM simulation draws
// in (n, C_0/C) space, plus the experimental boundary point — the step at
// which Fmax-Fmin begins a sustained rise.
type Fig9Result struct {
	M, P int
	Info SysInfo

	Steps []int
	N     []float64 // concentration factor per step
	C0C   []float64 // concentration ratio per step

	// BoundaryIdx indexes the detected boundary point in the trajectory
	// (-1 if the run never left the DLB effective range).
	BoundaryIdx int
}

// detectBoundary applies the Section 4.2 criterion to a DLB run: the step
// at which the (Fmax-Fmin)/Fave imbalance begins a sustained rise.
func detectBoundary(stats []permcell.StepStats) int {
	imb := make([]float64, len(stats))
	for i, st := range stats {
		imb[i] = st.Imbalance()
	}
	baseLen := len(imb) / 4
	if baseLen > 100 {
		baseLen = 100
	}
	return trace.DetectRise(imb, 15, baseLen, 1.5, 0.1)
}

// Fig9 regenerates Fig. 9 from one DLB-DDM condensing run.
func Fig9(pr Preset, seed uint64) (*Fig9Result, error) {
	m := 3
	if len(pr.Ms) > 0 {
		m = pr.Ms[len(pr.Ms)/2]
	}
	const rho = 0.256
	res, info, err := pr.spec(m, pr.P, rho, pr.FigSteps, pr.dlb(), seed).Run()
	if err != nil {
		return nil, err
	}
	r := &Fig9Result{M: m, P: pr.P, Info: info, BoundaryIdx: detectBoundary(res.Stats)}
	for _, st := range res.Stats {
		r.Steps = append(r.Steps, st.Step)
		r.N = append(r.N, st.Conc.NFactor)
		r.C0C = append(r.C0C, st.Conc.C0OverC)
	}
	return r, nil
}

// Render prints the trajectory.
func (r *Fig9Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 9 (m=%d, P=%d, N=%d): trajectory in (n, C0/C) space\n\n", r.M, r.P, r.Info.N)
	fmt.Fprintf(w, "  %8s %10s %10s\n", "step", "n", "C0/C")
	stride := len(r.Steps) / 20
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(r.Steps); i += stride {
		marker := ""
		if r.BoundaryIdx >= i && r.BoundaryIdx < i+stride {
			marker = "   <- experimental boundary point of DLB effective range"
		}
		fmt.Fprintf(w, "  %8d %10.3f %10.3f%s\n", r.Steps[i], r.N[i], r.C0C[i], marker)
	}
	if r.BoundaryIdx >= 0 {
		fmt.Fprintf(w, "\n  boundary at step %d: (n, C0/C) = (%.3f, %.3f)\n",
			r.Steps[r.BoundaryIdx], r.N[r.BoundaryIdx], r.C0C[r.BoundaryIdx])
	} else {
		fmt.Fprintln(w, "\n  run stayed inside the DLB effective range (no boundary)")
	}
	fmt.Fprintln(w, "\n  C0/C over time (trajectory's vertical coordinate):")
	return trace.Plot(w, []string{"C0/C", "n/4"}, [][]float64{r.C0C, scale(r.N, 0.25)}, 72, 14)
}

func scale(vals []float64, f float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v * f
	}
	return out
}

// WriteCSV emits the trajectory as CSV (the cmd/figures -csv output): one
// row per recorded step with a boundary flag marking the detected
// experimental boundary point.
func (r *Fig9Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,n,c0_over_c,boundary"); err != nil {
		return err
	}
	for i := range r.Steps {
		b := 0
		if i == r.BoundaryIdx {
			b = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%d\n", r.Steps[i], r.N[i], r.C0C[i], b); err != nil {
			return err
		}
	}
	return nil
}
