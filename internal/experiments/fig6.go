package experiments

import (
	"fmt"
	"io"

	"permcell"
	"permcell/internal/trace"
)

// ForceSeries is one method's per-step force-time decomposition: the
// paper's Tt, Fmax, Fave, Fmin lines of Fig. 6, in the work metric.
type ForceSeries struct {
	Steps                []int
	Tt, Fmax, Fave, Fmin []float64
}

func forceSeries(res *permcell.Result) ForceSeries {
	var s ForceSeries
	for _, st := range res.Stats {
		s.Steps = append(s.Steps, st.Step)
		// On the work metric the step time is dominated by — and here equal
		// to — the slowest force computation (the paper: "Tt depends on
		// Fmax ... because of the synchronization among PEs").
		s.Tt = append(s.Tt, st.WorkMax)
		s.Fmax = append(s.Fmax, st.WorkMax)
		s.Fave = append(s.Fave, st.WorkAve)
		s.Fmin = append(s.Fmin, st.WorkMin)
	}
	return s
}

// Spread returns Fmax-Fmin at sample i.
func (s ForceSeries) Spread(i int) float64 { return s.Fmax[i] - s.Fmin[i] }

// Fig6Result reproduces Fig. 6: the force-time decomposition for DDM (a)
// and DLB-DDM (b) on the m=4 run of Fig. 5(a).
type Fig6Result struct {
	M, P int
	Info SysInfo
	DDM  ForceSeries
	DLB  ForceSeries
}

// Fig6 regenerates Fig. 6 (paper: m=4, N=59319, C=13824, 36 PEs).
func Fig6(pr Preset, seed uint64) (*Fig6Result, error) {
	m := 4
	if len(pr.Ms) > 0 {
		m = pr.Ms[len(pr.Ms)-1] // the largest m the preset affords
	}
	const rho = 0.256
	ddm, dlbRes, info, err := condensePair(pr, m, pr.P, rho, pr.FigSteps, seed)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		M: m, P: pr.P, Info: info,
		DDM: forceSeries(ddm),
		DLB: forceSeries(dlbRes),
	}, nil
}

// Render prints both panels.
func (r *Fig6Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 6 (m=%d, P=%d, N=%d, C=%d): Tt / Fmax / Fave / Fmin per step\n\n",
		r.M, r.P, r.Info.N, r.Info.C)
	for _, panel := range []struct {
		name string
		s    ForceSeries
	}{{"(a) DDM", r.DDM}, {"(b) DLB-DDM", r.DLB}} {
		fmt.Fprintf(w, "%s\n  %8s %12s %12s %12s %12s %12s\n",
			panel.name, "step", "Tt", "Fmax", "Fave", "Fmin", "Fmax-Fmin")
		stride := len(panel.s.Steps) / 15
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < len(panel.s.Steps); i += stride {
			fmt.Fprintf(w, "  %8d %12.0f %12.0f %12.0f %12.0f %12.0f\n",
				panel.s.Steps[i], panel.s.Tt[i], panel.s.Fmax[i], panel.s.Fave[i],
				panel.s.Fmin[i], panel.s.Spread(i))
		}
		if err := trace.Plot(w, []string{"Fmax", "Fave", "Fmin"},
			[][]float64{panel.s.Fmax, panel.s.Fave, panel.s.Fmin}, 72, 14); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
