package experiments

import (
	"fmt"
	"io"

	"permcell"
	"permcell/internal/trace"
)

// Fig5Result reproduces Fig. 5: execution time per time step as a function
// of the time step, for plain DDM and DLB-DDM on the same condensing
// system. Tt is reported in the deterministic work metric (pair-distance
// evaluations of the slowest PE, the quantity the T3E timer measured) with
// wall-clock seconds alongside.
type Fig5Result struct {
	M, P int
	Info SysInfo

	Steps            []int
	TtDDM, TtDLB     []float64 // slowest-PE work per step
	WallDDM, WallDLB []float64 // slowest-PE force wall time per step
}

// condensePair runs the same condensing system once without and once with
// DLB.
func condensePair(pr Preset, m, p int, rho float64, steps int, seed uint64) (ddm, dlbRes *permcell.Result, info SysInfo, err error) {
	ddm, info, err = pr.spec(m, p, rho, steps, nil, seed).Run()
	if err != nil {
		return nil, nil, info, err
	}
	dlbRes, _, err = pr.spec(m, p, rho, steps, pr.dlb(), seed).Run()
	if err != nil {
		return nil, nil, info, err
	}
	return ddm, dlbRes, info, nil
}

// Fig5 regenerates one panel of Fig. 5 for the given m (the paper:
// (a) m=4, N=59319, C=13824; (b) m=2, N=8000, C=1728; both on 36 PEs at
// rho=0.256).
func Fig5(pr Preset, m int, seed uint64) (*Fig5Result, error) {
	const rho = 0.256
	ddm, dlbRes, info, err := condensePair(pr, m, pr.P, rho, pr.FigSteps, seed)
	if err != nil {
		return nil, err
	}
	r := &Fig5Result{M: m, P: pr.P, Info: info}
	for i, st := range ddm.Stats {
		r.Steps = append(r.Steps, st.Step)
		r.TtDDM = append(r.TtDDM, st.WorkMax)
		r.WallDDM = append(r.WallDDM, st.WallMax)
		if i < len(dlbRes.Stats) {
			r.TtDLB = append(r.TtDLB, dlbRes.Stats[i].WorkMax)
			r.WallDLB = append(r.WallDLB, dlbRes.Stats[i].WallMax)
		}
	}
	return r, nil
}

// GrowthFactor returns last/first of a smoothed series — the figure's
// headline quantity (DDM grows, DLB-DDM stays near flat for longer).
func growthFactor(vals []float64) float64 {
	if len(vals) < 2 {
		return 1
	}
	s := trace.Smooth(vals, 21)
	first, last := s[0], s[len(s)-1]
	if first == 0 {
		return 1
	}
	return last / first
}

// DDMGrowth returns the DDM execution-time growth over the run.
func (r *Fig5Result) DDMGrowth() float64 { return growthFactor(r.TtDDM) }

// DLBGrowth returns the DLB-DDM execution-time growth over the run.
func (r *Fig5Result) DLBGrowth() float64 { return growthFactor(r.TtDLB) }

// Render prints the series the figure plots plus an ASCII chart.
func (r *Fig5Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 5 (m=%d): execution time per step, DDM vs DLB-DDM\n", r.M)
	fmt.Fprintf(w, "  P=%d  N=%d  C=%d  (paper: m=4 -> N=59319,C=13824; m=2 -> N=8000,C=1728 at P=36)\n",
		r.P, r.Info.N, r.Info.C)
	fmt.Fprintf(w, "  Tt = slowest PE's force work per step [pair evaluations]\n\n")
	fmt.Fprintf(w, "  %8s %14s %14s\n", "step", "DDM", "DLB-DDM")
	stride := len(r.Steps) / 20
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(r.Steps); i += stride {
		fmt.Fprintf(w, "  %8d %14.0f %14.0f\n", r.Steps[i], r.TtDDM[i], r.TtDLB[i])
	}
	fmt.Fprintf(w, "\n  growth over run: DDM %.2fx, DLB-DDM %.2fx\n\n", r.DDMGrowth(), r.DLBGrowth())
	return trace.Plot(w, []string{"DDM", "DLB-DDM"}, [][]float64{r.TtDDM, r.TtDLB}, 72, 18)
}
