package experiments

import (
	"fmt"
	"io"
	"math"

	"permcell/internal/balance"
	"permcell/internal/theory"
	"permcell/internal/trace"
)

// BalancerTrace is one balancer's trajectory through the shared condensing
// workload: the paper's balance gauges per recorded step plus the
// migration-traffic counters the strategy generated.
type BalancerTrace struct {
	// Name is the balancer identity ("none", "permcell", "sfc",
	// "diffusive"); Spec the canonical parameterized form.
	Name, Spec string

	Steps      []int
	LoadRatio  []float64 // Fmax/Fave per step (1 = perfect balance)
	Efficiency []float64 // Fave/Fmax per step
	N          []float64 // concentration factor per step
	C0C        []float64 // concentration ratio per step
	Moved      []int     // columns migrated per step
	MovedBytes []int64   // particle+force payload bytes migrated per step

	// Run aggregates.
	MeanLoadRatio   float64
	MeanEfficiency  float64
	TotalMoved      int
	TotalMovedBytes int64

	// BoundaryIdx indexes the experimental boundary point (sustained
	// imbalance rise, Section 4.2 criterion; -1 = none detected).
	BoundaryIdx int
	// BoundCrossIdx indexes the first step whose (n, C0/C) leaves the
	// theoretical f(m, n) balancing region (-1 = stays inside).
	BoundCrossIdx int
}

// BalancersResult is the cross-balancer comparison: every strategy of the
// zoo driven over the identical condensation workload (same m, P, rho,
// seed, wells), so the gauges and traffic counters differ only by the
// balancing decisions.
type BalancersResult struct {
	M, P int
	Info SysInfo
	// Epochs is the number of DLB epochs the run spans (the balancers run
	// at the paper's every-step cadence, so this equals the step count).
	Epochs int
	Traces []BalancerTrace
}

// balancerZoo returns the compared strategies, all at the preset's
// hysteresis. nil = static DDM baseline.
func balancerZoo(pr Preset) []struct {
	Name string
	B    balance.Balancer
} {
	return []struct {
		Name string
		B    balance.Balancer
	}{
		{"none", nil},
		{"permcell", balance.PermanentCell{Hysteresis: pr.Hysteresis}},
		{"sfc", balance.SFC{Hysteresis: pr.Hysteresis}},
		{"diffusive", balance.Diffusive{Hysteresis: pr.Hysteresis}},
	}
}

// Balancers runs the cross-balancer comparison on the preset's condensing
// workload: static DDM, permanent-cell, SFC and diffusive over the same
// initial condition, recording LoadRatio/Efficiency traces, the f(m, n)
// boundary curve and the migration traffic of each scheme. m <= 0 selects
// the preset's middle pillar size.
func Balancers(pr Preset, m int, seed uint64) (*BalancersResult, error) {
	if m <= 0 {
		m = 3
		if len(pr.Ms) > 0 {
			m = pr.Ms[len(pr.Ms)/2]
		}
	}
	const rho = 0.256
	r := &BalancersResult{M: m, P: pr.P, Epochs: pr.FigSteps}
	for _, cand := range balancerZoo(pr) {
		res, info, err := pr.spec(m, pr.P, rho, pr.FigSteps, cand.B, seed).Run()
		if err != nil {
			return nil, fmt.Errorf("balancers: %s: %w", cand.Name, err)
		}
		r.Info = info
		tr := BalancerTrace{
			Name:          cand.Name,
			Spec:          balance.Encode(cand.B),
			BoundaryIdx:   detectBoundary(res.Stats),
			BoundCrossIdx: -1,
		}
		var sumLR, sumEff float64
		for i, st := range res.Stats {
			lr, eff := 0.0, 0.0
			if st.WorkAve > 0 {
				lr = st.WorkMax / st.WorkAve
			}
			if st.WorkMax > 0 {
				eff = st.WorkAve / st.WorkMax
			}
			tr.Steps = append(tr.Steps, st.Step)
			tr.LoadRatio = append(tr.LoadRatio, lr)
			tr.Efficiency = append(tr.Efficiency, eff)
			tr.N = append(tr.N, st.Conc.NFactor)
			tr.C0C = append(tr.C0C, st.Conc.C0OverC)
			tr.Moved = append(tr.Moved, st.Moved)
			tr.MovedBytes = append(tr.MovedBytes, st.MovedBytes)
			sumLR += lr
			sumEff += eff
			tr.TotalMoved += st.Moved
			tr.TotalMovedBytes += st.MovedBytes
			if tr.BoundCrossIdx < 0 {
				if f, err := theory.F(m, st.Conc.NFactor); err == nil && st.Conc.C0OverC > f {
					tr.BoundCrossIdx = i
				}
			}
		}
		if n := len(res.Stats); n > 0 {
			tr.MeanLoadRatio = sumLR / float64(n)
			tr.MeanEfficiency = sumEff / float64(n)
		}
		r.Traces = append(r.Traces, tr)
	}
	return r, nil
}

// bound returns f(m, n) along trace tr (NaN outside the domain).
func (r *BalancersResult) bound(tr BalancerTrace, i int) float64 {
	f, err := theory.F(r.M, tr.N[i])
	if err != nil {
		return math.NaN()
	}
	return f
}

// Render prints the comparison: per-balancer summary with migration
// traffic, boundary positions against the f(m, n) curve, and the overlaid
// LoadRatio traces.
func (r *BalancersResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Balancer comparison (m=%d, P=%d, N=%d, %d epochs): same condensation workload per scheme\n\n",
		r.M, r.P, r.Info.N, r.Epochs)
	fmt.Fprintf(w, "  %-10s %10s %10s %8s %12s %10s %12s\n",
		"balancer", "loadratio", "efficiency", "moved", "moved_bytes", "cols/epoch", "bytes/epoch")
	for _, tr := range r.Traces {
		perEpoch := func(v float64) float64 {
			if r.Epochs == 0 {
				return 0
			}
			return v / float64(r.Epochs)
		}
		fmt.Fprintf(w, "  %-10s %10.4f %10.4f %8d %12d %10.3f %12.1f\n",
			tr.Name, tr.MeanLoadRatio, tr.MeanEfficiency,
			tr.TotalMoved, tr.TotalMovedBytes,
			perEpoch(float64(tr.TotalMoved)), perEpoch(float64(tr.TotalMovedBytes)))
	}

	fmt.Fprintf(w, "\n  boundary vs. the theoretical f(m=%d, n) curve:\n", r.M)
	for _, tr := range r.Traces {
		switch {
		case tr.BoundCrossIdx >= 0:
			i := tr.BoundCrossIdx
			fmt.Fprintf(w, "  %-10s leaves the f(m,n) region at step %d: (n, C0/C) = (%.3f, %.3f), f = %.3f\n",
				tr.Name, tr.Steps[i], tr.N[i], tr.C0C[i], r.bound(tr, i))
		default:
			fmt.Fprintf(w, "  %-10s stays inside the f(m,n) region\n", tr.Name)
		}
		if tr.BoundaryIdx >= 0 {
			i := tr.BoundaryIdx
			fmt.Fprintf(w, "  %-10s experimental boundary (imbalance rise) at step %d: (n, C0/C) = (%.3f, %.3f)\n",
				"", tr.Steps[i], tr.N[i], tr.C0C[i])
		}
	}

	fmt.Fprintln(w, "\n  LoadRatio (Fmax/Fave) traces:")
	labels := make([]string, len(r.Traces))
	series := make([][]float64, len(r.Traces))
	for i, tr := range r.Traces {
		labels[i] = tr.Name
		series[i] = tr.LoadRatio
	}
	return trace.Plot(w, labels, series, 72, 14)
}

// WriteCSV emits the comparison in long format: one row per (balancer,
// step) with the balance gauges, the f(m, n) bound along the trajectory
// (empty outside its domain) and the per-step migration traffic.
func (r *BalancersResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "balancer,step,load_ratio,efficiency,n,c0_over_c,bound,moved,moved_bytes"); err != nil {
		return err
	}
	for _, tr := range r.Traces {
		for i := range tr.Steps {
			bound := ""
			if f := r.bound(tr, i); !math.IsNaN(f) {
				bound = fmt.Sprintf("%g", f)
			}
			if _, err := fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%s,%d,%d\n",
				tr.Name, tr.Steps[i], tr.LoadRatio[i], tr.Efficiency[i],
				tr.N[i], tr.C0C[i], bound, tr.Moved[i], tr.MovedBytes[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
