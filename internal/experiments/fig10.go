package experiments

import (
	"fmt"
	"io"
	"math"

	"permcell/internal/theory"
)

// BoundaryPoint is one experimental boundary point of Fig. 10: the
// concentration state at which DLB stops balancing a run at the given
// density, averaged over Reps independent runs.
type BoundaryPoint struct {
	Rho      float64
	N, C0C   float64 // means over detected runs
	NStd     float64
	C0CStd   float64
	Runs     int     // runs attempted
	Detected int     // runs whose boundary was found
	TheoryF  float64 // f(m, n) at the measured n
	MeanStep float64
}

// Fig10Result reproduces one panel of Fig. 10: theoretical upper bound
// f(m, n) vs experimental boundary points for several densities, plus the
// least-squares experimental boundary (the E/T scale of Table 1).
type Fig10Result struct {
	M, P   int
	Points []BoundaryPoint
	// EOverT is the least-squares ratio of the experimental boundary to
	// the theoretical bound (Table 1's E/T).
	EOverT float64
	// Fitted reports whether enough points were detected to fit E/T.
	Fitted bool
}

// boundaryOnce runs one DLB condensing run and returns the boundary
// concentration state, or ok=false if the run never crossed the limit.
func boundaryOnce(pr Preset, m, p int, rho float64, seed uint64) (n, c0c float64, step int, ok bool) {
	res, _, err := pr.spec(m, p, rho, pr.BoundarySteps, pr.dlb(), seed).Run()
	if err != nil {
		return 0, 0, 0, false
	}
	idx := detectBoundary(res.Stats)
	if idx < 0 || idx >= len(res.Stats) {
		return 0, 0, 0, false
	}
	st := res.Stats[idx]
	// A DLB-limit boundary only exists in a meaningful concentration state:
	// with no empty cells (C_0 = 0) or n < 1 the detected rise is
	// cell-granularity noise, not the Section 4 limit.
	if st.Conc.C0 == 0 || st.Conc.NFactor < 1 {
		return 0, 0, 0, false
	}
	return st.Conc.NFactor, st.Conc.C0OverC, st.Step, true
}

// Fig10 regenerates one panel (one m) of Fig. 10 at PE count p.
func Fig10(pr Preset, m, p int, seed uint64) (*Fig10Result, error) {
	// boundaryOnce reads a failed run as no crossing, so an identity no
	// engine can be built from is refused here, not averaged away.
	for _, rho := range pr.Densities {
		if err := pr.spec(m, p, rho, 0, pr.dlb(), seed).Validate(); err != nil {
			return nil, fmt.Errorf("experiments: Fig10: %w", err)
		}
	}
	r := &Fig10Result{M: m, P: p}
	var xs, ys []float64
	for di, rho := range pr.Densities {
		var ns, cs, steps []float64
		runs := 0
		for rep := 0; rep < pr.Reps; rep++ {
			runs++
			n, c0c, step, ok := boundaryOnce(pr, m, p, rho, seed+uint64(1000*di+rep))
			if !ok {
				continue
			}
			ns = append(ns, n)
			cs = append(cs, c0c)
			steps = append(steps, float64(step))
		}
		pt := BoundaryPoint{Rho: rho, Runs: runs, Detected: len(ns)}
		if len(ns) > 0 {
			pt.N, pt.NStd = meanStd(ns)
			pt.C0C, pt.C0CStd = meanStd(cs)
			pt.MeanStep, _ = meanStd(steps)
			nClamped := pt.N
			if nClamped < 1 {
				nClamped = 1
			}
			pt.TheoryF = theory.MustF(m, nClamped)
			xs = append(xs, pt.TheoryF)
			ys = append(ys, pt.C0C)
		}
		r.Points = append(r.Points, pt)
	}
	if len(xs) > 0 {
		if a, err := fitScale(xs, ys); err == nil {
			r.EOverT = a
			r.Fitted = true
		}
	}
	return r, nil
}

// Render prints the panel.
func (r *Fig10Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 10 (m=%d, P=%d): theoretical upper bound vs experimental boundary points\n\n", r.M, r.P)
	fmt.Fprintf(w, "  theoretical upper bound: f(%d, n) = 3(m-1)^2 / (m^2(n-1) + 3n(m-1)^2)\n", r.M)
	fmt.Fprintf(w, "  %8s %10s %12s %12s %12s %10s %10s\n",
		"rho", "detected", "n", "C0/C (E)", "f(m,n) (T)", "E/T", "step")
	for _, pt := range r.Points {
		if pt.Detected == 0 {
			fmt.Fprintf(w, "  %8.3f %7d/%-2d %12s %12s %12s %10s %10s\n",
				pt.Rho, 0, pt.Runs, "-", "-", "-", "-", "-")
			continue
		}
		ratio := 0.0
		if pt.TheoryF > 0 {
			ratio = pt.C0C / pt.TheoryF
		}
		fmt.Fprintf(w, "  %8.3f %7d/%-2d %6.3f±%-5.3f %6.3f±%-5.3f %12.3f %10.3f %10.0f\n",
			pt.Rho, pt.Detected, pt.Runs, pt.N, pt.NStd, pt.C0C, pt.C0CStd, pt.TheoryF, ratio, pt.MeanStep)
	}
	if r.Fitted {
		fmt.Fprintf(w, "\n  least-squares experimental boundary: E = %.3f * f(%d, n)   (E/T = %.3f)\n",
			r.EOverT, r.M, r.EOverT)
	} else {
		fmt.Fprintln(w, "\n  no boundary points detected; runs stayed inside the DLB effective range")
	}
	return nil
}

// fitScale fits y ~= a*x by least squares and returns a = sum(x*y)/sum(x^2).
// The paper computes experimental boundaries by fitting the measured
// boundary points against the shape of the theoretical bound; this is that
// fit, and the one behind Table 1: with x = f(m, n_i) (theory) and
// y = measured boundary C_0/C, the fitted a is the E/T ratio.
func fitScale(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, fmt.Errorf("experiments: need equal-length non-empty inputs, got %d and %d", len(xs), len(ys))
	}
	var sxy, sxx float64
	for i := range xs {
		sxy += xs[i] * ys[i]
		sxx += xs[i] * xs[i]
	}
	if sxx == 0 {
		return 0, fmt.Errorf("experiments: all x values are zero")
	}
	return sxy / sxx, nil
}

// meanStd returns the mean and (population) standard deviation of vals —
// used for the error ranges on the experimental boundary points, which the
// paper derives from ten runs per point.
func meanStd(vals []float64) (mean, std float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std
}
