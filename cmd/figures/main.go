// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures -id fig5a|fig5b|fig6|fig9|fig10|table1|phases|balancers|theory|all
//	        [-scale tiny|small|full] [-seed N] [-csv]
//
// Each id prints the same rows/series the paper reports (see DESIGN.md's
// per-experiment index). Scales: tiny (seconds, CI), small (minutes,
// default), full (paper sizes, hours). With -csv, fig9, table1, phases and
// balancers emit machine-readable CSV instead of the rendered text — the
// format the golden regression tests in internal/experiments pin. The
// phases id runs the observability layer: per-phase time shares and the
// Fig. 5/7-style imbalance curves for DDM vs DLB-DDM. The balancers id is
// the cross-balancer comparison: static DDM, permanent-cell, SFC and
// diffusive over the same condensation workload, with LoadRatio/Efficiency
// traces, f(m,n) boundary positions and per-scheme migration traffic
// (columns and bytes moved per DLB epoch).
//
// The theory id prints the bounds of Section 4.1 — f(m, n) for m = 2, 3, 4,
// the maximum domains C', and this repository's cube-domain extension — and
// takes no scale or seed; "all" runs the experiments only. The balancers
// CSV at tiny scale is also the deterministic cross-balancer traffic gate
// (its moved / moved_bytes columns are exact per strategy).
package main

import (
	"flag"
	"fmt"
	"os"

	"permcell/internal/experiments"
	"permcell/internal/theory"
)

func main() {
	id := flag.String("id", "all", "experiment id: fig5a, fig5b, fig6, fig9, fig10, table1, phases, balancers, theory, all")
	scale := flag.String("scale", "small", "preset scale: tiny, small, full")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	csv := flag.Bool("csv", false, "emit CSV instead of rendered text (fig9, table1, phases, balancers)")
	flag.Parse()

	pr, ok := experiments.PresetByName(*scale)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	run := func(name string) error {
		switch name {
		case "fig5a":
			m := pr.Ms[len(pr.Ms)-1]
			r, err := experiments.Fig5(pr, m, *seed)
			if err != nil {
				return err
			}
			return r.Render(os.Stdout)
		case "fig5b":
			r, err := experiments.Fig5(pr, 2, *seed)
			if err != nil {
				return err
			}
			return r.Render(os.Stdout)
		case "fig6":
			r, err := experiments.Fig6(pr, *seed)
			if err != nil {
				return err
			}
			return r.Render(os.Stdout)
		case "fig9":
			r, err := experiments.Fig9(pr, *seed)
			if err != nil {
				return err
			}
			if *csv {
				return r.WriteCSV(os.Stdout)
			}
			return r.Render(os.Stdout)
		case "fig10":
			for _, m := range pr.Ms {
				r, err := experiments.Fig10(pr, m, pr.P, *seed)
				if err != nil {
					return err
				}
				if err := r.Render(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		case "table1":
			r, err := experiments.Table1(pr, *seed)
			if err != nil {
				return err
			}
			if *csv {
				return r.WriteCSV(os.Stdout)
			}
			return r.Render(os.Stdout)
		case "phases":
			r, err := experiments.Phases(pr, pr.Ms[len(pr.Ms)-1], *seed)
			if err != nil {
				return err
			}
			if *csv {
				return r.WriteCSV(os.Stdout)
			}
			return r.Render(os.Stdout)
		case "balancers":
			r, err := experiments.Balancers(pr, 0, *seed)
			if err != nil {
				return err
			}
			if *csv {
				return r.WriteCSV(os.Stdout)
			}
			return r.Render(os.Stdout)
		case "theory":
			theoryTables()
			return nil
		default:
			return fmt.Errorf("unknown experiment id %q", name)
		}
	}

	ids := []string{*id}
	if *id == "all" {
		ids = []string{"fig5a", "fig5b", "fig6", "fig9", "fig10", "table1", "phases", "balancers"}
	}
	for _, name := range ids {
		if !*csv {
			fmt.Printf("==== %s (scale %s) ====\n", name, pr.Name)
		}
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if !*csv {
			fmt.Println()
		}
	}
}

// theoryTables prints the paper's effective-range bounds for m = 2, 3, 4
// over n = 1 .. 3 in steps of 0.25, and the cube-domain analogue.
func theoryTables() {
	ms := []int{2, 3, 4}
	const nmax, dn = 3.0, 0.25
	curves := func(label string, f func(m int, n float64) float64) {
		fmt.Printf("%8s", "n")
		for _, m := range ms {
			fmt.Printf(" %12s", fmt.Sprintf(label, m))
		}
		fmt.Println()
		for n := 1.0; n <= nmax+1e-9; n += dn {
			fmt.Printf("%8.2f", n)
			for _, m := range ms {
				fmt.Printf(" %12.4f", f(m, n))
			}
			fmt.Println()
		}
	}

	fmt.Println("Theoretical upper bounds f(m, n) of the particle concentration ratio C0/C")
	fmt.Println("(eq. 8; DLB balances uniformly while C0/C <= f(m, n))")
	fmt.Println()
	curves("f(%d,n)", theory.MustF)
	fmt.Println("\nMaximum domain C' (columns) and ratio to the initial m^2:")
	fmt.Printf("%8s %12s %12s\n", "m", "C' cols", "C'/m^2")
	for _, m := range ms {
		cp := theory.CPrimeColumns(m)
		fmt.Printf("%8d %12d %12.3f\n", m, cp, float64(cp)/float64(m*m))
	}

	fmt.Println("\nCube-domain extension (this repository's generalization, theory.FCube):")
	curves("fcube(%d,n)", theory.MustFCube)
	fmt.Printf("\n%8s %12s %12s\n", "m", "Q cells", "Q/m^3")
	for _, m := range ms {
		q := theory.QCubeCells(m)
		fmt.Printf("%8d %12d %12.3f\n", m, q, float64(q)/float64(m*m*m))
	}
}
