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
	"io"
	"os"
	"slices"

	"permcell/internal/experiments"
	"permcell/internal/theory"
)

// experimentIDs is what "all" runs, in order.
var experimentIDs = []string{"fig5a", "fig5b", "fig6", "fig9", "fig10", "table1", "phases", "balancers"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is figures behind a testable seam: it parses args, writes the
// requested tables to stdout and returns the process exit code — 2 for a
// usage error (a stray argument, a bad flag, an unknown -id or -scale),
// found before anything is printed; 1 when an experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "all", "experiment id: fig5a, fig5b, fig6, fig9, fig10, table1, phases, balancers, theory, all")
	scale := fs.String("scale", "small", "preset scale: tiny, small, full")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	csv := fs.Bool("csv", false, "emit CSV instead of rendered text (fig9, table1, phases, balancers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "figures: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	pr, ok := experiments.PresetByName(*scale)
	if !ok {
		fmt.Fprintf(stderr, "figures: unknown scale %q\n", *scale)
		return 2
	}
	ids := []string{*id}
	switch {
	case *id == "all":
		ids = experimentIDs
	case *id != "theory" && !slices.Contains(experimentIDs, *id):
		fmt.Fprintf(stderr, "figures: unknown experiment id %q\n", *id)
		return 2
	}

	// emit writes one experiment's table: CSV under -csv when it has a CSV
	// form (fig9, table1, phases, balancers), else the rendered text.
	emit := func(r interface{ Render(io.Writer) error }, err error) error {
		if err != nil {
			return err
		}
		if c, ok := r.(interface{ WriteCSV(io.Writer) error }); ok && *csv {
			return c.WriteCSV(stdout)
		}
		return r.Render(stdout)
	}
	experiment := func(name string) error {
		switch name {
		case "fig5a":
			return emit(experiments.Fig5(pr, pr.Ms[len(pr.Ms)-1], *seed))
		case "fig5b":
			return emit(experiments.Fig5(pr, 2, *seed))
		case "fig6":
			return emit(experiments.Fig6(pr, *seed))
		case "fig9":
			return emit(experiments.Fig9(pr, *seed))
		case "fig10":
			for _, m := range pr.Ms {
				if err := emit(experiments.Fig10(pr, m, pr.P, *seed)); err != nil {
					return err
				}
				fmt.Fprintln(stdout)
			}
			return nil
		case "table1":
			return emit(experiments.Table1(pr, *seed))
		case "phases":
			return emit(experiments.Phases(pr, pr.Ms[len(pr.Ms)-1], *seed))
		case "balancers":
			return emit(experiments.Balancers(pr, 0, *seed))
		default: // theory
			theoryTables(stdout)
			return nil
		}
	}

	for _, name := range ids {
		if !*csv {
			fmt.Fprintf(stdout, "==== %s (scale %s) ====\n", name, pr.Name)
		}
		if err := experiment(name); err != nil {
			fmt.Fprintf(stderr, "figures: %s: %v\n", name, err)
			return 1
		}
		if !*csv {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// theoryTables prints the paper's effective-range bounds for m = 2, 3, 4
// over n = 1 .. 3 in steps of 0.25, and the cube-domain analogue.
func theoryTables(w io.Writer) {
	ms := []int{2, 3, 4}
	const nmax, dn = 3.0, 0.25
	curves := func(label string, f func(m int, n float64) float64) {
		fmt.Fprintf(w, "%8s", "n")
		for _, m := range ms {
			fmt.Fprintf(w, " %12s", fmt.Sprintf(label, m))
		}
		fmt.Fprintln(w)
		for n := 1.0; n <= nmax+1e-9; n += dn {
			fmt.Fprintf(w, "%8.2f", n)
			for _, m := range ms {
				fmt.Fprintf(w, " %12.4f", f(m, n))
			}
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintln(w, "Theoretical upper bounds f(m, n) of the particle concentration ratio C0/C")
	fmt.Fprintln(w, "(eq. 8; DLB balances uniformly while C0/C <= f(m, n))")
	fmt.Fprintln(w)
	curves("f(%d,n)", theory.MustF)
	fmt.Fprintln(w, "\nMaximum domain C' (columns) and ratio to the initial m^2:")
	fmt.Fprintf(w, "%8s %12s %12s\n", "m", "C' cols", "C'/m^2")
	for _, m := range ms {
		cp := theory.CPrimeColumns(m)
		fmt.Fprintf(w, "%8d %12d %12.3f\n", m, cp, float64(cp)/float64(m*m))
	}

	fmt.Fprintln(w, "\nCube-domain extension (this repository's generalization, theory.FCube):")
	curves("fcube(%d,n)", theory.MustFCube)
	fmt.Fprintf(w, "\n%8s %12s %12s\n", "m", "Q cells", "Q/m^3")
	for _, m := range ms {
		q := theory.QCubeCells(m)
		fmt.Fprintf(w, "%8d %12d %12.3f\n", m, q, float64(q)/float64(m*m*m))
	}
}
