// Command theory prints the theoretical DLB effective-range bounds of
// Section 4.1: f(m, n) tables and the maximum-domain sizes C'.
//
// Usage:
//
//	theory [-m 2,3,4] [-nmax 3] [-dn 0.25]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"permcell/internal/theory"
)

func main() {
	ms := flag.String("m", "2,3,4", "comma-separated m values")
	nmax := flag.Float64("nmax", 3, "largest concentration factor n")
	dn := flag.Float64("dn", 0.25, "n step")
	flag.Parse()

	var mvals []int
	for _, s := range strings.Split(*ms, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 2 {
			fmt.Fprintf(os.Stderr, "theory: bad m value %q (need integers >= 2)\n", s)
			os.Exit(2)
		}
		mvals = append(mvals, v)
	}

	fmt.Println("Theoretical upper bounds f(m, n) of the particle concentration ratio C0/C")
	fmt.Println("(eq. 8; DLB balances uniformly while C0/C <= f(m, n))")
	fmt.Printf("\n%8s", "n")
	for _, m := range mvals {
		fmt.Printf(" %12s", fmt.Sprintf("f(%d,n)", m))
	}
	fmt.Println()
	for n := 1.0; n <= *nmax+1e-9; n += *dn {
		fmt.Printf("%8.2f", n)
		for _, m := range mvals {
			fmt.Printf(" %12.4f", theory.MustF(m, n))
		}
		fmt.Println()
	}

	fmt.Println("\nMaximum domain C' (columns) and ratio to the initial m^2:")
	fmt.Printf("%8s %12s %12s\n", "m", "C' cols", "C'/m^2")
	for _, m := range mvals {
		cp := theory.CPrimeColumns(m)
		fmt.Printf("%8d %12d %12.3f\n", m, cp, float64(cp)/float64(m*m))
	}

	fmt.Println("\nCube-domain extension (this repository's generalization, theory.FCube):")
	fmt.Printf("%8s", "n")
	for _, m := range mvals {
		fmt.Printf(" %12s", fmt.Sprintf("fcube(%d,n)", m))
	}
	fmt.Println()
	for n := 1.0; n <= *nmax+1e-9; n += *dn {
		fmt.Printf("%8.2f", n)
		for _, m := range mvals {
			fmt.Printf(" %12.4f", theory.MustFCube(m, n))
		}
		fmt.Println()
	}
	fmt.Printf("\n%8s %12s %12s\n", "m", "Q cells", "Q/m^3")
	for _, m := range mvals {
		q := theory.QCubeCells(m)
		fmt.Printf("%8d %12d %12.3f\n", m, q, float64(q)/float64(m*m*m))
	}
}
