// Droplet: drives a gas into deep condensation under DLB-DDM and watches
// the simulation cross the DLB effective-range boundary of Section 4 —
// the (n, C0/C) trajectory of Fig. 9, the detected boundary point, and the
// comparison against the theoretical upper bound f(m, n).
//
//	go run ./examples/droplet
package main

import (
	"context"
	"fmt"
	"log"

	"permcell"
)

func main() {
	const m, p = 2, 16
	fmt.Println("droplet: condensing run under DLB-DDM; watching the DLB limit...")
	res, err := permcell.Run(context.Background(), m, p, 0.128, 600,
		permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})),
		permcell.WithSeed(3), permcell.WithWells(4, 2.0))
	if err != nil {
		log.Fatal(err)
	}
	cPrime := permcell.MaxDomainColumns(m)
	fmt.Printf("N=%d, C=%d, P=%d, m=%d; C' = %d columns (%.2fx a PE's own %d)\n\n",
		res.Final.Len(), res.Stats[0].Conc.C, p, m,
		cPrime, float64(cPrime)/float64(m*m), m*m)

	fmt.Printf("%8s %8s %8s %10s %10s %12s %8s\n",
		"step", "n", "C0/C", "f(m,n)", "margin", "imbalance", "moved")
	for _, st := range res.Stats {
		if st.Step%50 != 0 {
			continue
		}
		n := st.Conc.NFactor
		bound := 1.0
		if n > 1 {
			b, err := permcell.Bound(m, n)
			if err != nil {
				log.Fatal(err)
			}
			bound = b
		}
		fmt.Printf("%8d %8.3f %8.3f %10.3f %+10.3f %12.2f %8d\n",
			st.Step, n, st.Conc.C0OverC, bound, bound-st.Conc.C0OverC,
			st.Imbalance(), st.Moved)
	}
	fmt.Println("\nwhile C0/C stays below f(m,n), DLB keeps the imbalance small;")
	fmt.Println("once the margin goes negative the permanent-cell limit is exceeded")
	fmt.Println("and the imbalance grows — exactly the paper's Fig. 6(b) behaviour.")
}
