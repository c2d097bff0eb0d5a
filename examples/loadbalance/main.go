// Loadbalance: the paper's headline experiment in miniature. A condensing
// gas is run twice on a 4x4 PE torus — once with plain domain decomposition
// (DDM) and once with permanent-cell dynamic load balancing (DLB-DDM) — and
// the per-step load imbalance of both runs is compared.
//
//	go run ./examples/loadbalance
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"permcell"
	"permcell/internal/trace"
)

func main() {
	const m, p = 3, 16
	opts := []permcell.Option{
		permcell.WithSeed(7), permcell.WithWells(12, 1.5),
	}

	fmt.Println("running DDM (no load balancing)...")
	ddm, err := permcell.Run(context.Background(), m, p, 0.256, 400, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running DLB-DDM (permanent-cell dynamic load balancing)...")
	dlb, err := permcell.Run(context.Background(), m, p, 0.256, 400,
		append(opts, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})))...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nN=%d particles, C=%d cells, P=%d PEs, m=%d\n\n",
		ddm.Final.Len(), ddm.Stats[0].Conc.C, p, m)
	fmt.Printf("%8s  %22s  %22s\n", "", "DDM", "DLB-DDM")
	fmt.Printf("%8s  %10s %11s  %10s %11s\n", "step", "Tt[pairs]", "(max-min)/avg", "Tt[pairs]", "(max-min)/avg")
	var sd, sl []float64
	moved := 0
	for i, st := range ddm.Stats {
		dl := dlb.Stats[i]
		sd = append(sd, st.Imbalance())
		sl = append(sl, dl.Imbalance())
		moved += dl.Moved
		if st.Step%40 == 0 {
			fmt.Printf("%8d  %10.0f %11.2f  %10.0f %11.2f\n",
				st.Step, st.WorkMax, st.Imbalance(), dl.WorkMax, dl.Imbalance())
		}
	}
	fmt.Printf("\nDLB moved %d cell columns in total.\n", moved)
	fmt.Println("\nimbalance (Fmax-Fmin)/Fave over time:")
	if err := trace.Plot(os.Stdout, []string{"DDM", "DLB-DDM"}, [][]float64{sd, sl}, 72, 14); err != nil {
		log.Fatal(err)
	}
}
