package dlb_test

import (
	"testing"

	"permcell/internal/balance"
	"permcell/internal/dlb"
	"permcell/internal/rng"
	"permcell/internal/topology"
)

// TestLedgerSoakUnderStalls is the randomized quick-check companion of
// TestProtocolSimulation: across many seeds it runs the three-case protocol
// with random loads while a random subset of PEs is "stalled" each step —
// modelling the chaos layer's stall injection, where a PE that misses its
// DLB window contributes the always-legal empty decision while its neighbors
// keep moving columns around it. After every step the full invariant suite
// must hold: 8-neighbor ledger closure (CheckInvariants: permanent columns
// at home, hosts within the up-left set, the C' column bound) and global
// host conservation (every column hosted exactly once).
func TestLedgerSoakUnderStalls(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	const steps = 40

	for seed := 1; seed <= seeds; seed++ {
		r := rng.New(uint64(seed))
		// Random geometry per seed; small tori alias offsets the hardest.
		s := 2 + r.Intn(3)
		m := 2 + r.Intn(3)
		pick := []balance.Pick{balance.PickMostLoaded, balance.PickLeastLoaded, balance.PickLowestIndex}[r.Intn(3)]
		l, lgs := newLedgers(t, s, m)

		loadOf := make([]float64, l.P())
		for step := 0; step < steps; step++ {
			for i := range loadOf {
				loadOf[i] = r.Uniform(1, 2)
			}
			if step%3 == 0 {
				loadOf[r.Intn(l.P())] = r.Uniform(10, 20)
			}

			decisions := make([]dlb.Decision, l.P())
			stalled := 0
			for rank, lg := range lgs {
				if r.Float64() < 0.25 {
					// A stalled PE sits the step out: none is a valid
					// protocol decision its neighbors apply trivially.
					decisions[rank] = none
					stalled++
					continue
				}
				var loads balance.Observation
				loads.Self = loadOf[rank]
				pi, pj := l.T.Coords(rank)
				for k, off := range topology.Offsets8 {
					loads.Neighbor[k] = loadOf[l.T.Rank(pi+off.DI, pj+off.DJ)]
				}
				decisions[rank] = decide(balance.PermanentCell{Pick: pick}, lg, loads)
			}
			for rank, d := range decisions {
				applyEverywhere(t, l, lgs, rank, d)
			}

			checkGlobalPartition(t, l, lgs)
			for rank, lg := range lgs {
				if err := lg.CheckInvariants(); err != nil {
					t.Fatalf("seed %d s=%d m=%d step %d (%d stalled): rank %d: %v",
						seed, s, m, step, stalled, rank, err)
				}
			}
		}
	}
}
