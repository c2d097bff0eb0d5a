package core

// Engine-level conformance of the balancer zoo: every strategy drives its
// migrations through the same ledger/colTransfer machinery, so a
// blob-concentrated run with no external forces must (a) actually migrate
// columns under the imbalance, (b) conserve every particle, and (c) keep
// the total momentum at the zero the drift-free initial condition starts
// from — migrated columns carry their accumulated forces, so the
// post-transfer half-kick cannot inject momentum (the PR-6 defect class).

import (
	"math"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/space"
)

func coreZoo() map[string]balance.Balancer {
	return map[string]balance.Balancer{
		"permcell":  balance.PermanentCell{},
		"sfc":       balance.SFC{},
		"diffusive": balance.Diffusive{},
	}
}

func TestBalancerZeroNetMomentum(t *testing.T) {
	// m=3 at P=9: enough movable columns that every strategy in the zoo
	// actually fires on the blob imbalance.
	nc := 9
	l := float64(nc) * 2.5
	n := int(math.Round(0.3 * l * l * l))
	rho := float64(n) / (l * l * l)
	sys, err := blobGas(n, rho, 0.722, 0.7, 4.0, 31)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range coreZoo() {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(g, 9)
			cfg.Balancer = b
			res, err := Run(cfg, sys, 40)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			var movedBytes int64
			for _, st := range res.Stats {
				moved += st.Moved
				movedBytes += st.MovedBytes
			}
			if moved == 0 {
				t.Fatalf("%s never moved a column under the blob imbalance (vacuous momentum check)", name)
			}
			if movedBytes <= 0 {
				t.Fatalf("%s moved %d columns but counted %d payload bytes", name, moved, movedBytes)
			}
			if res.Final.Len() != sys.Set.Len() {
				t.Fatalf("%s: particle count %d -> %d", name, sys.Set.Len(), res.Final.Len())
			}
			p := res.Final.Momentum()
			if m := math.Max(math.Abs(p.X), math.Max(math.Abs(p.Y), math.Abs(p.Z))); m > 1e-9 {
				t.Fatalf("%s: net momentum %v after 40 steps with %d migrations", name, p, moved)
			}
		})
	}
}

// TestBalancerLedgerLegality runs the zoo under Verify: every decision a
// balancer emits is re-validated by the ledger's Apply (decider must host,
// permanent cells never move, Case-1 targets stay in the owner's up-left
// set, Case-3 returns go to the owner) and the per-step invariant checks —
// an out-of-contract move panics instead of silently corrupting hosting.
func TestBalancerLedgerLegality(t *testing.T) {
	nc := 6
	l := float64(nc) * 2.5
	n := int(math.Round(0.3 * l * l * l))
	rho := float64(n) / (l * l * l)
	sys, err := blobGas(n, rho, 0.722, 0.7, 4.0, 33)
	if err != nil {
		t.Fatal(err)
	}
	g, err := space.NewGridWithDims(sys.Box, nc, nc, nc)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range coreZoo() {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(g, 9)
			cfg.Balancer = b
			cfg.Verify = true
			if _, err := Run(cfg, sys, 30); err != nil {
				t.Fatal(err)
			}
		})
	}
}
