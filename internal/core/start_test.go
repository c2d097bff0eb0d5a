package core_test

import (
	"testing"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/core"
	"permcell/internal/runspec"
)

// BenchmarkEngineStart is a fresh parallel engine's time to its first step
// on the bench's condense_chan spec (m=3, P=16, N=6912, 12 wells, permanent
// cells at h=0.1): construct, Step(1), Finish. It covers the initial deal,
// the step-0 forces and one step; the system is built once, outside the
// loop, as every engine shares it read-only.
func BenchmarkEngineStart(b *testing.B) {
	meta := checkpoint.Meta{
		Kind: checkpoint.KindDLB, M: 3, P: 16, Rho: 0.256,
		Wells: 12, WellK: 1.5, Seed: 1, Dt: runspec.DefaultDt,
		Balancer: balance.Encode(balance.PermanentCell{Hysteresis: 0.1}),
	}
	cfg, sys, err := runspec.Parallel(&meta, nil)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		e, err := core.NewEngine(cfg, sys)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Step(1); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
