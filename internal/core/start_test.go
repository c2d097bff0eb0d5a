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
	meta := checkpoint.Meta{Spec: checkpoint.Spec{
		Kind: checkpoint.KindDLB, M: 3, P: 16, Rho: 0.256,
		Wells: 12, WellK: 1.5, Seed: 1, Dt: checkpoint.DefaultDt,
		Balancer: balance.Encode(balance.PermanentCell{Hysteresis: 0.1}),
	}}
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

// BenchmarkStepBatch sets the cost of control at every step against one
// batch: serve_mix's engine (m=3, P=4, ρ=0.256, 3 wells, permanent cells)
// advanced 8 steps as 8×Step(1) and as one Step(8). mdserve steps one at a
// time so a pause or cancel lands at the next step; the gap between the two
// is what that costs.
func BenchmarkStepBatch(b *testing.B) {
	meta := checkpoint.Meta{Spec: checkpoint.Spec{
		Kind: checkpoint.KindDLB, M: 3, P: 4, Rho: 0.256,
		Wells: 3, WellK: 1.5, Seed: 1, Dt: checkpoint.DefaultDt,
		Balancer: "permcell",
	}}
	cfg, sys, err := runspec.Parallel(&meta, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		calls, size int
	}{{"step1x8", 8, 1}, {"step8x1", 1, 8}} {
		b.Run(c.name, func(b *testing.B) {
			e, err := core.NewEngine(cfg, sys)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Finish()
			if err := e.Step(8); err != nil { // past the step-0 forces and buffer growth
				b.Fatal(err)
			}
			for b.Loop() {
				for range c.calls {
					if err := e.Step(c.size); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
