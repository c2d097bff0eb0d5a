package permcell

// Balancer-conformance suite: every strategy of the zoo must satisfy the
// contracts the engine's correctness rests on, regardless of how it picks
// its moves — bit-reproducibility (identical runs produce identical traces
// and final states), particle conservation, zero
// net momentum after the transfer step (forces travel with migrated
// columns, see DESIGN.md section 11), and checkpoint/kill-resume
// equivalence.

import (
	"path/filepath"
	"strings"
	"testing"

	"permcell/internal/checkpoint"
)

// conformanceZoo returns every real balancer at a zero-ish hysteresis so
// the condensing workload actually triggers moves.
func conformanceZoo() map[string]Balancer {
	return map[string]Balancer{
		"permcell":  PermanentCell(PermanentCellConfig{Hysteresis: 0}),
		"sfc":       SFC(SFCConfig{Hysteresis: 0}),
		"diffusive": Diffusive(DiffusiveConfig{Hysteresis: 0}),
	}
}

// conformanceRun executes one condensing m=2, P=4 run under b.
func conformanceRun(t *testing.T, b Balancer, steps int) *Result {
	t.Helper()
	eng, err := New(2, 4, 0.3,
		WithBalancer(b), WithSeed(7), WithWells(1, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(steps); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBalancerConformance(t *testing.T) {
	const steps = 30
	// Reference particle count from a static run of the same system.
	ref := conformanceRun(t, nil, 1)
	wantN := ref.Final.Len()

	for name, b := range conformanceZoo() {
		t.Run(name, func(t *testing.T) {
			r1 := conformanceRun(t, b, steps)
			r2 := conformanceRun(t, b, steps)

			// Bit-reproducibility: trace and final state.
			if len(r1.Stats) != len(r2.Stats) {
				t.Fatalf("stats length %d vs %d", len(r1.Stats), len(r2.Stats))
			}
			for i := range r1.Stats {
				if !sameTrace(r1.Stats[i], r2.Stats[i]) {
					t.Fatalf("trace diverged between identical runs at step %d", r1.Stats[i].Step)
				}
			}
			for i := range r1.Final.ID {
				if r1.Final.ID[i] != r2.Final.ID[i] ||
					r1.Final.Pos[i] != r2.Final.Pos[i] ||
					r1.Final.Vel[i] != r2.Final.Vel[i] {
					t.Fatalf("final state not bit-identical at particle %d", i)
				}
			}

			// Identity recorded in every step record.
			if got := r1.Stats[0].Balancer; got != name {
				t.Fatalf("StepStats.Balancer = %q, want %q", got, name)
			}

			// Particle conservation across all migrations.
			if r1.Final.Len() != wantN {
				t.Fatalf("particle count %d, want %d", r1.Final.Len(), wantN)
			}
			if err := r1.Final.Validate(); err != nil {
				t.Fatal(err)
			}

			// The zero-net-momentum contract is asserted in
			// internal/core's TestBalancerZeroNetMomentum, on a
			// blob-driven run with no external forces — the wells here
			// legitimately inject momentum.
		})
	}
}

// TestResumeEquivalenceAcrossBalancers extends the checkpoint acceptance
// test over the balancer axis: for each strategy, a straight 2b-step run
// must be bit-identical to b steps, a kill, a restore, and b more.
func TestResumeEquivalenceAcrossBalancers(t *testing.T) {
	const b = 6
	for name, bal := range conformanceZoo() {
		t.Run(name, func(t *testing.T) {
			mk := func(opts ...Option) (Engine, error) {
				return New(2, 4, 0.3,
					append([]Option{WithBalancer(bal), WithSeed(5), WithWells(1, 1.5)}, opts...)...)
			}
			golden, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := golden.Step(2 * b); err != nil {
				t.Fatal(err)
			}
			gRes, err := golden.Result()
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			first, err := mk(WithCheckpoint(b, dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := first.Step(b); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Result(); err != nil {
				t.Fatal(err)
			}

			resumed, err := Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Step(b); err != nil {
				t.Fatal(err)
			}
			rRes, err := resumed.Result()
			if err != nil {
				t.Fatal(err)
			}

			if got := rRes.Stats[0].Balancer; got != name {
				t.Fatalf("resumed run reports balancer %q, want %q", got, name)
			}
			tail := gRes.Stats[len(gRes.Stats)-len(rRes.Stats):]
			for i := range tail {
				if !sameTrace(rRes.Stats[i], tail[i]) {
					t.Fatalf("resumed trace diverged at step %d:\n got %+v\nwant %+v",
						rRes.Stats[i].Step, rRes.Stats[i], tail[i])
				}
			}
			for i := range gRes.Final.ID {
				if rRes.Final.Pos[i] != gRes.Final.Pos[i] || rRes.Final.Vel[i] != gRes.Final.Vel[i] {
					t.Fatalf("final state not bit-identical at particle %d", i)
				}
			}
		})
	}
}

// TestRestoreRefusesBalancerMismatch: a checkpoint written under one
// balancer must not silently resume under another — the continuation's
// trajectory would no longer be the checkpointed run's.
func TestRestoreRefusesBalancerMismatch(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(2, 4, 0.3,
		WithBalancer(SFC(SFCConfig{})), WithSeed(2), WithCheckpoint(4, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	meta, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(meta.Balancer, "sfc") {
		t.Fatalf("checkpoint meta records balancer %q, want sfc", meta.Balancer)
	}

	if _, err := Restore(dir, WithBalancer(Diffusive(DiffusiveConfig{}))); err == nil {
		t.Fatal("restore under a different balancer succeeded")
	} else if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
	// Default permcell is also a mismatch against sfc.
	if _, err := Restore(dir, WithBalancer(PermanentCell(PermanentCellConfig{}))); err == nil {
		t.Fatal("restore with permcell over an sfc checkpoint succeeded")
	}

	// No balancer option: the identity travels in the file.
	resumed, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Step(2); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats[0].Balancer; got != "sfc" {
		t.Fatalf("resumed balancer %q, want sfc", got)
	}
}
