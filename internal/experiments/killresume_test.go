package experiments

import (
	"testing"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
)

// TestKillResumeIdenticalTrace is the chaos subsystem's kill-and-recover
// acceptance property: hard-stopping a faulty DLB run mid-flight and
// recovering strictly from the checkpoint file reproduces the uninterrupted
// run's deterministic trace exactly — under whichever balancer the run
// used, which the file's header must therefore name.
func TestKillResumeIdenticalTrace(t *testing.T) {
	for _, b := range []balance.Balancer{balance.PermanentCell{}, balance.SFC{Moves: 2}} {
		t.Run(b.Name(), func(t *testing.T) {
			spec := tinyChaosSpec()
			spec.Balancer = balance.Encode(b)
			r, err := spec.KillResume(11, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.Match() {
				t.Fatalf("kill-resume trace diverged: golden %016x vs resumed %016x",
					r.GoldenHash, r.ResumedHash)
			}
			if r.ResumedFaults.Delays+r.ResumedFaults.Reorders == 0 {
				t.Error("kill-resume sessions saw no injected faults")
			}
			if movedCols(r.Resumed) == 0 {
				t.Error("kill-resume sessions moved no columns: no transfer ran under faults")
			}
			meta, _, err := checkpoint.Load(r.CkptPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := balance.Decode(meta.Balancer)
			if err != nil {
				t.Fatal(err)
			}
			if balance.Encode(got) != balance.Encode(b) {
				t.Fatalf("checkpoint header names balancer %q, the run used %q",
					meta.Balancer, balance.Encode(b))
			}
		})
	}
}

// TestKillResumeRejectsBadKillStep covers the argument guard.
func TestKillResumeRejectsBadKillStep(t *testing.T) {
	spec := tinyChaosSpec()
	for _, k := range []int{0, -1, spec.Steps} {
		if _, err := spec.KillResume(k, t.TempDir()); err == nil {
			t.Errorf("kill step %d accepted", k)
		}
	}
}
