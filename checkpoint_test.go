package permcell

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permcell/internal/checkpoint"
)

// sameTrace compares the deterministic fields of two step records (wall
// times and phase breakdowns differ between any two runs).
func sameTrace(a, b StepStats) bool {
	return a.Step == b.Step &&
		a.WorkMax == b.WorkMax && a.WorkAve == b.WorkAve && a.WorkMin == b.WorkMin &&
		a.Moved == b.Moved && a.MovedBytes == b.MovedBytes && a.Balancer == b.Balancer &&
		a.TotalEnergy == b.TotalEnergy && a.Temperature == b.Temperature &&
		a.Conc == b.Conc
}

// TestResumeEquivalence is the subsystem's acceptance test: for every engine
// kind, running 2b steps straight must be bit-identical to running b steps,
// checkpointing, restoring from the file, and running the remaining b —
// per-step trace and final particle state both.
func TestResumeEquivalence(t *testing.T) {
	const b = 6
	kinds := []struct {
		name string
		mk   func(opts ...Option) (Engine, error)
	}{
		{"serial", func(opts ...Option) (Engine, error) { return NewSerial(3, 0.3, opts...) }},
		{"static", func(opts ...Option) (Engine, error) {
			return NewStatic(ShapeSquarePillar, 4, 4, 0.3, opts...)
		}},
		{"dlb", func(opts ...Option) (Engine, error) {
			return New(2, 4, 0.3, append([]Option{WithBalancer(PermanentCell(PermanentCellConfig{}))}, opts...)...)
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			base := []Option{WithSeed(5)}

			golden, err := k.mk(base...)
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

			// Interrupted run: checkpoint at step b, then abandon.
			dir := t.TempDir()
			first, err := k.mk(append([]Option{WithCheckpoint(b, dir)}, base...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := first.Step(b); err != nil {
				t.Fatal(err)
			}
			if _, err := first.Result(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, checkpoint.LatestName)); err != nil {
				t.Fatalf("no checkpoint written: %v", err)
			}

			// Restore from the directory (latest + previous fallback path)
			// and finish the run.
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

			tail := gRes.Stats[len(gRes.Stats)-len(rRes.Stats):]
			if len(tail) == 0 {
				t.Fatal("no resumed stats to compare")
			}
			for i := range tail {
				if !sameTrace(rRes.Stats[i], tail[i]) {
					t.Fatalf("resumed trace diverged at record %d (step %d):\n got %+v\nwant %+v",
						i, rRes.Stats[i].Step, rRes.Stats[i], tail[i])
				}
			}
			if rRes.Final.Len() != gRes.Final.Len() {
				t.Fatalf("final count %d vs %d", rRes.Final.Len(), gRes.Final.Len())
			}
			for i := range gRes.Final.ID {
				if rRes.Final.ID[i] != gRes.Final.ID[i] ||
					rRes.Final.Pos[i] != gRes.Final.Pos[i] ||
					rRes.Final.Vel[i] != gRes.Final.Vel[i] {
					t.Fatalf("final state not bit-identical at particle %d", i)
				}
			}
		})
	}
}

// TestRestoreRefusesShardedHeader: Meta.Shards is a legacy field. A run
// that still passes WithShards(1) writes it as 0, as every fixture under
// testdata/ckpt carries it; a header that records two intra-rank shards
// names a summation order no engine has any more, so Restore refuses it.
func TestRestoreRefusesShardedHeader(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewSerial(3, 0.3, WithSeed(5), WithShards(1), WithCheckpoint(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	meta, frames, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shards != 0 {
		t.Fatalf("WithShards(1) wrote Shards=%d, want 0", meta.Shards)
	}
	if _, err := Restore(dir); err != nil {
		t.Fatalf("the unsharded header does not restore: %v", err)
	}

	meta.Shards = 2
	sharded := t.TempDir()
	if _, err := checkpoint.Save(sharded, meta, frames); err != nil {
		t.Fatal(err)
	}
	if eng, err := Restore(sharded); err == nil {
		eng.Result()
		t.Fatal("Restore accepted a header with two shards")
	} else if !strings.Contains(err.Error(), "retired") {
		t.Fatalf("Restore: %v, want an error naming the retirement", err)
	}
}

// TestCheckpointCadenceAndRotation drives a run across two checkpoint
// boundaries and verifies the latest/previous rotation plus the absolute
// step recorded in each file.
func TestCheckpointCadenceAndRotation(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(2, 4, 0.3, WithBalancer(PermanentCell(PermanentCellConfig{})), WithSeed(2), WithCheckpoint(5, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(12); err != nil { // boundaries at 5 and 10
		t.Fatal(err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	latest, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
	if err != nil {
		t.Fatal(err)
	}
	prev, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.PreviousName))
	if err != nil {
		t.Fatal(err)
	}
	if latest.Step != 10 || prev.Step != 5 {
		t.Fatalf("checkpoint steps latest=%d previous=%d, want 10 and 5", latest.Step, prev.Step)
	}
	if latest.Kind != checkpoint.KindDLB || latest.Balancer != "permcell(h=0,pick=0)" {
		t.Fatalf("meta does not record the run identity: %+v", latest)
	}
}

// TestCheckpointNow exercises the explicit-checkpoint path and its guards.
func TestCheckpointNow(t *testing.T) {
	// No directory configured: a clean error, not a crash.
	bare, err := NewSerial(3, 0.3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckpointNow(bare); err == nil {
		t.Error("CheckpointNow without WithCheckpoint succeeded")
	}
	if _, err := bare.Result(); err != nil {
		t.Fatal(err)
	}

	// every <= 0 disables the cadence but keeps CheckpointNow working.
	dir := t.TempDir()
	eng, err := NewStatic(ShapeSquarePillar, 4, 4, 0.3, WithSeed(1), WithCheckpoint(0, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(3); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpoint.LatestName)); err == nil {
		t.Error("automatic checkpoint written despite every=0")
	}
	if err := CheckpointNow(eng); err != nil {
		t.Fatal(err)
	}
	meta, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 3 || meta.Kind != checkpoint.KindStatic {
		t.Fatalf("unexpected meta step=%d kind=%q", meta.Step, meta.Kind)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	if err := CheckpointNow(eng); err == nil {
		t.Error("Checkpoint after Result succeeded")
	}
}

// TestRestoreRejectsBadFiles covers the failure paths of Restore.
func TestRestoreRejectsBadFiles(t *testing.T) {
	if _, err := Restore(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Error("missing file accepted")
	}

	dir := t.TempDir()
	eng, err := NewSerial(3, 0.3, WithSeed(1), WithCheckpoint(2, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpoint.LatestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(path); err == nil {
		t.Error("bit-flipped checkpoint accepted")
	}
}
