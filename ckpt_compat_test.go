package permcell_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"permcell"
	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/experiments"
)

// compatKinds are the checkpoints under testdata/ckpt: one per engine kind
// (plus a non-default balancer), each written after 6 steps by the commit
// that preceded the run-identity builder. "legacy" is the dlb file with its
// header rewritten the way pre-balancer checkpoints read: Balancer "" and
// the DLB flag + Hysteresis alone naming the permanent-cell scheme.
var compatKinds = []struct {
	name string
	mk   func(opts ...permcell.Option) (permcell.Engine, error)
}{
	{"dlb", func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.New(2, 4, 0.256, append(opts, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})))...)
	}},
	{"sfc", func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.New(2, 4, 0.256, append(opts, permcell.WithBalancer(permcell.SFC(permcell.SFCConfig{Moves: 2})))...)
	}},
	{"static", func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.256, opts...)
	}},
	{"serial", func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.NewSerial(4, 0.256, opts...)
	}},
}

// TestParentCheckpointsRestore holds the checkpoint header compatible: the
// files under testdata/ckpt were written before Meta became the one run
// identity, and each must still restore and continue to the trace and final
// state recorded with it. `go test -run TestParentCheckpointsRestore
// -update .` rewrites files and hashes from the current code.
func TestParentCheckpointsRestore(t *testing.T) {
	dir := filepath.Join("testdata", "ckpt")
	if *updateGolden {
		writeCompatCheckpoints(t, dir)
	}
	var b strings.Builder
	for _, name := range []string{"dlb", "sfc", "static", "serial", "legacy"} {
		eng, err := permcell.Restore(filepath.Join(dir, name+".ckpt"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := eng.Step(10); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Stats) != 10 || res.Stats[0].Step != 7 {
			t.Fatalf("%s: continuation has %d records from step %d, want 10 from 7",
				name, len(res.Stats), res.Stats[0].Step)
		}
		h := sha256.New()
		for _, v := range []any{res.Final.ID, res.Final.Pos, res.Final.Vel} {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&b, "%s balancer=%s trace=%016x final=%x\n",
			name, res.Stats[0].Balancer, experiments.TraceHash(res.Stats), h.Sum(nil))
	}
	golden := filepath.Join(dir, "continuation.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("restored continuations drifted from the recorded ones:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func writeCompatCheckpoints(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, k := range compatKinds {
		tmp := t.TempDir()
		eng, err := k.mk(permcell.WithSeed(5), permcell.WithWells(3, 1.5), permcell.WithCheckpoint(0, tmp))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(6); err != nil {
			t.Fatal(err)
		}
		if err := permcell.CheckpointNow(eng); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Result(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(tmp, checkpoint.LatestName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, k.name+".ckpt"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	meta, frames, err := checkpoint.Load(filepath.Join(dir, "dlb.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	meta.Balancer = ""
	tmp := t.TempDir()
	path, err := new(checkpoint.Saver).Save(tmp, meta, frames)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "legacy.ckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreKillResumeCheckpoint closes the loop between the experiments'
// kill-and-recover scenario and the facade: the file KillResume leaves
// behind names the balancer the run used, so a bare Restore continues under
// it, a matching WithBalancer is accepted and a different one refused.
func TestRestoreKillResumeCheckpoint(t *testing.T) {
	spec := experiments.ChaosSpec{
		RunSpec: experiments.RunSpec{Spec: permcell.Spec{
			Kind: permcell.KindDLB, M: 2, P: 4, Rho: 0.256, Balancer: balance.Encode(balance.SFC{Moves: 2}), Seed: 1,
			WellK: 1.5,
		}, Steps: 12},
		Watchdog: 30 * time.Second,
	}
	r, err := spec.KillResume(6, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Match() {
		t.Fatalf("kill-resume trace diverged: golden %016x vs resumed %016x", r.GoldenHash, r.ResumedHash)
	}
	for _, opts := range [][]permcell.Option{
		nil,
		{permcell.WithBalancer(permcell.SFC(permcell.SFCConfig{Moves: 2}))},
	} {
		eng, err := permcell.Restore(r.CkptPath, opts...)
		if err != nil {
			t.Fatalf("restore with %d options: %v", len(opts), err)
		}
		if err := eng.Step(2); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats[0]; got.Step != 7 || got.Balancer != "sfc" {
			t.Fatalf("continuation starts at step %d under balancer %q, want 7 under sfc", got.Step, got.Balancer)
		}
	}
	if _, err := permcell.Restore(r.CkptPath, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{}))); err == nil {
		t.Fatal("restore of an sfc run under permcell succeeded")
	}
}
