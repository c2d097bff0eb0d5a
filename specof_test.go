package permcell_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/experiments"
)

// headerSpec writes one checkpoint of eng into dir and returns the Spec
// its header records.
func headerSpec(t *testing.T, eng permcell.Engine, dir string) permcell.Spec {
	t.Helper()
	if err := permcell.CheckpointNow(eng); err != nil {
		t.Fatal(err)
	}
	meta, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
	if err != nil {
		t.Fatal(err)
	}
	return meta.Spec
}

// foreignEngine is an Engine this package did not build.
type foreignEngine struct{}

func (foreignEngine) Step(int) error                    { return nil }
func (foreignEngine) Stats() []permcell.StepStats       { return nil }
func (foreignEngine) Result() (*permcell.Result, error) { return &permcell.Result{}, nil }

// TestSpecOfReportsTheRecordedSpec: SpecOf of a freshly built engine is
// the normalised Spec Build records — the one every checkpoint of the run
// carries — whichever constructor spelled it; an Engine from elsewhere has
// none.
func TestSpecOfReportsTheRecordedSpec(t *testing.T) {
	raw := permcell.Spec{Kind: permcell.KindDLB, M: 2, P: 4, Rho: 0.256, Balancer: "permcell", Wells: 3, WellK: 1.5}
	for _, c := range []struct {
		name string
		mk   func(opts ...permcell.Option) (permcell.Engine, error)
	}{
		{"Build", func(opts ...permcell.Option) (permcell.Engine, error) { return permcell.Build(raw, opts...) }},
		{"New", func(opts ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256, append(opts, permcell.WithSeed(9), permcell.WithDt(0.002),
				permcell.WithBalancer(permcell.SFC(permcell.SFCConfig{Moves: 2})))...)
		}},
		{"NewStatic", func(opts ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.256, append(opts, permcell.WithStatsEvery(2))...)
		}},
		{"NewSerial", func(opts ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewSerial(4, 0.256, append(opts, permcell.WithWells(3, 1.5))...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := c.mk(permcell.WithCheckpoint(0, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Result()
			got, ok := permcell.SpecOf(eng)
			if !ok {
				t.Fatal("SpecOf of a facade engine reports no identity")
			}
			if want := headerSpec(t, eng, dir); got != want {
				t.Fatalf("SpecOf = %+v, the header records %+v", got, want)
			}
			if got != got.Normalized() {
				t.Fatalf("SpecOf = %+v is not normalised", got)
			}
		})
	}
	eng, err := permcell.Build(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Result()
	if got, _ := permcell.SpecOf(eng); got != raw.Normalized() || got.Balancer != "permcell(h=0,pick=0)" {
		t.Fatalf("Build(%+v) reports %+v, want %+v", raw, got, raw.Normalized())
	}
	if _, ok := permcell.SpecOf(foreignEngine{}); ok {
		t.Fatal("SpecOf reports an identity for an engine this package did not build")
	}
}

// TestSpecOfAfterRestoreNamesTheContinuation restores every checkpoint
// under testdata/ckpt: SpecOf reports the file's identity, seed, time step
// and cadence as recorded, with a dlb balancer in canonical form — the
// legacy header's DLB flag included — and that balancer is the one the
// continuation runs.
func TestSpecOfAfterRestoreNamesTheContinuation(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "ckpt", "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoints under testdata/ckpt (%v)", err)
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".ckpt"), func(t *testing.T) {
			meta, _, err := checkpoint.Load(file)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := permcell.Restore(file)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := permcell.SpecOf(eng)
			if !ok {
				t.Fatal("SpecOf of a restored engine reports no identity")
			}
			if err := eng.Step(1); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Result()
			if err != nil {
				t.Fatal(err)
			}
			want := meta.Spec
			want.Balancer = got.Balancer
			if got != want {
				t.Fatalf("SpecOf = %+v, the file records %+v", got, meta.Spec)
			}
			if got.Kind != permcell.KindDLB {
				if got.Balancer != "" {
					t.Fatalf("%s engine reports balancer %q", got.Kind, got.Balancer)
				}
				return
			}
			b, err := permcell.BalancerByName(got.Balancer)
			if err != nil {
				t.Fatal(err)
			}
			if permcell.BalancerSpec(b) != got.Balancer {
				t.Fatalf("balancer %q is not canonical (%q)", got.Balancer, permcell.BalancerSpec(b))
			}
			if run := res.Stats[0].Balancer; run != permcell.BalancerName(b) {
				t.Fatalf("SpecOf names %q, the continuation runs %q", got.Balancer, run)
			}
			if meta.Balancer == "" && got.Balancer != "permcell(h=0.1,pick=0)" {
				t.Fatalf("legacy header (DLB %v, h %g) reports %q", meta.DLB, meta.Hysteresis, got.Balancer)
			}
		})
	}
}

// TestInterruptWritesFinalCheckpoint: a run cancelled at step k under
// WithCheckpoint leaves its latest checkpoint at step k, not at the last
// cadence boundary, and Restore plus RunEngine to the horizon reproduce the
// straight run's trace — on a dlb run, a serial one and a supervised one.
func TestInterruptWritesFinalCheckpoint(t *testing.T) {
	const n, k = 12, 5
	for _, c := range []struct {
		name string
		mk   func(opts ...permcell.Option) (permcell.Engine, error)
	}{
		{"dlb", func(opts ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256, append(opts, permcell.WithWells(3, 1.5),
				permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})))...)
		}},
		{"serial", func(opts ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewSerial(4, 0.256, append(opts, permcell.WithSeed(5))...)
		}},
		{"supervised", func(opts ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256, append(opts, permcell.WithWells(3, 1.5),
				permcell.WithBalancer(permcell.SFC(permcell.SFCConfig{})),
				permcell.WithSupervisor(permcell.SupervisorPolicy{MaxRetries: 1}))...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := c.mk(permcell.WithCheckpoint(0, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			straight, err := permcell.RunEngine(context.Background(), eng, n)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng, err = c.mk(permcell.WithCheckpoint(4, dir), permcell.WithOnStep(func(st permcell.StepStats) {
				if st.Step == k {
					cancel()
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			head, err := permcell.RunEngine(ctx, eng, n)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(head.Stats) != k {
				t.Fatalf("the cancelled run recorded %d steps, want %d", len(head.Stats), k)
			}
			meta, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
			if err != nil || meta.Step != k {
				t.Fatalf("latest checkpoint %+v, %v; want step %d", meta, err, k)
			}

			eng, err = permcell.Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := permcell.RunEngine(context.Background(), eng, n-k)
			if err != nil {
				t.Fatal(err)
			}
			spliced := append(head.Stats, tail.Stats...)
			if got, want := experiments.TraceHash(spliced), experiments.TraceHash(straight.Stats); got != want {
				t.Fatalf("interrupted and resumed trace %016x, straight run %016x", got, want)
			}
		})
	}
}

// TestInterruptWithoutCheckpointWritesNothing: without WithCheckpoint a
// cancelled run ends with ctx.Err() alone and leaves no file anywhere; a
// final checkpoint that fails to write is joined to ctx.Err().
func TestInterruptWithoutCheckpointWritesNothing(t *testing.T) {
	cancelAt := func(ctx context.Context, cancel func(), opts ...permcell.Option) (*permcell.Result, error) {
		eng, err := permcell.New(2, 4, 0.256, append(opts, permcell.WithOnStep(func(st permcell.StepStats) {
			if st.Step == 2 {
				cancel()
			}
		}))...)
		if err != nil {
			t.Fatal(err)
		}
		return permcell.RunEngine(ctx, eng, 10)
	}
	t.Chdir(t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	if res, err := cancelAt(ctx, cancel); err != context.Canceled || len(res.Stats) != 2 {
		t.Fatalf("err = %v after %d steps, want context.Canceled after 2", err, len(res.Stats))
	}
	if ents, err := os.ReadDir("."); err != nil || len(ents) != 0 {
		t.Fatalf("a run without WithCheckpoint left %v (%v)", ents, err)
	}

	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	res, err := cancelAt(ctx, cancel, permcell.WithCheckpoint(0, filepath.Join(blocked, "ckpt")))
	if !errors.Is(err, context.Canceled) || err == context.Canceled || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want context.Canceled joined with the write error", err)
	}
	if res == nil || len(res.Stats) != 2 {
		t.Fatalf("no partial result beside the failed final checkpoint: %+v", res)
	}
}
