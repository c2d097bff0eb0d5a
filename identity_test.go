package permcell

import (
	"path/filepath"
	"reflect"
	"testing"

	"permcell/internal/checkpoint"
	"permcell/internal/core"
	"permcell/internal/mdserial"
	"permcell/internal/runspec"
)

// identityOf returns the run identity a facade engine was started from.
func identityOf(t *testing.T, eng Engine) checkpoint.Meta {
	t.Helper()
	switch e := eng.(type) {
	case *engine:
		return e.ckpt.meta
	}
	t.Fatalf("no identity on %T", eng)
	return checkpoint.Meta{}
}

// builderTrace steps the engine the one builder makes of (meta, st) k times
// and returns the deterministic part of its trace. It bypasses the facade
// entirely: whatever the facade adds on top of runspec must not be physics.
func builderTrace(t *testing.T, meta *checkpoint.Meta, st *checkpoint.EngineState, k int) []StepStats {
	t.Helper()
	if meta.Kind == checkpoint.KindSerial {
		cfg, set, err := runspec.Serial(meta, st)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := mdserial.New(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var out []StepStats
		for i := 0; i < k; i++ {
			eng.Step()
			w := float64(eng.PairCount())
			out = append(out, StepStats{
				Step: eng.StepCount(), WorkMax: w, WorkAve: w, WorkMin: w,
				TotalEnergy: eng.TotalEnergy(), Temperature: eng.Set().Temperature(),
			})
		}
		return out
	}
	cfg, sys, err := runspec.Parallel(meta, st)
	if err != nil {
		t.Fatal(err)
	}
	var out []StepStats
	cfg.OnStep = func(st StepStats) { out = append(out, st) }
	eng, err := core.NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Finish()
	if err := eng.Step(k); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunIdentityIsOneThing pins the run identity to a single value with a
// single reader, per engine kind: (a) the Meta a constructor writes down is
// the Meta its checkpoints carry, field for field; (b) the builder alone,
// given that Meta, reproduces the facade engine's trace bit for bit — fresh,
// and resumed from the checkpoint's frames.
func TestRunIdentityIsOneThing(t *testing.T) {
	const k = 8
	common := []Option{WithSeed(5), WithWells(3, 1.5), WithStatsEvery(1)}
	cases := []struct {
		name string
		mk   func(opts ...Option) (Engine, error)
	}{
		{"dlb", func(opts ...Option) (Engine, error) {
			return New(2, 4, 0.256, append(opts, WithBalancer(PermanentCell(PermanentCellConfig{Hysteresis: 0.1})))...)
		}},
		{"dlb+sfc", func(opts ...Option) (Engine, error) {
			return New(2, 4, 0.256, append(opts, WithBalancer(SFC(SFCConfig{Moves: 2})))...)
		}},
		{"static-plane", func(opts ...Option) (Engine, error) { return NewStatic(ShapePlane, 4, 4, 0.256, opts...) }},
		{"static-pillar", func(opts ...Option) (Engine, error) { return NewStatic(ShapeSquarePillar, 4, 4, 0.256, opts...) }},
		{"static-cube", func(opts ...Option) (Engine, error) { return NewStatic(ShapeCube, 4, 8, 0.256, opts...) }},
		{"serial", func(opts ...Option) (Engine, error) { return NewSerial(4, 0.256, opts...) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := c.mk(append([]Option{WithCheckpoint(k, dir)}, common...)...)
			if err != nil {
				t.Fatal(err)
			}
			want := identityOf(t, eng)
			if err := eng.Step(2 * k); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Result()
			if err != nil {
				t.Fatal(err)
			}

			// (a) The first checkpoint's header is the constructor's Meta
			// plus the per-snapshot fields.
			loaded, frames, err := checkpoint.Load(filepath.Join(dir, checkpoint.PreviousName))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Step != k || loaded.Version != checkpoint.FormatVersion {
				t.Fatalf("first checkpoint at step %d version %d", loaded.Step, loaded.Version)
			}
			hdr := *loaded
			hdr.Version, hdr.Step, hdr.CommMsgs, hdr.CommBytes = 0, 0, 0, 0
			if !reflect.DeepEqual(hdr, want) {
				t.Fatalf("checkpoint header is not the constructor's identity:\n file %+v\n ctor %+v", hdr, want)
			}

			// (b) builder(meta) == facade, fresh and restored.
			compare := func(label string, got, ref []StepStats) {
				t.Helper()
				if len(got) != len(ref) {
					t.Fatalf("%s: %d records vs %d", label, len(got), len(ref))
				}
				for i := range ref {
					g, r := got[i], ref[i]
					if c.name == "serial" { // the builder-side trace has no census
						g.Conc = r.Conc
					}
					if !sameTrace(g, r) {
						t.Fatalf("%s diverged at step %d:\n got %+v\nwant %+v", label, r.Step, g, r)
					}
				}
			}
			compare("fresh builder run", builderTrace(t, &want, nil, 2*k), res.Stats)
			compare("restored builder run", builderTrace(t, loaded, loaded.State(frames), k), res.Stats[k:])
		})
	}
}
