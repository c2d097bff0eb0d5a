package serve

import (
	"bytes"
	"net/http"
	"path/filepath"
	"testing"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/metrics"
)

// TestParticlesMatchesEngine pins the admission proxy to the builder: for
// every engine kind, the N a spec is admitted under is the N its engine
// actually holds — including a density where rounding decides the count.
func TestParticlesMatchesEngine(t *testing.T) {
	for _, spec := range []RunSpec{
		{Kind: KindParallel, M: 2, P: 4, Rho: 0.256, Steps: 1},
		{Kind: KindParallel, M: 3, P: 4, Rho: 0.3017, Steps: 1},
		{Kind: KindStatic, Shape: "plane", NC: 4, P: 4, Rho: 0.256, Steps: 1},
		{Kind: KindStatic, Shape: "cube", NC: 4, P: 8, Rho: 0.199, Steps: 1},
		{Kind: KindSerial, NC: 3, Rho: 0.3, Steps: 1},
		{Kind: KindSerial, NC: 5, Rho: 0.2503, Steps: 1},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		eng, err := permcell.Build(spec.spec())
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if got, want := spec.spec().Size().N, len(res.Final.ID); got != want || want == 0 {
			t.Errorf("%s m=%d nc=%d rho=%g: Size().N = %d, engine holds %d",
				spec.Kind, spec.M, spec.NC, spec.Rho, got, want)
		}
	}
	bad := RunSpec{Kind: KindParallel, M: 2, P: 5, Rho: 0.256, Steps: 1}
	if bad.Validate() == nil {
		t.Error("non-square P validated")
	}
}

// TestAdmissionRefusesUnbuildableSpecs: a spec the builder would refuse is
// a 400 counted as invalid, before it takes a queue slot or a worker —
// coordinates a static shape cannot divide, a density that rounds to no
// particle, names outside the service's spelling.
func TestAdmissionRefusesUnbuildableSpecs(t *testing.T) {
	s, hs := newTestService(t, Config{Workers: 1})
	bad := []RunSpec{
		{Kind: KindStatic, Shape: "plane", NC: 5, P: 4, Rho: 0.3, Steps: 1},
		{Kind: KindStatic, Shape: "pillar", NC: 5, P: 4, Rho: 0.3, Steps: 1},
		{Kind: KindStatic, Shape: "cube", NC: 4, P: 5, Rho: 0.3, Steps: 1},
		{Kind: KindSerial, NC: 2, Rho: 0.001, Steps: 1},
		{Kind: KindStatic, Shape: "slab", NC: 4, P: 4, Rho: 0.3, Steps: 1},
		{Kind: "dlb", M: 2, P: 4, Rho: 0.3, Steps: 1},
		{Kind: KindStatic, NC: 4, P: 4, Rho: 0.3, Steps: 1, Balancer: "none"},
		{Kind: KindParallel, M: 2, P: 4, Rho: 0.3, Steps: 1, Balancer: "permcell(h=-1)"},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("%+v validated", spec)
		}
		if _, code, body := tryPostRun(t, hs, spec); code != http.StatusBadRequest {
			t.Errorf("%+v: status %d (%s), want 400", spec, code, body)
		}
	}
	s.mu.Lock()
	invalid := s.rejected["invalid"]
	s.mu.Unlock()
	if invalid != int64(len(bad)) || len(s.List()) != 0 {
		t.Errorf("rejected{invalid} = %d with %d runs admitted, want %d and none", invalid, len(s.List()), len(bad))
	}
}

// TestSpecRoundTrip holds the run identity to one value across its
// spellings, per engine kind: a Spec survives the checkpoint header
// (Encode, Decode) unchanged; the Spec a served RunSpec names is the one the
// matching facade constructor records in its checkpoints; and a served
// spec left at its zero defaults (seed, dt, cadence, balancer) records what
// the constructor records without the options that set them.
func TestSpecRoundTrip(t *testing.T) {
	common := []permcell.Option{permcell.WithSeed(5), permcell.WithWells(3, 1.5)}
	cases := []struct {
		name string
		rs   RunSpec // the canonical spelling: every default written out
		mk   func(opts ...permcell.Option) (permcell.Engine, error)
	}{
		{"dlb/permcell", RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.256, Balancer: "permcell(h=0.1,pick=0)"},
			func(opts ...permcell.Option) (permcell.Engine, error) {
				return permcell.New(2, 4, 0.256, append(opts, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})))...)
			}},
		{"dlb/sfc", RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.256, Balancer: "sfc(h=0,moves=2)"},
			func(opts ...permcell.Option) (permcell.Engine, error) {
				return permcell.New(2, 4, 0.256, append(opts, permcell.WithBalancer(permcell.SFC(permcell.SFCConfig{Moves: 2})))...)
			}},
		{"dlb/none", RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.256, Balancer: "none"},
			func(opts ...permcell.Option) (permcell.Engine, error) { return permcell.New(2, 4, 0.256, opts...) }},
		{"static/plane", RunSpec{Kind: KindStatic, Shape: "plane", NC: 4, P: 4, Rho: 0.256},
			func(opts ...permcell.Option) (permcell.Engine, error) {
				return permcell.NewStatic(permcell.ShapePlane, 4, 4, 0.256, opts...)
			}},
		{"static/pillar", RunSpec{Kind: KindStatic, Shape: "pillar", NC: 4, P: 4, Rho: 0.256},
			func(opts ...permcell.Option) (permcell.Engine, error) {
				return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.256, opts...)
			}},
		{"static/cube", RunSpec{Kind: KindStatic, Shape: "cube", NC: 4, P: 8, Rho: 0.256},
			func(opts ...permcell.Option) (permcell.Engine, error) {
				return permcell.NewStatic(permcell.ShapeCube, 4, 8, 0.256, opts...)
			}},
		{"serial", RunSpec{Kind: KindSerial, NC: 4, Rho: 0.256},
			func(opts ...permcell.Option) (permcell.Engine, error) { return permcell.NewSerial(4, 0.256, opts...) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.rs.Seed, c.rs.Dt, c.rs.Wells, c.rs.WellK, c.rs.StatsEvery, c.rs.Steps = 5, 0.005, 3, 1.5, 1, 1
			want := c.rs.spec()
			if err := c.rs.Validate(); err != nil {
				t.Fatal(err)
			}

			// Spec -> Encode -> Decode -> Spec.
			var buf bytes.Buffer
			if err := checkpoint.Encode(&buf, &checkpoint.Meta{Spec: want, Step: 3}, nil); err != nil {
				t.Fatal(err)
			}
			meta, _, err := checkpoint.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Spec != want {
				t.Fatalf("header round trip:\n got %+v\nwant %+v", meta.Spec, want)
			}

			// The constructor records the served spec.
			dir := t.TempDir()
			if got := specOf(t, dir, func() (permcell.Engine, error) {
				return c.mk(append(common, permcell.WithCheckpoint(0, dir))...)
			}); got != want {
				t.Fatalf("constructor recorded\n %+v\nserve names\n %+v", got, want)
			}

			// Zero defaults: served and constructed alike resolve them.
			zero := c.rs
			zero.Seed, zero.Dt, zero.StatsEvery = 0, 0, 0
			if zero.Balancer == "none" {
				zero.Balancer = ""
			}
			dir = t.TempDir()
			served := specOf(t, dir, func() (permcell.Engine, error) {
				return permcell.Build(zero.spec(), zero.options(dir, nil, func(permcell.StepStats) {})...)
			})
			dir = t.TempDir()
			constructed := specOf(t, dir, func() (permcell.Engine, error) {
				return c.mk(permcell.WithWells(3, 1.5), permcell.WithCheckpoint(0, dir))
			})
			if served != constructed || served.Seed != 1 || served.Dt != checkpoint.DefaultDt {
				t.Fatalf("defaults: served records\n %+v\nconstructor\n %+v", served, constructed)
			}
		})
	}
}

// specOf builds an engine checkpointing into dir, writes one checkpoint and
// returns the Spec its header records.
func specOf(t *testing.T, dir string, mk func() (permcell.Engine, error)) permcell.Spec {
	t.Helper()
	eng, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Result()
	if err := permcell.CheckpointNow(eng); err != nil {
		t.Fatal(err)
	}
	meta, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName))
	if err != nil {
		t.Fatal(err)
	}
	return meta.Spec
}

// TestSeedZeroIsSeedOne: seed 0 selects the default seed, 1, at every
// entry point — a served run, the facade's WithSeed(0), its default — so
// all three stream one trace.
func TestSeedZeroIsSeedOne(t *testing.T) {
	spec := RunSpec{Kind: KindParallel, M: 2, P: 4, Rho: 0.256, Steps: 3}
	facade := func(opts ...permcell.Option) []metrics.StepRecord {
		var recs []metrics.StepRecord
		opts = append(opts, permcell.WithOnStep(func(st permcell.StepStats) { recs = append(recs, stepRecord(&spec, st)) }))
		eng, err := permcell.New(spec.M, spec.P, spec.Rho, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(spec.Steps); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Result(); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	s, hs := newTestService(t, Config{Workers: 1})
	id := postRun(t, hs, spec)
	if st := waitTerminal(t, s, id); st != StateCompleted {
		t.Fatalf("served run ended %s", st)
	}
	served := streamRecords(t, hs, id)
	assertSameTrace(t, served, facade(), "served seed 0 vs facade default")
	assertSameTrace(t, facade(permcell.WithSeed(0)), facade(), "WithSeed(0) vs default")
	assertSameTrace(t, facade(permcell.WithSeed(1)), facade(), "WithSeed(1) vs default")
}
