package permcell_test

import (
	"context"
	"math"
	"testing"

	"permcell"
)

// TestEngineStepwise exercises the parallel Engine through the facade:
// batch stepping, incremental stats, and a final Result identical to the
// one-shot Run of the same parameters.
func TestEngineStepwise(t *testing.T) {
	opts := []permcell.Option{permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(3), permcell.WithWells(2, 1.5)}
	ref, err := permcell.Run(context.Background(), 2, 4, 0.256, 10, opts...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := permcell.New(2, 4, 0.256, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(4); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.Stats()); n != 4 {
		t.Fatalf("after 4 steps: %d stats", n)
	}
	if err := eng.Step(6); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != len(ref.Stats) {
		t.Fatalf("stats length %d vs %d", len(res.Stats), len(ref.Stats))
	}
	for i := range ref.Final.Pos {
		if res.Final.Pos[i] != ref.Final.Pos[i] {
			t.Fatalf("particle %d differs between stepwise and Run", ref.Final.ID[i])
		}
	}
}

// TestOnStepStreaming runs with the streaming hook plus DiscardStats: every
// step must reach the callback while the result carries no records.
func TestOnStepStreaming(t *testing.T) {
	var seen []int
	res, err := permcell.Run(context.Background(), 2, 4, 0.256, 5,
		permcell.WithOnStep(func(st permcell.StepStats) { seen = append(seen, st.Step) }),
		permcell.WithDiscardStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 || seen[0] != 1 || seen[4] != 5 {
		t.Fatalf("streamed steps = %v", seen)
	}
	if len(res.Stats) != 0 {
		t.Fatalf("DiscardStats kept %d records", len(res.Stats))
	}
	if res.Final == nil || res.Final.Len() == 0 {
		t.Fatal("no final state")
	}
}

// TestRunCancellation cancels mid-run and expects a partial result paired
// with ctx.Err().
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	res, err := permcell.Run(ctx, 2, 4, 0.256, 1000,
		permcell.WithOnStep(func(permcell.StepStats) {
			if steps++; steps == 3 {
				cancel()
			}
		}))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Final == nil {
		t.Fatal("no partial result on cancellation")
	}
	if n := len(res.Stats); n >= 1000 || n < 3 {
		t.Fatalf("partial run recorded %d steps", n)
	}
}

// TestSerialEngineFacade drives the serial engine through the shared
// interface and sanity-checks its synthesized census.
func TestSerialEngineFacade(t *testing.T) {
	eng, err := permcell.NewSerial(4, 0.3, permcell.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(5); err != nil {
		t.Fatal(err)
	}
	stats := eng.Stats()
	if len(stats) != 5 {
		t.Fatalf("%d stats", len(stats))
	}
	last := stats[len(stats)-1]
	if last.WorkMax != last.WorkMin || last.WorkMax <= 0 {
		t.Fatalf("serial work census %v/%v", last.WorkMax, last.WorkMin)
	}
	if last.Conc.C != 64 {
		t.Fatalf("census C = %d, want 64", last.Conc.C)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Len() == 0 {
		t.Fatal("no final state")
	}
	if err := eng.Step(1); err == nil {
		t.Error("Step after Result accepted")
	}
	// Result is idempotent.
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestStaticEngineFacade drives each static shape through the shared
// interface.
func TestStaticEngineFacade(t *testing.T) {
	cases := []struct {
		shape permcell.Shape
		p     int
	}{
		{permcell.ShapePlane, 4},
		{permcell.ShapeSquarePillar, 4},
		{permcell.ShapeCube, 8},
	}
	for _, c := range cases {
		shape := c.shape
		eng, err := permcell.NewStatic(shape, 4, c.p, 0.256, permcell.WithSeed(5))
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		res, err := permcell.RunEngine(context.Background(), eng, 5)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if len(res.Stats) != 5 {
			t.Fatalf("%v: %d stats", shape, len(res.Stats))
		}
		if res.Stats[4].WorkMax < res.Stats[4].WorkMin || res.Stats[4].WorkMax <= 0 {
			t.Fatalf("%v: work census %v/%v", shape, res.Stats[4].WorkMax, res.Stats[4].WorkMin)
		}
		if res.Final == nil || res.Final.Len() == 0 {
			t.Fatalf("%v: no final state", shape)
		}
	}
}

// TestStatsReturnsCopy pins the Stats contract on every facade engine:
// the returned slice is the caller's to keep, so corrupting it must not
// leak into later Stats calls or into the final Result — including the
// supervised wrapper, whose internal slice is concurrently appended to by
// its admit hook.
func TestStatsReturnsCopy(t *testing.T) {
	dir := t.TempDir()
	engines := map[string]func() (permcell.Engine, error){
		"parallel": func() (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256)
		},
		"static": func() (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapePlane, 4, 2, 0.256)
		},
		"serial": func() (permcell.Engine, error) {
			return permcell.NewSerial(4, 0.256)
		},
		"supervised": func() (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256,
				permcell.WithCheckpoint(0, dir),
				permcell.WithSupervisor(permcell.SupervisorPolicy{MaxRetries: 1}))
		},
		"tcp": func() (permcell.Engine, error) {
			return permcell.New(2, 4, 0.256,
				permcell.WithTransport(permcell.Transport{Kind: permcell.TransportTCP, Procs: 2}))
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			eng, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(3); err != nil {
				t.Fatal(err)
			}
			got := eng.Stats()
			if len(got) != 3 {
				t.Fatalf("Stats has %d records, want 3", len(got))
			}
			got[0].Step = -999 // caller scribbles on its copy
			if again := eng.Stats(); again[0].Step != 1 {
				t.Fatalf("second Stats sees the caller's mutation: step %d", again[0].Step)
			}
			if err := eng.Step(2); err != nil {
				t.Fatal(err)
			}
			res, err := eng.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats[0].Step != 1 || len(res.Stats) != 5 {
				t.Fatalf("Result stats corrupted: first step %d, len %d", res.Stats[0].Step, len(res.Stats))
			}
		})
	}
}

// TestBadTimeStepRejected: a NaN, infinite or negative time step fails
// construction on every engine kind instead of integrating to NaN.
func TestBadTimeStepRejected(t *testing.T) {
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.005} {
		opt := permcell.WithDt(dt)
		for name, build := range map[string]func() (permcell.Engine, error){
			"parallel": func() (permcell.Engine, error) { return permcell.New(2, 4, 0.2, opt) },
			"static":   func() (permcell.Engine, error) { return permcell.NewStatic(permcell.ShapePlane, 4, 4, 0.2, opt) },
			"serial":   func() (permcell.Engine, error) { return permcell.NewSerial(4, 0.2, opt) },
		} {
			if eng, err := build(); err == nil {
				eng.Result()
				t.Errorf("%s engine accepted dt=%g", name, dt)
			}
		}
	}
}
