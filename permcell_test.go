package permcell_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"permcell"
)

func TestNewValidatesCoordinates(t *testing.T) {
	eng, err := permcell.New(2, 4, 0.256)
	if err != nil {
		t.Fatalf("valid coordinates rejected: %v", err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
	if _, err := permcell.New(2, 5, 0.256); err == nil {
		t.Error("non-square P accepted")
	}
	if _, err := permcell.New(1, 4, 0.256); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := permcell.New(2, 4, 0.256, permcell.WithWells(-3, 1.5)); err == nil {
		t.Error("negative well count accepted")
	}
	if _, err := permcell.New(2, 4, 0.256, permcell.WithWells(2, -1)); err == nil {
		t.Error("negative well strength accepted")
	}
}

// TestWithShardsAcceptsOnlyOne: intra-rank shards were retired, so the
// deprecated option is refused by every constructor and by Restore at any
// value but 0 and 1, and WithShards(1) runs.
func TestWithShardsAcceptsOnlyOne(t *testing.T) {
	two := permcell.WithShards(2)
	refused := map[string]func() (permcell.Engine, error){
		"New":       func() (permcell.Engine, error) { return permcell.New(2, 4, 0.256, two) },
		"NewStatic": func() (permcell.Engine, error) { return permcell.NewStatic(permcell.ShapePlane, 4, 2, 0.256, two) },
		"NewSerial": func() (permcell.Engine, error) { return permcell.NewSerial(4, 0.3, two) },
		"Restore": func() (permcell.Engine, error) {
			return permcell.Restore(filepath.Join("testdata", "ckpt", "serial.ckpt"), two)
		},
	}
	for name, mk := range refused {
		eng, err := mk()
		if err == nil {
			eng.Result()
			t.Errorf("%s accepted WithShards(2)", name)
		} else if !strings.Contains(err.Error(), "retired") {
			t.Errorf("%s: %v, want an error naming the retirement", name, err)
		}
	}
	eng, err := permcell.NewSerial(4, 0.3, permcell.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestRunFacade(t *testing.T) {
	res, err := permcell.Run(context.Background(), 2, 4, 0.256, 50,
		permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})),
		permcell.WithSeed(1), permcell.WithWells(3, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 50 {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	if res.Final.Len() == 0 {
		t.Fatal("no particles in final state")
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundFacade(t *testing.T) {
	f, err := permcell.Bound(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.3) > 1e-12 { // f(2,2) = 3/(7*2-4)
		t.Errorf("Bound(2,2) = %v, want 0.3", f)
	}
	if _, err := permcell.Bound(1, 2); err == nil {
		t.Error("m=1 accepted")
	}
}

func TestMaxDomainColumnsFacade(t *testing.T) {
	if permcell.MaxDomainColumns(3) != 21 {
		t.Error("C'(3) != 21")
	}
}

func TestPaperConstants(t *testing.T) {
	if permcell.PaperTref != 0.722 || permcell.PaperCutoff != 2.5 {
		t.Error("paper constants wrong")
	}
}

// TestCadenceCheckpointFailureKeepsRecord pins that a cadence checkpoint
// which fails to write costs no step record, on every engine kind: the
// failed write surfaces from the Step that crossed the boundary, but that
// step's record is already emitted and the run steps on.
func TestCadenceCheckpointFailureKeepsRecord(t *testing.T) {
	pc := permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{}))
	tcp := permcell.WithTransport(permcell.Transport{Kind: permcell.TransportTCP, Procs: 2})
	for _, c := range []struct {
		name string
		mk   func(...permcell.Option) (permcell.Engine, error)
	}{
		{"dlb", func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.3, append(o, pc)...)
		}},
		{"static", func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.3, o...)
		}},
		{"tcp", func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.3, append(o, pc, tcp)...)
		}},
		{"serial", func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewSerial(3, 0.3, o...)
		}},
		{"supervised", func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.3, append(o, pc, permcell.WithSupervisor(permcell.SupervisorPolicy{MaxRetries: 1}))...)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			eng, err := c.mk(permcell.WithCheckpoint(2, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Result()
			// A regular file in the directory's place, put there after
			// construction so the supervisor's anchor write succeeds:
			// every later write fails in MkdirAll.
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if err := eng.Step(1); (err != nil) != (i == 2) {
					t.Fatalf("Step %d returned %v; want an error from the cadence step 2 only", i, err)
				}
			}
			var steps []int
			for _, st := range eng.Stats() {
				steps = append(steps, st.Step)
			}
			if !slices.Equal(steps, []int{1, 2, 3}) {
				t.Fatalf("recorded steps %v, want [1 2 3]", steps)
			}
		})
	}
}

// TestPurePhysicsCondenses keeps the paper's own driver from rotting: with
// the attractor wells off, the supercooled gas still condenses under
// periodic rescaling alone, so the empty-cell fraction C0/C rises over the
// first 2 000 steps of a tiny run.
func TestPurePhysicsCondenses(t *testing.T) {
	t.Parallel()
	res, err := permcell.Run(context.Background(), 3, 4, 0.384, 2000,
		permcell.WithSeed(1), permcell.WithWells(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	early, late := res.Stats[199], res.Stats[1999]
	if early.Step != 200 || late.Step != 2000 {
		t.Fatalf("stats index steps %d and %d, want 200 and 2000", early.Step, late.Step)
	}
	t.Logf("C0/C %.3f at step 200, %.3f at step 2000", early.Conc.C0OverC, late.Conc.C0OverC)
	if rise := late.Conc.C0OverC - early.Conc.C0OverC; rise < 0.1 {
		t.Errorf("C0/C went from %.3f at step 200 to %.3f at step 2000; want a rise of at least 0.1",
			early.Conc.C0OverC, late.Conc.C0OverC)
	}
}
