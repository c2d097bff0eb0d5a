package permcell

import (
	"fmt"
	"runtime"
	"testing"
)

// TestGOMAXPROCSMovesNoBit: the force kernel searches for pairs on the
// cores GOMAXPROCS leaves beside the ranks (every core for the serial
// engine, the cores beyond one per local rank for a chan engine: 1, 2 and
// 8 search workers for the serial engine below, 1, 1 and 2 per rank for
// the 4-rank one), and the count is no part of a run's identity: at every
// GOMAXPROCS the step records and the final state carry the same bits, and
// a checkpoint written at one GOMAXPROCS resumes at another on the
// uninterrupted run's bits. Both engines host more cells per rank than one
// search chunk, and the serial one more chunks than a search ring holds.
func TestGOMAXPROCSMovesNoBit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const b = 8
	kinds := []struct {
		name string
		mk   func(opts ...Option) (Engine, error)
	}{
		{"serial", func(opts ...Option) (Engine, error) { return NewSerial(12, 0.3, opts...) }},
		{"chan-P4", func(opts ...Option) (Engine, error) {
			return New(6, 4, 0.3, append([]Option{WithBalancer(PermanentCell(PermanentCellConfig{}))}, opts...)...)
		}},
	}
	same := func(t *testing.T, label string, got, want *Result, tail bool) {
		t.Helper()
		ws := want.Stats
		if tail {
			ws = ws[len(ws)-len(got.Stats):]
		}
		if len(got.Stats) == 0 || len(got.Stats) != len(ws) {
			t.Fatalf("%s: %d step records, want %d", label, len(got.Stats), len(ws))
		}
		for i := range ws {
			if !sameTrace(got.Stats[i], ws[i]) {
				t.Fatalf("%s: record %d (step %d) differs:\n got %+v\nwant %+v", label, i, ws[i].Step, got.Stats[i], ws[i])
			}
		}
		if got.Final.Len() != want.Final.Len() {
			t.Fatalf("%s: %d final particles, want %d", label, got.Final.Len(), want.Final.Len())
		}
		for i := range want.Final.ID {
			if got.Final.ID[i] != want.Final.ID[i] || got.Final.Pos[i] != want.Final.Pos[i] || got.Final.Vel[i] != want.Final.Vel[i] {
				t.Fatalf("%s: final state differs at particle %d", label, i)
			}
		}
	}
	run := func(t *testing.T, eng Engine, err error, steps int) *Result {
		t.Helper()
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
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			var ref *Result
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				eng, err := k.mk(WithSeed(7))
				res := run(t, eng, err, 2*b)
				if ref == nil {
					ref = res
				} else {
					same(t, fmt.Sprintf("GOMAXPROCS=%d", procs), res, ref, false)
				}
			}

			dir := t.TempDir()
			runtime.GOMAXPROCS(1)
			eng, err := k.mk(WithSeed(7), WithCheckpoint(b, dir))
			run(t, eng, err, b)
			runtime.GOMAXPROCS(8)
			resumed, err := Restore(dir)
			same(t, "written at GOMAXPROCS=1, resumed at 8", run(t, resumed, err, b), ref, true)
		})
	}
}
