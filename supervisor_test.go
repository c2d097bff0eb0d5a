package permcell_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/experiments"
)

// fastPolicy is the test supervision policy: a real retry budget with a
// negligible backoff so recovery tests stay fast.
func fastPolicy(retries int) permcell.SupervisorPolicy {
	return permcell.SupervisorPolicy{MaxRetries: retries, Backoff: time.Millisecond}
}

// goldenTrace runs the given engine constructor uninterrupted and returns
// its trace hash (the deterministic per-step fingerprint).
func goldenTrace(t *testing.T, mk func(opts ...permcell.Option) (permcell.Engine, error), steps int) uint64 {
	t.Helper()
	eng, err := mk()
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
	return experiments.TraceHash(res.Stats)
}

// TestSupervisorStaticEngine exercises the same recovery path through the
// static-decomposition backend.
func TestSupervisorStaticEngine(t *testing.T) {
	const steps = 18
	mk := func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.3, append([]permcell.Option{permcell.WithSeed(5)}, opts...)...)
	}
	golden := goldenTrace(t, mk, steps)

	eng, err := mk(
		permcell.WithCheckpoint(6, t.TempDir()),
		permcell.WithSupervisor(fastPolicy(3)),
		permcell.WithSabotage(&permcell.Sabotage{Kind: permcell.SabotagePanic, Step: 10, Rank: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(steps); err != nil {
		t.Fatalf("supervised Step: %v", err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.TraceHash(res.Stats); got != golden {
		t.Fatalf("recovered trace hash %#x != golden %#x", got, golden)
	}
	if rep := permcell.SupervisionReport(eng); rep.Rollbacks < 1 {
		t.Fatalf("no rollback recorded: %+v", rep)
	}
}

// TestSupervisorBudgetExhausted: with a zero retry budget the first failure
// must degrade the run to a partial Result plus a *RetryBudgetError carrying
// the structured report — never a process crash.
func TestSupervisorBudgetExhausted(t *testing.T) {
	eng, err := permcell.New(2, 4, 0.3, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(5),
		permcell.WithCheckpoint(8, t.TempDir()),
		permcell.WithSupervisor(fastPolicy(0)),
		permcell.WithSabotage(&permcell.Sabotage{Kind: permcell.SabotagePanic, Step: 13, Rank: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	serr := eng.Step(24)
	var rbe *permcell.RetryBudgetError
	if !errors.As(serr, &rbe) {
		t.Fatalf("Step error = %v, want *RetryBudgetError", serr)
	}
	if !rbe.Report.Exhausted || rbe.Report.RankFailures < 1 {
		t.Fatalf("report incomplete: %+v", rbe.Report)
	}
	var rf *permcell.RankFailure
	if !errors.As(serr, &rf) {
		t.Fatalf("budget error does not unwrap to the rank failure: %v", serr)
	}

	res, rerr := eng.Result()
	if !errors.As(rerr, &rbe) {
		t.Fatalf("Result error = %v, want the budget error", rerr)
	}
	if res == nil {
		t.Fatal("no partial Result on budget exhaustion")
	}
	if len(res.Stats) != 12 {
		t.Fatalf("partial trace has %d steps, want the 12 completed before the step-13 failure", len(res.Stats))
	}
}

// TestSupervisorFallsBackToPrevious: when the latest checkpoint is corrupt
// at rollback time, the supervisor must restore the retained previous one
// and still converge to the golden trace.
func TestSupervisorFallsBackToPrevious(t *testing.T) {
	const steps = 24
	mk := func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.New(2, 4, 0.3, append([]permcell.Option{permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(5)}, opts...)...)
	}
	golden := goldenTrace(t, mk, steps)

	dir := t.TempDir()
	var restoredFrom []string
	pol := fastPolicy(3)
	pol.OnEvent = func(ev permcell.SupervisorEvent) {
		if ev.Kind == "rollback" {
			restoredFrom = append(restoredFrom, filepath.Base(ev.Checkpoint))
		}
	}
	eng, err := mk(
		permcell.WithCheckpoint(6, dir),
		permcell.WithSupervisor(pol),
		permcell.WithSabotage(&permcell.Sabotage{Kind: permcell.SabotagePanic, Step: 15, Rank: 0}),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Advance past two cadence boundaries (checkpoints at 6 and 12), then
	// corrupt latest.ckpt on disk before the step-15 sabotage fires.
	if err := eng.Step(14); err != nil {
		t.Fatal(err)
	}
	latest := filepath.Join(dir, checkpoint.LatestName)
	raw, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(latest, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(1); err != nil {
		t.Fatalf("supervised Step: %v", err)
	}
	// The replay from step 6 past the step-12 boundary wrote nothing, so
	// the rollback target it came from is still there.
	prev, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.PreviousName))
	if err != nil || prev.Step != 6 {
		t.Fatalf("previous.ckpt after the heal at step 15: %+v, %v; want step 6", prev, err)
	}
	if err := eng.Step(steps - 15); err != nil {
		t.Fatalf("supervised Step: %v", err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.TraceHash(res.Stats); got != golden {
		t.Fatalf("recovered trace hash %#x != golden %#x", got, golden)
	}
	if len(restoredFrom) == 0 || restoredFrom[0] != checkpoint.PreviousName {
		t.Fatalf("rollback used %v, want %s first", restoredFrom, checkpoint.PreviousName)
	}
}

// TestSupervisorRequiresCheckpointDir: supervision without a rollback target
// is a configuration error, reported at construction.
func TestSupervisorRequiresCheckpointDir(t *testing.T) {
	if _, err := permcell.New(2, 4, 0.3, permcell.WithSupervisor(fastPolicy(1))); err == nil {
		t.Fatal("WithSupervisor without WithCheckpoint accepted")
	}
	if permcell.SupervisionReport(nil) != nil {
		t.Fatal("SupervisionReport(nil) != nil")
	}
}

// TestRestoreUnderSupervisor: Restore composes with WithSupervisor — the
// resumed run is supervised, recovers from failures, and its combined trace
// matches the golden run.
func TestRestoreUnderSupervisor(t *testing.T) {
	const b = 8
	mk := func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.New(2, 4, 0.3, append([]permcell.Option{permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(5)}, opts...)...)
	}
	golden := goldenTrace(t, mk, 2*b)

	dir := t.TempDir()
	first, err := mk(permcell.WithCheckpoint(b, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Step(b); err != nil {
		t.Fatal(err)
	}
	fRes, err := first.Result()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := permcell.Restore(dir,
		permcell.WithCheckpoint(b, dir),
		permcell.WithSupervisor(fastPolicy(3)),
		permcell.WithSabotage(&permcell.Sabotage{Kind: permcell.SabotagePanic, Step: b + 3, Rank: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Step(b); err != nil {
		t.Fatalf("supervised resumed Step: %v", err)
	}
	rRes, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	combined := append(append([]permcell.StepStats(nil), fRes.Stats...), rRes.Stats...)
	if got := experiments.TraceHash(combined); got != golden {
		t.Fatalf("combined trace hash %#x != golden %#x", got, golden)
	}
	if rep := permcell.SupervisionReport(resumed); rep.Rollbacks < 1 {
		t.Fatalf("no rollback recorded on resumed run: %+v", rep)
	}
}

// TestSupervisorHealthyRunIsTransparent: with no failures the supervised
// trace, final state and report must be indistinguishable from an
// unsupervised run (plus an all-zero report).
func TestSupervisorHealthyRunIsTransparent(t *testing.T) {
	const steps = 12
	mk := func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.New(2, 4, 0.3, append([]permcell.Option{permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithSeed(5)}, opts...)...)
	}
	golden := goldenTrace(t, mk, steps)

	eng, err := mk(permcell.WithCheckpoint(6, t.TempDir()), permcell.WithSupervisor(fastPolicy(2)))
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
	if got := experiments.TraceHash(res.Stats); got != golden {
		t.Fatalf("supervised healthy trace hash %#x != golden %#x", got, golden)
	}
	if res.Final == nil {
		t.Fatal("healthy supervised run lost the final state")
	}
	rep := permcell.SupervisionReport(eng)
	if rep.Rollbacks != 0 || rep.RankFailures != 0 || rep.GuardViolations != 0 ||
		rep.Deadlocks != 0 || rep.Retries != 0 || len(rep.Events) != 0 {
		t.Fatalf("healthy run has non-zero report: %+v", rep)
	}
}
