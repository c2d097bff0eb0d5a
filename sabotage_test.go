package permcell_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/serve"
)

// Fault-injection acceptance tests: the one scripted fault (Sabotage) on
// either transport. A rank-level shot (panic, nan) and a process-level shot
// (worker exit, stall, garbage frame) must surface typed and promptly when
// nobody supervises the run, heal to a trace bit-identical to the
// uninterrupted in-process golden when somebody does — under respawn and
// under rescale — and obey one spent rule. TCP workers are goroutine-hosted
// (real loopback TCP, one test process) so the race detector covers the
// whole detection and recovery path; no run here arms a watchdog, so a hang
// is a test failure (stepWithin), not a watchdog report.

const (
	faultSteps = 24
	faultEvery = 6  // checkpoint cadence of the supervised runs
	faultStep  = 11 // so the heal is a rollback to 6 and four replayed steps
	faultRank  = 3  // hosted by the last worker at every process count
)

// faultKinds is the kind axis: the script, the supervision counter it must
// tick exactly once, and for process-level kinds the WorkerFailure class.
var faultKinds = []struct {
	kind   string
	stall  time.Duration
	worker permcell.WorkerFailureKind // "" for the rank-level kinds
	count  func(*permcell.SupervisorReport) int
}{
	{permcell.SabotagePanic, 0, "", func(r *permcell.SupervisorReport) int { return r.RankFailures }},
	{permcell.SabotageNaN, 0, "", func(r *permcell.SupervisorReport) int { return r.GuardViolations }},
	{permcell.SabotageWorkerExit, 0, permcell.WorkerExited, func(r *permcell.SupervisorReport) int { return r.WorkerFailures }},
	// Longer than the 250ms heartbeat window: a stall is the one failure
	// where the worker is still alive, and recovery must not be confused
	// by its late revival.
	{permcell.SabotageWorkerStall, 600 * time.Millisecond, permcell.WorkerHeartbeatTimeout, func(r *permcell.SupervisorReport) int { return r.WorkerFailures }},
	{permcell.SabotageWorkerGarbage, 0, permcell.WorkerFrameDecode, func(r *permcell.SupervisorReport) int { return r.WorkerFailures }},
}

// hosting is the transport axis: procs tcp workers — goroutines, or
// processes of the worker binary — or 0 for in-process.
type hosting struct {
	name   string
	procs  int
	worker string
}

var hostings = []hosting{{name: "chan"}, {name: "tcp2", procs: 2}, {name: "tcp3", procs: 3}}

// options selects the transport, with a tight liveness window on tcp
// (50ms x 5 = 250ms) so detection fits in a test budget.
func (h hosting) options() []permcell.Option {
	if h.procs == 0 {
		return nil
	}
	return []permcell.Option{permcell.WithTransport(permcell.Transport{
		Kind: permcell.TransportTCP, Procs: h.procs, Worker: h.worker,
		HeartbeatEvery: 50 * time.Millisecond, HeartbeatMisses: 5,
	})}
}

// procOf is the worker hosting rank when the 4 ranks are dealt in contiguous
// blocks.
func (h hosting) procOf(rank int) int {
	for i := 0; ; i++ {
		if rank < (i+1)*4/h.procs {
			return i
		}
	}
}

// faulty starts runTransport's workload — same seed and physics as the
// golden — without a watchdog, hosted by h, with opts appended.
func faulty(t *testing.T, h hosting, opts ...permcell.Option) permcell.Engine {
	t.Helper()
	base := []permcell.Option{permcell.WithSeed(7), permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})), permcell.WithWells(2, 1.5)}
	eng, err := permcell.New(2, 4, 0.3, append(append(base, h.options()...), opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng
}

// supervisedWith is the option set of a supervised faulty run.
func supervisedWith(dir, policy string, retries int, sab *permcell.Sabotage) []permcell.Option {
	return []permcell.Option{
		permcell.WithSabotage(sab),
		permcell.WithCheckpoint(faultEvery, dir),
		permcell.WithSupervisor(permcell.SupervisorPolicy{
			MaxRetries: retries, Backoff: time.Millisecond, WorkerRecovery: policy,
		}),
	}
}

// stepWithin is Step with a deadline: a Step that is still blocked after
// limit fails the test instead of hanging it.
func stepWithin(t *testing.T, eng permcell.Engine, n int, limit time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- eng.Step(n) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("Step(%d) still blocked after %v", n, limit)
		return nil
	}
}

// wantTyped asserts the error an unhealed shot of kind k surfaces as.
func wantTyped(t *testing.T, err error, kind string, worker permcell.WorkerFailureKind, h hosting) {
	t.Helper()
	var rf *permcell.RankFailure
	var gv *permcell.GuardViolation
	var wf *permcell.WorkerFailure
	switch {
	case err == nil:
		t.Fatal("Step survived the injected fault")
	case kind == permcell.SabotagePanic:
		if !errors.As(err, &rf) || rf.Rank != faultRank {
			t.Fatalf("Step error %v is not the RankFailure of rank %d", err, faultRank)
		}
	case kind == permcell.SabotageNaN:
		if !errors.As(err, &gv) || gv.Check != "finite" {
			t.Fatalf("Step error %v is not a finite-guard GuardViolation", err)
		}
	default:
		if !errors.As(err, &wf) {
			t.Fatalf("Step error %v is not a WorkerFailure", err)
		}
		if wf.Kind != worker {
			t.Errorf("failure kind = %s, want %s (err: %v)", wf.Kind, worker, err)
		}
		if want := h.procOf(faultRank); wf.Proc != want {
			t.Errorf("failure proc = %d, want %d (the host of rank %d)", wf.Proc, want, faultRank)
		}
		if len(wf.Ranks) == 0 {
			t.Error("failure carries no rank block")
		}
	}
}

// TestSabotageHeals is the heal table: kinds x {chan, tcp 2 procs, tcp 3
// procs} x {unsupervised, respawn, rescale}. Unsupervised, the shot must fail
// Step with the right typed error inside a few heartbeat windows.
// Supervised, the healed trace and final positions must equal the
// uninterrupted in-process golden, with exactly one failure, of the right
// class, healed by at least one rollback.
func TestSabotageHeals(t *testing.T) {
	golden := runTransport(t, faultSteps)
	for _, k := range faultKinds {
		for _, h := range hostings {
			if k.worker != "" && h.procs == 0 {
				continue // process-level kinds need worker processes
			}
			script := func() *permcell.Sabotage {
				return &permcell.Sabotage{Kind: k.kind, Step: faultStep, Rank: faultRank, Stall: k.stall}
			}
			t.Run(k.kind+"/"+h.name+"/unsupervised", func(t *testing.T) {
				sab := script()
				opts := []permcell.Option{permcell.WithSabotage(sab)}
				if k.kind == permcell.SabotageNaN {
					// The physics guards come with the supervisor; a zero
					// budget arms them and heals nothing.
					opts = supervisedWith(t.TempDir(), "", 0, sab)
				}
				eng := faulty(t, h, opts...)
				// Bounded detection: the stall needs its heartbeat window,
				// everything else is detected nearly instantly; 10s keeps
				// slow machines green and still catches a hang.
				err := stepWithin(t, eng, faultSteps, 10*time.Second)
				eng.Result()
				wantTyped(t, err, k.kind, k.worker, h)
				if !sab.Fired() {
					t.Error("the script still reads unspent after it fired")
				}
			})
			policies := []string{permcell.RecoverRespawn, permcell.RecoverRescale}
			if h.procs == 0 {
				policies = policies[:1] // in-process engines have no workers to shed
			}
			for _, policy := range policies {
				t.Run(k.kind+"/"+h.name+"/"+policy, func(t *testing.T) {
					sab := script()
					eng := faulty(t, h, supervisedWith(t.TempDir(), policy, 3, sab)...)
					if err := stepWithin(t, eng, faultSteps, 30*time.Second); err != nil {
						eng.Result()
						t.Fatalf("supervised Step: %v", err)
					}
					res, err := eng.Result()
					if err != nil {
						t.Fatalf("Result: %v", err)
					}
					sameTrace(t, "healed", golden.Stats, res.Stats)
					if !reflect.DeepEqual(golden.Final.Pos, res.Final.Pos) {
						t.Error("healed final positions diverge from golden")
					}
					rep := permcell.SupervisionReport(eng)
					if rep == nil {
						t.Fatal("SupervisionReport returned nil for a supervised engine")
					}
					if all := rep.RankFailures + rep.GuardViolations + rep.Deadlocks + rep.WorkerFailures; k.count(rep) != 1 || all != 1 {
						t.Errorf("report = %+v, want exactly one failure, of the %s class", rep, k.kind)
					}
					if rep.Rollbacks < 1 || rep.Retries < 1 || rep.StepsReplayed == 0 || rep.Exhausted {
						t.Errorf("report did not record a healed recovery: %+v", rep)
					}
					if !sab.Fired() {
						t.Error("the script still reads unspent after it fired")
					}
				})
			}
		}
	}
}

// TestWorkerStallUnderWindowHeals proves liveness is tuned, not
// hair-trigger: a stall shorter than the heartbeat window must ride
// through without tripping failure detection — the shot fires, nothing
// fails — and the run must still match the golden trace.
func TestWorkerStallUnderWindowHeals(t *testing.T) {
	golden := runTransport(t, faultSteps)
	sab := &permcell.Sabotage{
		Kind: permcell.SabotageWorkerStall, Step: faultStep, Rank: faultRank, Stall: 100 * time.Millisecond,
	}
	got := runTransport(t, faultSteps, append(hostings[1].options(), permcell.WithSabotage(sab))...)
	sameTrace(t, "sub-window stall", golden.Stats, got.Stats)
	sameFinal(t, "sub-window stall", golden, got)
	if !sab.Fired() {
		t.Error("the sub-window stall never fired")
	}
}

// TestTCPRankFailureDoesNotHang pins the hang the chan-only Sabotage was
// hiding: with the ranks on two workers and no watchdog, a rank panic or a
// guard violation inside one worker leaves the other parked on receives
// nobody will answer, and a coordinator that waits for every worker's ack
// before reading any blocks Step forever. Step must return the typed error
// inside 5s, and Result must leave no worker behind — goroutine-hosted or a
// real mdrank process. (The supervised cells, panic|nan x tcp x {respawn,
// rescale}, are rows of TestSabotageHeals.)
func TestTCPRankFailureDoesNotHang(t *testing.T) {
	for _, kind := range []string{permcell.SabotagePanic, permcell.SabotageNaN} {
		run := func(t *testing.T, worker string) {
			h := hosting{procs: 2, worker: worker} // faultRank lives on proc 1
			sab := &permcell.Sabotage{Kind: kind, Step: faultStep, Rank: faultRank}
			opts := []permcell.Option{permcell.WithSabotage(sab)}
			if kind == permcell.SabotageNaN {
				opts = supervisedWith(t.TempDir(), "", 0, sab) // arms the guards, heals nothing
			}
			eng := faulty(t, h, opts...)
			err := stepWithin(t, eng, faultSteps, 5*time.Second)
			eng.Result()
			wantTyped(t, err, kind, "", h)
		}
		// Result releases the workers — the failed one idling in its serve
		// loop, the healthy one parked inside Step — by closing their links;
		// under the (zero-budget) supervisor that teardown runs on a side
		// goroutine, so leftovers get 5s to go away.
		gone := func(t *testing.T, leftover func() string) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				what := leftover()
				if what == "" {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s still there 5s after Result", what)
				}
			}
		}
		t.Run(kind+"/goroutines", func(t *testing.T) {
			run(t, "")
			buf := make([]byte, 1<<20)
			gone(t, func() string {
				if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("distrib.RunWorker(")) {
					return "a goroutine-hosted worker"
				}
				return ""
			})
		})
		t.Run(kind+"/mdrank", func(t *testing.T) {
			if runtime.GOOS != "linux" {
				t.Skip("finds leftover workers through /proc")
			}
			bin := filepath.Join(t.TempDir(), "mdrank")
			if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mdrank").CombinedOutput(); err != nil {
				t.Fatalf("building mdrank: %v\n%s", err, out)
			}
			run(t, bin)
			gone(t, func() string {
				exes, _ := filepath.Glob("/proc/[0-9]*/exe")
				for _, exe := range exes {
					if target, err := os.Readlink(exe); err == nil && target == bin {
						return "mdrank worker " + filepath.Dir(exe)
					}
				}
				return ""
			})
		})
	}
}

// TestCheckpointHealsDeadWorker: an explicit checkpoint of a supervised
// engine whose worker process died between two Steps meets the failure in
// its snapshot, and heals it like a Step would — roll back, replay to the
// same step, snapshot again — instead of returning it. The run then goes
// on to the golden trace.
func TestCheckpointHealsDeadWorker(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("finds the worker process through /proc")
	}
	bin := filepath.Join(t.TempDir(), "mdrank")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mdrank").CombinedOutput(); err != nil {
		t.Fatalf("building mdrank: %v\n%s", err, out)
	}
	golden := runTransport(t, faultSteps)
	dir := t.TempDir()
	eng := faulty(t, hosting{procs: 2, worker: bin}, supervisedWith(dir, "", 3, nil)...)
	defer eng.Result()
	if err := stepWithin(t, eng, faultStep, 30*time.Second); err != nil {
		t.Fatalf("Step: %v", err)
	}
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	killed := false
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && target == bin {
			var pid int
			fmt.Sscanf(filepath.Base(filepath.Dir(exe)), "%d", &pid)
			if p, err := os.FindProcess(pid); err == nil && p.Kill() == nil {
				killed = true
				break
			}
		}
	}
	if !killed {
		t.Fatal("no worker process to kill")
	}
	if err := permcell.CheckpointNow(eng); err != nil {
		t.Fatalf("Checkpoint after a worker died: %v", err)
	}
	if meta, _, err := checkpoint.Load(filepath.Join(dir, checkpoint.LatestName)); err != nil || meta.Step != faultStep {
		t.Fatalf("latest checkpoint %+v, %v; want step %d", meta, err, faultStep)
	}
	if err := stepWithin(t, eng, faultSteps-faultStep, 30*time.Second); err != nil {
		t.Fatalf("Step after the healed checkpoint: %v", err)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	sameTrace(t, "healed", golden.Stats, res.Stats)
	if rep := permcell.SupervisionReport(eng); rep.WorkerFailures != 1 || rep.Rollbacks != 1 {
		t.Errorf("report = %+v, want one worker failure healed by one rollback", rep)
	}
}

// TestSabotageSpentRule pins the one spent rule on every kind and every
// transport it is valid on: the caller's pointer flips when the shot fires,
// never when an engine is built around it (or, over tcp, when the script
// ships to a worker). An incarnation that ends before Step — checkpoint,
// Result — leaves the script armed; the Restore handed the same pointer
// fires it exactly once and heals to the golden.
func TestSabotageSpentRule(t *testing.T) {
	golden := runTransport(t, faultSteps)
	for _, k := range faultKinds {
		for _, h := range hostings[:2] {
			if k.worker != "" && h.procs == 0 {
				continue
			}
			t.Run(k.kind+"/"+h.name, func(t *testing.T) {
				sab := &permcell.Sabotage{Kind: k.kind, Step: faultStep, Rank: faultRank, Stall: k.stall}
				dir := t.TempDir()
				sup := supervisedWith(dir, "", 3, sab)

				first := faulty(t, h, sup...)
				if err := stepWithin(t, first, faultStep-3, 30*time.Second); err != nil {
					t.Fatalf("first incarnation: %v", err)
				}
				if err := permcell.CheckpointNow(first); err != nil {
					t.Fatalf("CheckpointNow: %v", err)
				}
				head, err := first.Result()
				if err != nil {
					t.Fatalf("first Result: %v", err)
				}
				if rep := permcell.SupervisionReport(first); sab.Fired() || len(rep.Events) != 0 {
					t.Fatalf("the shot was spent before its step: fired=%v report=%+v", sab.Fired(), rep)
				}

				second, err := permcell.Restore(dir, append(h.options(), sup...)...)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if err := stepWithin(t, second, faultSteps-(faultStep-3), 30*time.Second); err != nil {
					second.Result()
					t.Fatalf("second incarnation: %v", err)
				}
				tail, err := second.Result()
				if err != nil {
					t.Fatalf("second Result: %v", err)
				}
				rep := permcell.SupervisionReport(second)
				if all := rep.RankFailures + rep.GuardViolations + rep.Deadlocks + rep.WorkerFailures; k.count(rep) != 1 || all != 1 {
					t.Errorf("restored run's report = %+v, want the shot to fire exactly once", rep)
				}
				if !sab.Fired() {
					t.Error("Fired() reads false after the shot went off")
				}
				sameTrace(t, "spliced", golden.Stats, append(head.Stats, tail.Stats...))
			})
		}
	}
}

// TestSabotageValidation is the one table over the shared validator: every
// bad field is refused by each facade constructor and, where the service's
// JSON can express it, as an HTTP 400 from POST /runs — instead of a run
// that silently never fails.
func TestSabotageValidation(t *testing.T) {
	svc, err := serve.New(serve.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	post := func(sab *permcell.Sabotage) (int, string) {
		body, _ := json.Marshal(serve.RunSpec{M: 2, P: 4, Rho: 0.3, Steps: 2,
			Sabotage: &serve.SabotageSpec{Kind: sab.Kind, Step: sab.Step, Rank: sab.Rank}})
		resp, err := http.Post(hs.URL+"/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Error
	}
	constructors := map[string]func(...permcell.Option) (permcell.Engine, error){
		"New": func(o ...permcell.Option) (permcell.Engine, error) { return permcell.New(2, 4, 0.3, o...) },
		"NewStatic": func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.3, o...)
		},
		"Restore": func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.Restore(filepath.Join("testdata", "ckpt", "dlb.ckpt"), o...)
		},
	}

	cases := []struct {
		name string
		sab  *permcell.Sabotage
		tcp  bool   // aim it at the tcp transport (parallel engines only)
		want string // "" = a valid script; else what the refusal must name
	}{
		{"valid", &permcell.Sabotage{Kind: permcell.SabotagePanic, Step: 5, Rank: 1}, false, ""},
		{"valid over tcp", &permcell.Sabotage{Kind: permcell.SabotageWorkerStall, Step: 5, Rank: 1, Stall: time.Second}, true, ""},
		{"unknown kind", &permcell.Sabotage{Kind: "typo", Step: 5, Rank: 1}, false, `"typo"`},
		{"step zero", &permcell.Sabotage{Kind: permcell.SabotagePanic, Step: 0, Rank: 1}, false, "step"},
		{"rank past P", &permcell.Sabotage{Kind: permcell.SabotageNaN, Step: 5, Rank: 99}, false, "rank 99"},
		{"negative rank", &permcell.Sabotage{Kind: permcell.SabotageNaN, Step: 5, Rank: -1}, false, "rank -1"},
		{"worker kind in-process", &permcell.Sabotage{Kind: permcell.SabotageWorkerExit, Step: 5, Rank: 1}, false, `"worker-exit"`},
		{"stall on a rank kind", &permcell.Sabotage{Kind: permcell.SabotagePanic, Step: 5, Rank: 1, Stall: time.Second}, false, "stall"},
		{"stall on another worker kind", &permcell.Sabotage{Kind: permcell.SabotageWorkerGarbage, Step: 5, Rank: 1, Stall: time.Second}, true, "stall"},
	}
	for _, c := range cases {
		opts := []permcell.Option{permcell.WithSabotage(c.sab)}
		if c.tcp {
			opts = append(opts, tcp(2))
		}
		for name, mk := range constructors {
			if c.tcp && name == "NewStatic" {
				continue // refuses the transport before it looks at the script
			}
			eng, err := mk(opts...)
			if err == nil {
				eng.Result()
			}
			if ok := err == nil; ok != (c.want == "") || !ok && !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s returned %v, want %s", c.name, name, err, verdict(c.want))
			}
		}
		if c.tcp || c.sab.Stall != 0 {
			continue // the service's JSON has neither
		}
		code, msg := post(c.sab)
		if ok := code == http.StatusCreated; ok != (c.want == "") || !ok && (code != http.StatusBadRequest || !strings.Contains(msg, c.want)) {
			t.Errorf("%s: POST /runs answered %d %s, want %s (400)", c.name, code, msg, verdict(c.want))
		}
	}
	if err := svc.Shutdown(t.Context()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestFaultPlanValidation: New, NewStatic and Restore refuse a fault plan
// FaultPlan.Validate rejects for the run's rank count — a probability
// outside [0, 1], a negative delay, depth or stall, a stall on a rank the
// run does not have, which would never fire — and accept a valid one, on
// either transport. The serial engine ignores the plan and accepts it.
func TestFaultPlanValidation(t *testing.T) {
	constructors := map[string]func(...permcell.Option) (permcell.Engine, error){
		"New": func(o ...permcell.Option) (permcell.Engine, error) { return permcell.New(2, 4, 0.3, o...) },
		"New over tcp": func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.New(2, 4, 0.3, append(o, tcp(2))...)
		},
		"NewStatic": func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.NewStatic(permcell.ShapeSquarePillar, 4, 4, 0.3, o...)
		},
		"Restore": func(o ...permcell.Option) (permcell.Engine, error) {
			return permcell.Restore(filepath.Join("testdata", "ckpt", "dlb.ckpt"), o...)
		},
	}
	stall := func(rank int, d time.Duration) []permcell.Stall {
		return []permcell.Stall{{Rank: rank, AfterOps: 10, Duration: d}}
	}
	cases := []struct {
		name string
		plan permcell.FaultPlan
		want string // "" = a valid plan; else what the refusal must name
	}{
		{"valid", permcell.FaultPlan{Seed: 1, DelayProb: 0.1, MaxDelay: time.Microsecond, ReorderProb: 0.2, ReorderDepth: 2, Stalls: stall(3, time.Millisecond)}, ""},
		{"delay probability above 1", permcell.FaultPlan{DelayProb: 1.5}, "DelayProb"},
		{"NaN reorder probability", permcell.FaultPlan{ReorderProb: math.NaN()}, "ReorderProb"},
		{"negative delay", permcell.FaultPlan{MaxDelay: -time.Millisecond}, "MaxDelay"},
		{"negative depth", permcell.FaultPlan{ReorderDepth: -1}, "ReorderDepth"},
		{"stall past P", permcell.FaultPlan{Stalls: stall(99, time.Millisecond)}, "rank 99"},
		{"negative stall", permcell.FaultPlan{Stalls: stall(1, -time.Millisecond)}, "Duration"},
	}
	for _, c := range cases {
		for name, mk := range constructors {
			eng, err := mk(permcell.WithFaultPlan(c.plan))
			if err == nil {
				eng.Result()
			}
			if ok := err == nil; ok != (c.want == "") || !ok && !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: %s returned %v, want %s", c.name, name, err, verdict(c.want))
			}
		}
		eng, err := permcell.NewSerial(3, 0.3, permcell.WithFaultPlan(c.plan))
		if err != nil {
			t.Errorf("%s: NewSerial returned %v, want it to ignore the plan", c.name, err)
		} else {
			eng.Result()
		}
	}
}

func verdict(want string) string {
	if want == "" {
		return "it accepted"
	}
	return fmt.Sprintf("a refusal naming %s", want)
}
