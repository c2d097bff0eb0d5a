// Command chaos proves the trace-identity contract under injected faults.
// Every scenario runs the full DLB-DDM engine from -seed and exits non-zero
// unless the faulty run's deterministic per-step trace equals the clean
// one's; a deadlock does not hang, the watchdog aborts with a per-rank dump.
//
//	chaos -seed 1 -p 36 -steps 200                 replay
//	chaos -seed 1 -p 36 -steps 200 -kill-at 80     kill and recover
//	chaos -p 4 -steps 40 -sabotage panic@17        heal, in-process
//	chaos -p 4 -steps 40 -tcp-procs 2 -sabotage worker-exit@17 -recover rescale
//
// Replay (the default) executes the run twice under a seeded communication
// fault plan — latency jitter, bounded reordering, mid-run PE stalls — with
// the DESIGN.md Section 6 protocol invariants checked after every step, and
// demands the same trace.
//
// -kill-at hard-stops the faulty run after that many steps, keeping nothing
// but the checkpoint file, recovers strictly from the file and finishes; the
// combined trace must equal the uninterrupted run's.
//
// -sabotage kind@step is the heal scenario: a clean golden run on the
// in-process transport, then the same run under the supervisor (-max-retries,
// -retry-backoff, -checkpoint-every) with one scripted fault. Kinds panic and
// nan fail rank -sabotage-rank (the physics guards must catch the NaN); with
// -tcp-procs N the supervised run is spread over N workers (-mdrank names a
// real worker binary, empty hosts them as goroutines) and the kinds
// worker-exit, worker-stall (-sabotage-stall, pick it past the heartbeat
// window) and worker-garbage fail the worker hosting that rank instead. The
// supervisor must classify the typed failure, roll back, heal — respawning
// the worker or, with -recover rescale, shedding it — and converge to the
// golden trace. Exit status 1 if the shot never fired, nothing rolled back,
// recovery diverges or the supervisor gives up; 2 on contradictory flags or
// an out-of-range value (a negative count or duration, a probability outside
// [0, 1], -steps below 1), before anything runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"permcell"
	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/experiments"
	"permcell/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind a seam the tests can call: it parses args, executes the
// selected scenario and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "seed for both the physics and the fault plan")
	p := fs.Int("p", 36, "PE count (perfect square)")
	m := fs.Int("m", 2, "square-pillar cross-section size")
	steps := fs.Int("steps", 200, "time steps per run")
	rho := fs.Float64("rho", 0.256, "reduced density")
	delayProb := fs.Float64("delay-prob", 0.1, "per-send latency jitter probability")
	maxDelay := fs.Duration("max-delay", 200*time.Microsecond, "jitter upper bound")
	reorderProb := fs.Float64("reorder-prob", 0.2, "per-send reorder (hold-back) probability")
	reorderDepth := fs.Int("reorder-depth", 2, "max messages a held message may be overtaken by")
	stalls := fs.Int("stalls", 1, "number of injected PE stalls")
	stallDur := fs.Duration("stall-dur", 5*time.Millisecond, "duration of each stall")
	watchdog := fs.Duration("watchdog", 2*time.Minute, "deadlock watchdog timeout (0 disables)")
	eventsOut := fs.String("events", "", "write the replay run's fault-event CSV to this file")
	killAt := fs.Int("kill-at", 0, "kill-and-recover scenario: hard-stop after this many steps, recover from the checkpoint, diff against the uninterrupted trace")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint directory for -kill-at and -sabotage (default: a temporary directory)")
	sabotage := fs.String("sabotage", "", "heal scenario: inject one fault as kind@step (panic, nan; with -tcp-procs also worker-exit, worker-stall, worker-garbage) and demand supervised recovery to the golden trace")
	sabotageRank := fs.Int("sabotage-rank", 1, "rank -sabotage fires on (worker kinds: the rank whose hosting worker fails)")
	sabotageStall := fs.Duration("sabotage-stall", 2*time.Second, "stall length for -sabotage worker-stall@step (pick it past heartbeat-every x heartbeat-misses)")
	maxRetries := fs.Int("max-retries", 3, "supervisor retry budget for the heal scenario")
	retryBackoff := fs.Duration("retry-backoff", time.Millisecond, "initial supervisor retry backoff for the heal scenario")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint cadence for the heal scenario (0 = steps/4)")
	tcpProcs := fs.Int("tcp-procs", 0, "heal scenario: run the supervised side over this many tcp workers (0 = in-process)")
	mdrank := fs.String("mdrank", "", "mdrank binary for -tcp-procs (empty = goroutine-hosted workers)")
	recoverPolicy := fs.String("recover", "respawn", "worker recovery policy under -tcp-procs: respawn or rescale")
	hbEvery := fs.Duration("heartbeat-every", 50*time.Millisecond, "heartbeat interval under -tcp-procs")
	hbMisses := fs.Int("heartbeat-misses", 5, "heartbeat miss budget under -tcp-procs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "chaos: "+format+"\n", a...)
		return 2
	}
	// An out-of-range count, duration or probability would silently mean
	// something else — an empty run that "passes", the replay scenario in
	// place of a kill, the default cadence or heartbeat, a fault plan that
	// never fires — so it is refused before anything runs, as mdrun refuses
	// its own.
	for _, f := range []struct {
		bad bool
		msg string
	}{
		{*p < 1, "-p must be at least 1"},
		{*steps < 1, "-steps must be at least 1"},
		{*killAt < 0, "-kill-at must not be negative"},
		{*ckptEvery < 0, "-checkpoint-every must not be negative"},
		{!(*delayProb >= 0 && *delayProb <= 1), "-delay-prob must be in [0, 1]"},
		{!(*reorderProb >= 0 && *reorderProb <= 1), "-reorder-prob must be in [0, 1]"},
		{*maxDelay < 0, "-max-delay must not be negative"},
		{*reorderDepth < 0, "-reorder-depth must not be negative"},
		{*stalls < 0, "-stalls must not be negative"},
		{*stallDur < 0, "-stall-dur must not be negative"},
		{*watchdog < 0, "-watchdog must not be negative"},
		{*maxRetries < 0, "-max-retries must not be negative"},
		{*retryBackoff < 0, "-retry-backoff must not be negative"},
		{*sabotageStall < 0, "-sabotage-stall must not be negative"},
		{*tcpProcs < 0, "-tcp-procs must not be negative"},
		{*hbEvery < 0, "-heartbeat-every must not be negative"},
		{*hbMisses < 0, "-heartbeat-misses must not be negative"},
	} {
		if f.bad {
			return usage("%s", f.msg)
		}
	}
	switch {
	case *sabotage != "" && *killAt > 0:
		return usage("-sabotage and -kill-at select different scenarios")
	case *sabotage == "" && *tcpProcs > 0:
		return usage("-tcp-procs needs -sabotage kind@step")
	case *eventsOut != "" && (*sabotage != "" || *killAt > 0):
		return usage("-events writes the replay scenario's fault log; -kill-at and -sabotage do not replay")
	}

	fmt.Fprintf(stdout, "chaos: P=%d m=%d rho=%g steps=%d seed=%d\n", *p, *m, *rho, *steps, *seed)
	if *sabotage != "" {
		kind, at, ok := strings.Cut(*sabotage, "@")
		step, err := strconv.Atoi(at)
		if !ok || err != nil {
			return usage("-sabotage %q is not kind@step", *sabotage)
		}
		sab := &permcell.Sabotage{Kind: kind, Step: step, Rank: *sabotageRank}
		if kind == permcell.SabotageWorkerStall {
			sab.Stall = *sabotageStall
		}
		if err := sab.Validate(*p, *tcpProcs > 0); err != nil {
			return usage("%v", err)
		}
		dir, cleanup, err := dirOrTemp(*ckptDir)
		if err != nil {
			return failed(stderr, err)
		}
		defer cleanup()
		every := *ckptEvery
		if every <= 0 {
			every = max(1, *steps/4)
		}
		faulty := []permcell.Option{
			permcell.WithSabotage(sab),
			permcell.WithCheckpoint(every, dir),
			permcell.WithSupervisor(permcell.SupervisorPolicy{
				MaxRetries: *maxRetries, Backoff: *retryBackoff, WorkerRecovery: *recoverPolicy,
				OnEvent: func(ev permcell.SupervisorEvent) { fmt.Fprintf(stdout, "  supervisor: %v\n", ev) },
			}),
		}
		fmt.Fprintf(stdout, "heal: sabotage %s at step %d rank %d; checkpoints every %d, budget %d\n",
			kind, step, *sabotageRank, every, *maxRetries)
		if *tcpProcs > 0 {
			fmt.Fprintf(stdout, "  %d tcp workers (mdrank %q), heartbeat %v x %d, recover=%s\n",
				*tcpProcs, *mdrank, *hbEvery, *hbMisses, *recoverPolicy)
			faulty = append(faulty, permcell.WithTransport(permcell.Transport{
				Kind: permcell.TransportTCP, Procs: *tcpProcs, Worker: *mdrank,
				HeartbeatEvery: *hbEvery, HeartbeatMisses: *hbMisses,
			}))
		}
		return heal(stdout, stderr, *m, *p, *rho, *steps, sab, []permcell.Option{
			permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{})),
			permcell.WithSeed(*seed),
			permcell.WithWells(1, 1.5),
		}, faulty)
	}

	plan := comm.FaultPlan{
		Seed:         *seed,
		DelayProb:    *delayProb,
		MaxDelay:     *maxDelay,
		ReorderProb:  *reorderProb,
		ReorderDepth: *reorderDepth,
		Record:       *eventsOut != "",
	}
	for i := 0; i < *stalls; i++ {
		// Spread the stalls over ranks and over the run.
		plan.Stalls = append(plan.Stalls, comm.Stall{
			Rank:     (i*7 + *p/2) % *p,
			AfterOps: int64(200 + 400*i),
			Duration: *stallDur,
		})
	}
	if err := plan.Validate(*p); err != nil {
		return usage("%v", err)
	}
	spec := experiments.ChaosSpec{
		RunSpec: experiments.RunSpec{
			M: *m, P: *p, Rho: *rho, Steps: *steps, Balancer: balance.PermanentCell{}, Seed: *seed,
			WellK: 1.5,
		},
		Plan:     plan,
		Watchdog: *watchdog,
	}
	fmt.Fprintf(stdout, "plan: delay %.2g<=%v reorder %.2g(depth %d) stalls %d x %v watchdog %v\n",
		*delayProb, *maxDelay, *reorderProb, *reorderDepth, *stalls, *stallDur, *watchdog)
	if *killAt > 0 {
		return killResume(stdout, stderr, spec, *killAt, *ckptDir)
	}

	var hashes [2]uint64
	for i, label := range []string{"run", "replay"} {
		t0 := time.Now()
		r, err := spec.Run()
		if err != nil {
			return failed(stderr, label+":", err)
		}
		hashes[i] = r.TraceHash
		fmt.Fprintf(stdout, "%s: N=%d C=%d trace %016x in %v; invariants ok every step\n",
			label, r.Info.N, r.Info.C, r.TraceHash, time.Since(t0).Round(time.Millisecond))
		fmt.Fprintf(stdout, "  faults: %s\n", faultLine(r.Res.Faults))
		if i == 1 && *eventsOut != "" {
			err := checkpoint.WriteAtomic(*eventsOut, func(w io.Writer) error {
				return trace.WriteFaultCSV(w, r.Res.FaultEvents)
			})
			if err != nil {
				return failed(stderr, "writing", *eventsOut+":", err)
			}
			fmt.Fprintf(stdout, "  fault events written to %s\n", *eventsOut)
		}
	}
	if hashes[0] != hashes[1] {
		return failed(stderr, fmt.Sprintf("REPLAY DIVERGED: %016x vs %016x", hashes[0], hashes[1]))
	}
	fmt.Fprintln(stdout, "replay identical: same seed, same trace")
	return 0
}

// failed reports a scenario's failure and returns its exit status.
func failed(stderr io.Writer, a ...any) int {
	fmt.Fprintln(stderr, append([]any{"chaos:"}, a...)...)
	return 1
}

func faultLine(f comm.FaultStats) string {
	return fmt.Sprintf("%d delays, %d reorders, %d stalls",
		f.Delays, f.Reorders, f.Stalls)
}

// dirOrTemp returns dir, or a fresh temporary directory with its remover
// when dir is empty.
func dirOrTemp(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", "chaos-ckpt-")
	return tmp, func() { os.RemoveAll(tmp) }, err
}

// killResume runs the kill-and-recover scenario; status 1 when the recovered
// trace diverges from the uninterrupted one.
func killResume(stdout, stderr io.Writer, spec experiments.ChaosSpec, killAt int, ckptDir string) int {
	dir, cleanup, err := dirOrTemp(ckptDir)
	if err != nil {
		return failed(stderr, err)
	}
	defer cleanup()
	t0 := time.Now()
	r, err := spec.KillResume(killAt, dir)
	if err != nil {
		return failed(stderr, err)
	}
	fmt.Fprintf(stdout, "kill-resume: N=%d C=%d killed at step %d, recovered from %s in %v\n",
		r.Info.N, r.Info.C, killAt, r.CkptPath, time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  golden faults: %s\n", faultLine(r.GoldenFaults))
	fmt.Fprintf(stdout, "  resumed faults: %s\n", faultLine(r.ResumedFaults))
	if !r.Match() {
		return failed(stderr, fmt.Sprintf("RECOVERY DIVERGED: golden %016x vs resumed %016x", r.GoldenHash, r.ResumedHash))
	}
	fmt.Fprintf(stdout, "recovery identical: golden trace %016x reproduced across kill and restore\n", r.GoldenHash)
	return 0
}

// heal runs the self-healing scenario: a golden run of base on the
// in-process transport, then base plus faulty — the sabotage, the supervisor
// and whichever transport hosts the ranks — which must fire the shot, roll
// back and converge to the golden trace. On tcp that also proves the
// cross-transport determinism contract straight through a failure.
func heal(stdout, stderr io.Writer, m, p int, rho float64, steps int, sab *permcell.Sabotage, base, faulty []permcell.Option) int {
	t0 := time.Now()
	golden, err := permcell.Run(context.Background(), m, p, rho, steps, base...)
	if err != nil {
		return failed(stderr, "golden run:", err)
	}
	goldenHash := experiments.TraceHash(golden.Stats)
	fmt.Fprintf(stdout, "golden: N=%d trace %016x in %v\n",
		golden.Final.Len(), goldenHash, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	eng, err := permcell.New(m, p, rho, append(base, faulty...)...)
	if err != nil {
		return failed(stderr, "supervised run:", err)
	}
	res, err := permcell.RunEngine(context.Background(), eng, steps)
	if err != nil {
		return failed(stderr, "SUPERVISED RUN FAILED:", err)
	}
	rep := permcell.SupervisionReport(eng)
	healedHash := experiments.TraceHash(res.Stats)
	fmt.Fprintf(stdout, "healed: trace %016x in %v; %d rank, %d guard, %d worker failures; %d rollbacks, %d retries, %d steps replayed\n",
		healedHash, time.Since(t0).Round(time.Millisecond),
		rep.RankFailures, rep.GuardViolations, rep.WorkerFailures, rep.Rollbacks, rep.Retries, rep.StepsReplayed)
	switch {
	case !sab.Fired():
		return failed(stderr, fmt.Sprintf("SABOTAGE DID NOT FIRE: step %d was never reached", sab.Step))
	case rep.Rollbacks == 0:
		return failed(stderr, "NO ROLLBACK: the fault did not trigger recovery")
	case healedHash != goldenHash:
		return failed(stderr, fmt.Sprintf("RECOVERY DIVERGED: golden %016x vs healed %016x", goldenHash, healedHash))
	}
	fmt.Fprintf(stdout, "recovery identical: golden trace %016x reproduced across %s and rollback\n", goldenHash, sab.Kind)
	return 0
}
