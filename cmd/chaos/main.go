// Command chaos runs the full DLB-DDM engine under seeded communication
// fault injection and proves the replay property: it executes the run
// twice from the same seeds and demands the identical deterministic
// per-step trace, with the DESIGN.md Section 6 protocol invariants checked
// after every step of both runs.
//
// Usage:
//
//	chaos -seed 1 -p 36 -steps 200
//	chaos -seed 1 -p 36 -steps 200 -kill-at 80
//
// The default plan injects latency jitter, bounded message reordering,
// transient send failures (absorbed by retry/backoff) and one mid-run PE
// stall. Every fault is drawn from RNG streams derived from -seed, so any
// failure reported here is replayable bit for bit by re-running the same
// command line. A deadlock does not hang: the watchdog aborts with a
// per-rank state dump. Exit status is non-zero if the replay diverges.
//
// -kill-at selects the kill-and-recover scenario instead: the faulty run is
// hard-stopped after that many steps, keeping nothing but the checkpoint
// file, then recovered strictly from the file and finished; the combined
// trace must be identical to the uninterrupted run's. Exit status is
// non-zero if recovery diverges.
//
// -panic-at / -corrupt-at select the self-healing scenario: one run is
// sabotaged at the given step (a PE panic, or a NaN velocity that the
// physics guards must catch) while running under the supervisor
// (-max-retries, -retry-backoff); the supervisor must roll back to the
// latest checkpoint, resume, and finish with a trace identical to an
// unsabotaged golden run. Exit status is non-zero if recovery diverges or
// the supervisor gives up.
//
// -tcp-procs with one of -worker-kill-at / -worker-stall-at /
// -worker-garbage-at selects the distributed self-healing scenario: the
// golden run executes on the in-process transport, then the same run
// executes on the tcp transport under the supervisor while one worker
// process is killed, stalled past the heartbeat window, or made to write a
// garbage frame at the given step. The supervisor must classify the typed
// WorkerFailure, roll back, heal by respawning the worker (or rescaling
// onto the survivors with -recover rescale), and converge to the golden
// trace. -mdrank points at a real worker binary; empty hosts the workers
// as goroutines. Exit status is non-zero if no worker failure was
// detected, recovery diverges, or the supervisor gives up.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"permcell"
	"permcell/internal/balance"
	"permcell/internal/comm"
	"permcell/internal/experiments"
	"permcell/internal/trace"
)

func main() {
	seed := flag.Uint64("seed", 1, "seed for both the physics and the fault plan")
	p := flag.Int("p", 36, "PE count (perfect square)")
	m := flag.Int("m", 2, "square-pillar cross-section size")
	steps := flag.Int("steps", 200, "time steps per run")
	rho := flag.Float64("rho", 0.256, "reduced density")
	shards := flag.Int("shards", 1, "per-PE force-kernel worker count")
	delayProb := flag.Float64("delay-prob", 0.1, "per-send latency jitter probability")
	maxDelay := flag.Duration("max-delay", 200*time.Microsecond, "jitter upper bound")
	reorderProb := flag.Float64("reorder-prob", 0.2, "per-send reorder (hold-back) probability")
	reorderDepth := flag.Int("reorder-depth", 2, "max messages a held message may be overtaken by")
	failProb := flag.Float64("fail-prob", 0.01, "transient send-failure probability")
	stalls := flag.Int("stalls", 1, "number of injected PE stalls")
	stallDur := flag.Duration("stall-dur", 5*time.Millisecond, "duration of each stall")
	watchdog := flag.Duration("watchdog", 2*time.Minute, "deadlock watchdog timeout (0 disables)")
	eventsOut := flag.String("events", "", "write the replay run's fault-event CSV to this file")
	killAt := flag.Int("kill-at", 0, "kill-and-recover scenario: hard-stop after this many steps, recover from the checkpoint, diff against the uninterrupted trace (0 = replay scenario)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint directory for -kill-at and the self-heal scenarios (default: a temporary directory)")
	panicAt := flag.Int("panic-at", 0, "self-heal scenario: inject a PE panic at this step and demand supervised recovery to the golden trace (0 = off)")
	corruptAt := flag.Int("corrupt-at", 0, "self-heal scenario: inject a NaN velocity at this step; the physics guard must catch it and recovery must reach the golden trace (0 = off)")
	sabotageRank := flag.Int("sabotage-rank", 1, "rank the -panic-at/-corrupt-at sabotage fires on")
	maxRetries := flag.Int("max-retries", 3, "supervisor retry budget for the self-heal scenarios")
	retryBackoff := flag.Duration("retry-backoff", time.Millisecond, "initial supervisor retry backoff for the self-heal scenarios")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence for the self-heal scenarios (0 = steps/4)")
	tcpProcs := flag.Int("tcp-procs", 0, "distributed self-heal: worker-process count for the supervised tcp run (0 = in-process scenarios)")
	mdrank := flag.String("mdrank", "", "mdrank binary for the tcp scenarios (empty = goroutine-hosted workers)")
	workerKillAt := flag.Int("worker-kill-at", 0, "distributed self-heal: kill one worker before this step (0 = off)")
	workerStallAt := flag.Int("worker-stall-at", 0, "distributed self-heal: stall one worker past the heartbeat window before this step (0 = off)")
	workerGarbageAt := flag.Int("worker-garbage-at", 0, "distributed self-heal: make one worker write a garbage frame before this step (0 = off)")
	workerProc := flag.Int("worker-proc", 1, "worker process the -worker-*-at chaos fires on")
	workerStallDur := flag.Duration("worker-stall-dur", 2*time.Second, "stall length for -worker-stall-at (pick it past heartbeat-every x heartbeat-misses)")
	recoverPolicy := flag.String("recover", "respawn", "worker recovery policy for the tcp scenarios: respawn or rescale")
	hbEvery := flag.Duration("heartbeat-every", 50*time.Millisecond, "heartbeat interval for the tcp scenarios")
	hbMisses := flag.Int("heartbeat-misses", 5, "heartbeat miss budget for the tcp scenarios")

	flag.Parse()

	plan := comm.FaultPlan{
		Seed:         *seed,
		DelayProb:    *delayProb,
		MaxDelay:     *maxDelay,
		ReorderProb:  *reorderProb,
		ReorderDepth: *reorderDepth,
		FailProb:     *failProb,
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
	spec := experiments.ChaosSpec{
		RunSpec: experiments.RunSpec{
			M: *m, P: *p, Rho: *rho, Steps: *steps, Balancer: balance.PermanentCell{}, Seed: *seed,
			WellK: 1.5, BlobFrac: 0.5, Shards: *shards,
		},
		Plan:     plan,
		Watchdog: *watchdog,
	}

	fmt.Printf("chaos: P=%d m=%d rho=%g steps=%d seed=%d shards=%d\n", *p, *m, *rho, *steps, *seed, *shards)
	fmt.Printf("plan: delay %.2g<=%v reorder %.2g(depth %d) fail %.2g stalls %d x %v watchdog %v\n",
		*delayProb, *maxDelay, *reorderProb, *reorderDepth, *failProb, *stalls, *stallDur, *watchdog)

	if *tcpProcs > 0 {
		kind, at := "", 0
		switch {
		case *workerKillAt > 0:
			kind, at = permcell.ChaosWorkerExit, *workerKillAt
		case *workerStallAt > 0:
			kind, at = permcell.ChaosWorkerStall, *workerStallAt
		case *workerGarbageAt > 0:
			kind, at = permcell.ChaosWorkerGarbage, *workerGarbageAt
		default:
			fmt.Fprintln(os.Stderr, "chaos: -tcp-procs needs one of -worker-kill-at, -worker-stall-at, -worker-garbage-at")
			os.Exit(2)
		}
		distributedHeal(distributedHealSpec{
			m: *m, p: *p, rho: *rho, steps: *steps, seed: *seed, shards: *shards,
			procs: *tcpProcs, mdrank: *mdrank,
			kind: kind, at: at, proc: *workerProc, stall: *workerStallDur,
			policy:  *recoverPolicy,
			hbEvery: *hbEvery, hbMisses: *hbMisses,
			retries: *maxRetries, backoff: *retryBackoff,
			every: *ckptEvery, dir: *ckptDir,
		})
		return
	}

	if *panicAt > 0 || *corruptAt > 0 {
		kind, at := permcell.SabotagePanic, *panicAt
		if *corruptAt > 0 {
			kind, at = permcell.SabotageNaN, *corruptAt
		}
		selfHeal(selfHealSpec{
			m: *m, p: *p, rho: *rho, steps: *steps, seed: *seed, shards: *shards,
			kind: kind, at: at, rank: *sabotageRank,
			retries: *maxRetries, backoff: *retryBackoff,
			every: *ckptEvery, dir: *ckptDir,
		})
		return
	}

	if *killAt > 0 {
		killResume(spec, *killAt, *ckptDir)
		return
	}

	var hashes [2]uint64
	for run := 0; run < 2; run++ {
		t0 := time.Now()
		r, err := spec.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: run %d: %v\n", run, err)
			os.Exit(1)
		}
		hashes[run] = r.TraceHash
		label := "run"
		if run == 1 {
			label = "replay"
		}
		fmt.Printf("%s: N=%d C=%d trace %016x in %v; invariants ok every step\n",
			label, r.Info.N, r.Info.C, r.TraceHash, time.Since(t0).Round(time.Millisecond))
		fmt.Printf("  faults: %d delays, %d reorders, %d failures (%d retries), %d stalls\n",
			r.Faults.Delays, r.Faults.Reorders, r.Faults.Failures, r.Faults.Retries, r.Faults.Stalls)
		if run == 1 && *eventsOut != "" {
			f, err := os.Create(*eventsOut)
			if err == nil {
				err = trace.WriteFaultCSV(f, r.Res.FaultEvents)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: writing %s: %v\n", *eventsOut, err)
				os.Exit(1)
			}
			fmt.Printf("  fault events written to %s\n", *eventsOut)
		}
	}

	if hashes[0] != hashes[1] {
		fmt.Fprintf(os.Stderr, "chaos: REPLAY DIVERGED: %016x vs %016x\n", hashes[0], hashes[1])
		os.Exit(1)
	}
	fmt.Println("replay identical: same seed, same trace")
}

// killResume runs the kill-and-recover scenario and exits non-zero when the
// recovered trace diverges from the uninterrupted one.
func killResume(spec experiments.ChaosSpec, killAt int, dir string) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-ckpt-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	t0 := time.Now()
	r, err := spec.KillResume(killAt, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	fmt.Printf("kill-resume: N=%d C=%d killed at step %d, recovered from %s in %v\n",
		r.Info.N, r.Info.C, r.KillAt, r.CkptPath, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  golden faults: %d delays, %d reorders, %d failures (%d retries), %d stalls\n",
		r.GoldenFaults.Delays, r.GoldenFaults.Reorders, r.GoldenFaults.Failures,
		r.GoldenFaults.Retries, r.GoldenFaults.Stalls)
	fmt.Printf("  resumed faults: %d delays, %d reorders, %d failures (%d retries), %d stalls\n",
		r.ResumedFaults.Delays, r.ResumedFaults.Reorders, r.ResumedFaults.Failures,
		r.ResumedFaults.Retries, r.ResumedFaults.Stalls)
	if !r.Match() {
		fmt.Fprintf(os.Stderr, "chaos: RECOVERY DIVERGED: golden %016x vs resumed %016x\n",
			r.GoldenHash, r.ResumedHash)
		os.Exit(1)
	}
	fmt.Printf("recovery identical: golden trace %016x reproduced across kill and restore\n", r.GoldenHash)
}

type distributedHealSpec struct {
	m, p     int
	rho      float64
	steps    int
	seed     uint64
	shards   int
	procs    int    // tcp worker-process count
	mdrank   string // worker binary ("" = goroutine-hosted)
	kind     string // permcell.ChaosWorker* kind
	at       int    // chaos step
	proc     int    // chaos target proc
	stall    time.Duration
	policy   string // respawn or rescale
	hbEvery  time.Duration
	hbMisses int
	retries  int
	backoff  time.Duration
	every    int    // checkpoint cadence (0 = steps/4)
	dir      string // checkpoint directory ("" = temporary)
}

// distributedHeal runs the distributed self-healing scenario: a golden run
// on the in-process transport, then the identical run on the tcp transport
// under the supervisor while one worker is killed, stalled or corrupted.
// The supervisor must detect a typed WorkerFailure within the heartbeat
// window, roll back, heal under the selected policy, and converge to the
// golden trace — proving the cross-transport determinism contract holds
// straight through a worker death. Exits non-zero on any miss.
func distributedHeal(s distributedHealSpec) {
	if s.dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-distrib-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		s.dir = tmp
	}
	if s.every <= 0 {
		s.every = max(1, s.steps/4)
	}
	if s.proc >= s.procs {
		s.proc = s.procs - 1
	}
	base := []permcell.Option{
		permcell.WithDLB(), permcell.WithSeed(s.seed),
		permcell.WithWells(1, 1.5), permcell.WithShards(s.shards),
	}
	workers := "goroutine-hosted workers"
	if s.mdrank != "" {
		workers = "mdrank processes (" + s.mdrank + ")"
	}
	fmt.Printf("distributed self-heal: %s on proc %d before step %d, %d %s, recover=%s\n",
		s.kind, s.proc, s.at, s.procs, workers, s.policy)
	fmt.Printf("  heartbeat %v x %d (window %v), checkpoints every %d, budget %d\n",
		s.hbEvery, s.hbMisses, s.hbEvery*time.Duration(s.hbMisses), s.every, s.retries)

	t0 := time.Now()
	golden, err := permcell.Run(context.Background(), s.m, s.p, s.rho, s.steps, base...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: golden run:", err)
		os.Exit(1)
	}
	goldenHash := experiments.TraceHash(golden.Stats)
	fmt.Printf("golden (chan): N=%d trace %016x in %v\n",
		golden.Final.Len(), goldenHash, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	eng, err := permcell.New(s.m, s.p, s.rho, append(base,
		permcell.WithTransport(permcell.Transport{
			Kind:            permcell.TransportTCP,
			Procs:           s.procs,
			Worker:          s.mdrank,
			HeartbeatEvery:  s.hbEvery,
			HeartbeatMisses: s.hbMisses,
			Chaos:           &permcell.WorkerChaos{Proc: s.proc, Step: s.at, Kind: s.kind, Stall: s.stall},
		}),
		permcell.WithCheckpoint(s.every, s.dir),
		permcell.WithSupervisor(permcell.SupervisorPolicy{
			MaxRetries:     s.retries,
			Backoff:        s.backoff,
			WorkerRecovery: s.policy,
			OnEvent: func(ev permcell.SupervisorEvent) {
				if ev.Kind == "rollback" {
					fmt.Printf("  supervisor: rollback to step %d from %s\n", ev.RestoredStep, ev.Checkpoint)
				} else {
					fmt.Printf("  supervisor: %s at step %d: %s\n", ev.Kind, ev.Step, ev.Err)
				}
			},
		}),
	)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: supervised tcp run:", err)
		os.Exit(1)
	}
	res, err := permcell.RunEngine(context.Background(), eng, s.steps)
	rep := permcell.SupervisionReport(eng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: SUPERVISED TCP RUN FAILED: %v\n", err)
		os.Exit(1)
	}
	healedHash := experiments.TraceHash(res.Stats)
	fmt.Printf("healed (tcp): trace %016x in %v; %d worker failures, %d rollbacks, %d retries, %d steps replayed\n",
		healedHash, time.Since(t0).Round(time.Millisecond),
		rep.WorkerFailures, rep.Rollbacks, rep.Retries, rep.StepsReplayed)
	if rep.WorkerFailures == 0 {
		fmt.Fprintln(os.Stderr, "chaos: WORKER CHAOS DID NOT FIRE: no worker failure recorded")
		os.Exit(1)
	}
	if rep.Rollbacks == 0 {
		fmt.Fprintln(os.Stderr, "chaos: NO ROLLBACK: the worker failure did not trigger recovery")
		os.Exit(1)
	}
	if healedHash != goldenHash {
		fmt.Fprintf(os.Stderr, "chaos: RECOVERY DIVERGED: golden %016x vs healed %016x\n",
			goldenHash, healedHash)
		os.Exit(1)
	}
	fmt.Printf("recovery identical: golden trace %016x reproduced across worker %s and %s\n",
		goldenHash, s.kind, s.policy)
}

type selfHealSpec struct {
	m, p    int
	rho     float64
	steps   int
	seed    uint64
	shards  int
	kind    string // permcell.SabotagePanic or permcell.SabotageNaN
	at      int    // sabotage step
	rank    int    // sabotage rank
	retries int
	backoff time.Duration
	every   int    // checkpoint cadence (0 = steps/4)
	dir     string // checkpoint directory ("" = temporary)
}

// selfHeal runs the self-healing scenario: a golden uninterrupted run, then
// the same run sabotaged mid-flight under the supervisor, which must roll
// back to a checkpoint, resume, and converge to the identical trace. Exits
// non-zero on divergence or when the supervisor gives up.
func selfHeal(s selfHealSpec) {
	if s.dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-heal-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(tmp)
		s.dir = tmp
	}
	if s.every <= 0 {
		s.every = max(1, s.steps/4)
	}
	base := []permcell.Option{
		permcell.WithDLB(), permcell.WithSeed(s.seed),
		permcell.WithWells(1, 1.5), permcell.WithShards(s.shards),
	}
	fmt.Printf("self-heal: sabotage %s at step %d rank %d, checkpoints every %d, budget %d\n",
		s.kind, s.at, s.rank, s.every, s.retries)

	t0 := time.Now()
	golden, err := permcell.Run(context.Background(), s.m, s.p, s.rho, s.steps, base...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: golden run:", err)
		os.Exit(1)
	}
	goldenHash := experiments.TraceHash(golden.Stats)
	fmt.Printf("golden: N=%d trace %016x in %v\n",
		golden.Final.Len(), goldenHash, time.Since(t0).Round(time.Millisecond))

	t0 = time.Now()
	eng, err := permcell.New(s.m, s.p, s.rho, append(base,
		permcell.WithCheckpoint(s.every, s.dir),
		permcell.WithSupervisor(permcell.SupervisorPolicy{
			MaxRetries: s.retries,
			Backoff:    s.backoff,
			OnEvent: func(ev permcell.SupervisorEvent) {
				if ev.Kind == "rollback" {
					fmt.Printf("  supervisor: rollback to step %d from %s\n", ev.RestoredStep, ev.Checkpoint)
				} else {
					fmt.Printf("  supervisor: %s at step %d: %s\n", ev.Kind, ev.Step, ev.Err)
				}
			},
		}),
		permcell.WithSabotage(&permcell.Sabotage{Kind: s.kind, Step: s.at, Rank: s.rank}),
	)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: supervised run:", err)
		os.Exit(1)
	}
	res, err := permcell.RunEngine(context.Background(), eng, s.steps)
	rep := permcell.SupervisionReport(eng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: SUPERVISED RUN FAILED: %v\n", err)
		os.Exit(1)
	}
	healedHash := experiments.TraceHash(res.Stats)
	fmt.Printf("healed: trace %016x in %v; %d rollbacks, %d retries, %d steps replayed\n",
		healedHash, time.Since(t0).Round(time.Millisecond),
		rep.Rollbacks, rep.Retries, rep.StepsReplayed)
	if rep.Rollbacks == 0 {
		fmt.Fprintln(os.Stderr, "chaos: SABOTAGE DID NOT FIRE: no rollback recorded")
		os.Exit(1)
	}
	if healedHash != goldenHash {
		fmt.Fprintf(os.Stderr, "chaos: RECOVERY DIVERGED: golden %016x vs healed %016x\n",
			goldenHash, healedHash)
		os.Exit(1)
	}
	fmt.Printf("recovery identical: golden trace %016x reproduced across sabotage and rollback\n", goldenHash)
}
