// Command mdrun runs one parallel molecular dynamics simulation and emits
// a per-step CSV of the paper's quantities (Tt, Fmax, Fave, Fmin in both
// the deterministic work metric and wall seconds, columns moved by DLB,
// C_0/C and n).
//
// Usage:
//
//	mdrun [-m 3] [-p 16] [-rho 0.256] [-steps 600]
//	      [-balancer 'permcell(h=0.1)'] [-wells 12]
//	      [-wellk 1.5] [-dt 0.005] [-seed 1]
//	      [-o out.csv] [-metrics phases.jsonl] [-prom metrics.prom]
//	      [-checkpoint-every 500] [-checkpoint-dir ckpt] [-resume ckpt]
//	      [-max-retries 3] [-backoff 50ms]
//	      [-transport chan] [-ranks 2] [-mdrank auto]
//	      [-cpuprofile cpu.pprof] [-trace trace.out]
//
// -balancer selects the load-balancing strategy: "permcell" (the paper's
// permanent-cell scheme), "sfc" (Morton-curve repartitioner), "diffusive"
// (nearest-neighbor diffusion) or "none" (static DDM, the default).
// Parameterized forms like "permcell(h=0.1)" or "sfc(h=0,moves=2)" are
// accepted; a bare name takes the defaults (h=0), exactly as
// permcell.BalancerByName parses it. The CSV starts with a "# ..." run
// header recording the balancer and run identity, and each row carries the
// columns and bytes the balancer migrated that step.
//
// Rows stream as the simulation advances (the run is O(1) in memory), so a
// long run can be watched with tail -f. Interrupting with Ctrl-C stops at
// the next step boundary, writes a final checkpoint when -checkpoint-dir is
// set, and still flushes a complete CSV prefix; a second Ctrl-C during that
// final flush forces an immediate non-zero exit.
//
// -max-retries enables the self-healing supervisor (requires
// -checkpoint-dir): PE panics, physics-guard violations and watchdog
// deadlocks roll the run back to the latest valid checkpoint and resume,
// with exponential backoff starting at -backoff, up to the given number of
// attempts; recovery events stream to stderr and the run totals land in the
// -prom snapshot as permcell_recovery_* counters.
//
// -checkpoint-dir enables checkpointing into the given directory (an
// atomic latest/previous pair); -checkpoint-every adds an automatic cadence
// in simulation steps. -resume restarts from a checkpoint file or directory
// and runs -steps further steps; the run identity (m, p, rho, balancer, seed,
// dt, ...) is restored from the checkpoint and the corresponding flags are
// ignored, so the resumed trajectory is bit-identical to the uninterrupted
// run.
//
// -transport selects where the PE ranks live: "chan" (goroutines in this
// process, the default) or "tcp" (rank blocks spread over worker processes
// speaking the frame protocol on loopback). With tcp, -ranks sets the
// worker-process count (default: one per PE) and -mdrank locates the worker
// binary — "auto" looks for an mdrank sibling of the mdrun executable and
// falls back to in-process goroutine workers (same protocol, real sockets)
// when none is found. Either transport produces bit-identical CSV/JSONL
// traces for the same run identity; only the transport counters differ.
//
// -metrics enables the per-phase observability layer and streams one JSON
// record per step (phase wall times, message/byte counts, imbalance gauges
// and the f(m,n) bound residual; "-" = stdout). -prom writes a cumulative
// Prometheus text snapshot at exit. -cpuprofile and -trace capture pprof
// and runtime/trace data over the whole run.
//
// A bad flag exits 2 before anything starts, and so does a negative -steps,
// -checkpoint-every, -backoff or -ranks, or a -max-retries below -1 (off).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"
	"syscall"

	"permcell"
	"permcell/internal/checkpoint"
	"permcell/internal/metrics"
	"permcell/internal/runspec"
)

// artifact is a buffered, mutex-guarded file writer for the streaming
// outputs (-o CSV, -metrics JSONL). The mutex lets the second-interrupt
// goroutine flush a consistent prefix while rank 0's OnStep callback may be
// mid-row, so even a forced exit leaves complete lines on disk rather than
// a torn buffer tail.
type artifact struct {
	mu sync.Mutex
	bw *bufio.Writer
	f  *os.File
}

func newArtifact(f *os.File) *artifact {
	return &artifact{bw: bufio.NewWriter(f), f: f}
}

func (a *artifact) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bw.Write(p)
}

// Flush drains the buffer to the OS; Sync additionally pushes it to stable
// storage (the forced-exit path wants both, cheap teardown wants Flush).
func (a *artifact) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bw.Flush()
}

func (a *artifact) Sync() error {
	if err := a.Flush(); err != nil {
		return err
	}
	return a.f.Sync()
}

func (a *artifact) Close() error {
	err := a.Flush()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is mdrun behind a testable seam: it parses args, drives the run,
// writes the CSV to stdout (unless -o) and diagnostics to stderr, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(msg ...any) int {
		fmt.Fprintln(stderr, append([]any{"mdrun:"}, msg...)...)
		return 1
	}
	m := fs.Int("m", 3, "square-pillar cross-section size m")
	p := fs.Int("p", 16, "PE count (perfect square)")
	rho := fs.Float64("rho", 0.256, "reduced density")
	steps := fs.Int("steps", 600, "time steps")
	balancerSpec := fs.String("balancer", "none", `load balancer: permcell|sfc|diffusive|none, optionally parameterized, e.g. "permcell(h=0.1)" or "sfc(h=0,moves=2)"`)
	wells := fs.Int("wells", 12, "condensation driver attractor count (0 = pure physics)")
	wellK := fs.Float64("wellk", 1.5, "attractor strength")
	dt := fs.Float64("dt", 0.005, "time step (reduced units; paper uses 1e-4)")
	seed := fs.Uint64("seed", 1, "RNG seed")
	out := fs.String("o", "", "CSV output path (default stdout)")
	metricsOut := fs.String("metrics", "", "per-phase JSONL output path (enables the observability layer; \"-\" = stdout)")
	promOut := fs.String("prom", "", "Prometheus text snapshot path, written at exit (implies -metrics collection)")
	ckptEvery := fs.Int("checkpoint-every", 0, "write a checkpoint every N steps (0 = only at interrupt)")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint directory (enables checkpointing)")
	resume := fs.String("resume", "", "resume from a checkpoint file or directory")
	maxRetries := fs.Int("max-retries", -1, "enable the self-healing supervisor with this retry budget (requires -checkpoint-dir; -1 = off)")
	backoff := fs.Duration("backoff", 0, "initial supervisor retry backoff, doubling per attempt (0 = default 50ms)")
	transportKind := fs.String("transport", "chan", `rank transport: "chan" (in-process goroutines) or "tcp" (multi-process workers)`)
	ranks := fs.Int("ranks", 0, "worker-process count for -transport=tcp (0 = one per PE)")
	mdrank := fs.String("mdrank", "auto", `mdrank worker binary for -transport=tcp ("auto" = sibling of mdrun, falling back to in-process workers; "" = in-process workers)`)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	traceOut := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A negative count or duration would silently mean something else — no
	// steps, no cadence, no supervisor, the default backoff, one worker per
	// PE — so it is refused before anything starts, as mdserve refuses its
	// own. -max-retries -1 is the documented "off".
	for _, f := range []struct {
		bad bool
		msg string
	}{
		{*steps < 0, "-steps must not be negative"},
		{*ckptEvery < 0, "-checkpoint-every must not be negative"},
		{*maxRetries < -1, "-max-retries must be -1 (off) or at least 0"},
		{*backoff < 0, "-backoff must not be negative"},
		{*ranks < 0, "-ranks must not be negative"},
	} {
		if f.bad {
			fmt.Fprintln(stderr, "mdrun:", f.msg)
			return 2
		}
	}

	if *ckptEvery > 0 && *ckptDir == "" {
		return fail("-checkpoint-every requires -checkpoint-dir")
	}
	if *maxRetries >= 0 && *ckptDir == "" {
		return fail("-max-retries requires -checkpoint-dir (the supervisor rolls back to checkpoints)")
	}

	bal, berr := permcell.BalancerByName(*balancerSpec)
	if berr != nil {
		return fail(berr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A second interrupt during the final flush (checkpoint write, engine
	// teardown, CSV flush) means "stop now": force a non-zero exit instead
	// of making the user wait out a stuck teardown. Even then the buffered
	// CSV/JSONL artifacts are flushed and synced first — a forced exit must
	// not truncate the metrics stream mid-record.
	var flushMu sync.Mutex
	var flushers []*artifact
	registerFlusher := func(a *artifact) {
		flushMu.Lock()
		flushers = append(flushers, a)
		flushMu.Unlock()
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		for i := 0; i < 2; i++ {
			select {
			case <-sigc:
			case <-finished:
				return
			}
		}
		fmt.Fprintln(stderr, "mdrun: second interrupt; forcing exit")
		flushMu.Lock()
		for _, a := range flushers {
			if err := a.Sync(); err != nil {
				fmt.Fprintln(stderr, "mdrun:", err)
			}
		}
		flushMu.Unlock()
		os.Exit(130) // the signal path has no caller to return to
	}()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fail(err)
		}
		defer trace.Stop()
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		a := newArtifact(f)
		defer a.Close()
		registerFlusher(a)
		w = a
	}
	collect := *metricsOut != "" || *promOut != ""
	var jsonl *metrics.JSONLWriter
	if *metricsOut != "" {
		mw := stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return fail(err)
			}
			a := newArtifact(f)
			defer a.Close()
			registerFlusher(a)
			mw = a
		}
		jsonl = metrics.NewJSONLWriter(mw)
	}
	var cum metrics.Cumulative

	header := []string{"step", "work_max", "work_ave", "work_min",
		"wall_max", "wall_ave", "wall_min", "step_wall_max",
		"moved", "moved_bytes", "energy", "temperature", "c0_over_c", "n_factor"}

	// The run header is written lazily at the first row so the recorded
	// balancer is the one the engine actually runs under — on -resume the
	// identity travels in the checkpoint, not the flags.
	writeErr := error(nil)
	headerDone := false
	emitHeader := func(balancer string) {
		if headerDone {
			return
		}
		headerDone = true
		if *resume != "" {
			fmt.Fprintf(w, "# mdrun resume=%s seed=%d balancer=%s\n",
				*resume, *seed, balancer)
		} else {
			fmt.Fprintf(w, "# mdrun m=%d p=%d rho=%g seed=%d dt=%g balancer=%s\n",
				*m, *p, *rho, *seed, *dt, balancer)
		}
		fmt.Fprintln(w, strings.Join(header, ","))
	}
	row := func(st permcell.StepStats) {
		emitHeader(st.Balancer)
		vals := []float64{
			float64(st.Step), st.WorkMax, st.WorkAve, st.WorkMin,
			st.WallMax, st.WallAve, st.WallMin, st.StepWallMax,
			float64(st.Moved), float64(st.MovedBytes), st.TotalEnergy, st.Temperature,
			st.Conc.C0OverC, st.Conc.NFactor,
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%g", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, ",")); err != nil && writeErr == nil {
			writeErr = err
		}
		if collect {
			cum.Add(st.StepWallAve, st.Phases)
			cum.ObserveTransport(st.SentFrames, st.SentBytes)
		}
		if jsonl != nil {
			if err := jsonl.Write(st.Record(*m)); err != nil && writeErr == nil {
				writeErr = err
			}
		}
	}

	wk := *wellK
	if *wells == 0 {
		wk = 0
	}
	opts := []permcell.Option{
		permcell.WithSeed(*seed), permcell.WithDt(*dt),
		permcell.WithWells(*wells, wk),
		permcell.WithOnStep(row), permcell.WithDiscardStats(),
	}
	if bal != nil {
		opts = append(opts, permcell.WithBalancer(bal))
	}
	if collect {
		opts = append(opts, permcell.WithMetrics())
	}
	if *ckptDir != "" {
		opts = append(opts, permcell.WithCheckpoint(*ckptEvery, *ckptDir))
	}
	switch *transportKind {
	case "", permcell.TransportChan:
		// In-process goroutines: the default engine path.
	case permcell.TransportTCP:
		opts = append(opts, permcell.WithTransport(permcell.Transport{
			Kind:   permcell.TransportTCP,
			Procs:  *ranks,
			Worker: resolveWorker(*mdrank),
		}))
	default:
		return fail(fmt.Sprintf("unknown -transport %q (want chan or tcp)", *transportKind))
	}
	if *maxRetries >= 0 {
		opts = append(opts, permcell.WithSupervisor(permcell.SupervisorPolicy{
			MaxRetries: *maxRetries,
			Backoff:    *backoff,
			OnEvent:    func(ev permcell.SupervisorEvent) { fmt.Fprintf(stderr, "mdrun: supervisor: %v\n", ev) },
		}))
	}

	// balSpec, with m and seed, is the identity the header, the
	// f(m, n) bound and the closing summary report: the flags' for a fresh
	// run, the checkpoint's on -resume.
	balSpec := permcell.BalancerSpec(bal)
	var eng permcell.Engine
	var err error
	if *resume != "" {
		// Physics flags are ignored: the run identity travels in the file.
		var meta *checkpoint.Meta
		if meta, err = checkpoint.LoadMeta(*resume); err == nil {
			*m, *seed = meta.M, meta.Seed
			if b, berr := runspec.Balancer(meta); berr == nil {
				balSpec = permcell.BalancerSpec(b)
			}
			eng, err = permcell.Restore(*resume, opts...)
		}
		if err == nil {
			fmt.Fprintf(stderr, "mdrun: resumed from %s\n", *resume)
		}
	} else {
		eng, err = permcell.New(*m, *p, *rho, opts...)
	}
	if err != nil {
		return fail(err)
	}

	res, err := drive(ctx, eng, *steps, *ckptDir != "", stderr)
	// A zero-row run (steps=0, or stats thinned past the horizon) still gets
	// a well-formed CSV header.
	emitHeader(balSpec)
	if rep := permcell.SupervisionReport(eng); rep != nil {
		if len(rep.Events) > 0 {
			fmt.Fprintf(stderr, "mdrun: supervisor: %d rollbacks, %d retries, %d steps replayed (panics=%d guards=%d deadlocks=%d exhausted=%v)\n",
				rep.Rollbacks, rep.Retries, rep.StepsReplayed,
				rep.RankFailures, rep.GuardViolations, rep.Deadlocks, rep.Exhausted)
		}
		if collect {
			cum.Recovery = &metrics.Recovery{}
			cum.Recovery.Add(rep)
		}
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(stderr, "mdrun: interrupted; partial run flushed")
		err = nil
	}
	if err == nil {
		err = writeErr
	}
	// The Prometheus snapshot is written even when the run failed: a
	// degraded supervised run's recovery counters are exactly what the
	// operator wants to scrape afterwards. It is written atomically
	// (tmp+rename, the checkpoint idiom): a concurrent scrape — or a crash
	// mid-write — must never see a torn exposition.
	if *promOut != "" {
		perr := checkpoint.WriteAtomic(*promOut, func(pw io.Writer) error {
			return cum.WritePrometheus(pw)
		})
		if perr != nil {
			fmt.Fprintln(stderr, "mdrun:", perr)
			if err == nil {
				err = perr
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "mdrun: N=%d balancer=%s msgs=%d bytes=%d\n",
		res.Final.Len(), balSpec, res.CommMsgs, res.CommBytes)
	return 0
}

// resolveWorker maps the -mdrank flag to a Transport.Worker path. "auto"
// prefers an mdrank binary installed next to the running mdrun executable
// (the layout `go build -o bin ./cmd/...` produces) and degrades to ""
// — in-process goroutine workers over real sockets — so `go run ./cmd/mdrun
// -transport=tcp` works without a separate build step.
func resolveWorker(spec string) string {
	if spec != "auto" {
		return spec
	}
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	cand := filepath.Join(filepath.Dir(exe), "mdrank")
	if st, err := os.Stat(cand); err == nil && !st.IsDir() {
		return cand
	}
	return ""
}

// drive mirrors permcell.RunEngine, adding one behavior: on cancellation it
// writes a final checkpoint (when checkpointing is configured) before
// finalizing the engine, so an interrupted run can resume from the exact
// step it stopped at rather than the last cadence boundary.
func drive(ctx context.Context, eng permcell.Engine, steps int, ckpt bool, stderr io.Writer) (*permcell.Result, error) {
	for i := 0; i < steps; i++ {
		if ctx.Err() != nil {
			if ckpt {
				if cerr := permcell.CheckpointNow(eng); cerr != nil {
					fmt.Fprintln(stderr, "mdrun: final checkpoint failed:", cerr)
				} else {
					fmt.Fprintln(stderr, "mdrun: final checkpoint written")
				}
			}
			res, rerr := eng.Result()
			if rerr != nil {
				return res, rerr
			}
			return res, ctx.Err()
		}
		if err := eng.Step(1); err != nil {
			res, _ := eng.Result()
			return res, err
		}
	}
	return eng.Result()
}
