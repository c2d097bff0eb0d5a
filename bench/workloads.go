package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"permcell"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json lists
// the same names with the reason each exists.
type workload struct {
	name string
	run  func(*run) error
}

var workloads = []workload{
	{"serial_50k", runSerial50k},
	{"condense_chan", runCondenseChan},
	{"condense_tcp", runCondenseTCP},
	{"resilience", runResilience},
	{"serve_mix", runServeMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// Paper coordinates shared by the workloads. rho is the paper's headline
// density; cells have side r_c = 2.5, so N = rho * (2.5*nc)^3.
const rho = 0.256

func particlesIn(nc int) int {
	l := 2.5 * float64(nc)
	return int(math.Round(rho * l * l * l))
}

// steady is a workload that is one long run of one engine: a warm-up, then
// rounds of set-up trials on fresh engines, checkpoints and restores of the
// long-lived one, and a part of its timed closed loop of Step(1). The first
// prefix steps of the timed window always run, so the counts taken over
// them repeat exactly for a seed whatever the machine's speed; the window
// then goes on until its share of -seconds has passed.
type steady struct {
	nc, p, m int // grid side in cells, PEs, pillar cross-section (0 = serial)
	build    func(seed uint64) builder
	warm     int
	prefix   int
	// energyDrift, when positive, bounds |E_end - E_start| / |E_start| over
	// the prefix (the serial engine is NVE). Taken over the fixed prefix and
	// not the whole window, so that the check does not tighten as the code
	// gets faster and the window holds more steps.
	energyDrift float64
	// chanRef, on the tcp workload, builds the same run on the in-process
	// transport: its trace must hash identical over warm-up and prefix.
	chanRef func(seed uint64) builder
	// ddmRef builds the same run with no balancer, for the traced run's
	// makespan ratio.
	ddmRef func(seed uint64) builder
	// restoreOpts are what Restore needs to bring the run back where it
	// was: the tcp workload restores onto tcp workers.
	restoreOpts []permcell.Option
}

func (s steady) run(r *run) error {
	n := particlesIn(s.nc)
	warm, prefix := r.pick(s.warm, 2), r.pick(s.prefix, 6)
	build := s.build(r.cfg.seed)

	// The run's -seconds are spent in rounds, so that every kind of call is
	// sampled all along the run and a disturbance of the box that lasts a
	// few seconds cannot cover all samples of any: a round is set-up
	// trials, checkpoints and restores of the long-lived engine, then a
	// part of its timed window. Two thirds of the time go to the window.
	rounds := r.pick(4, 1)
	part := func(fifteenths float64) time.Duration { return r.share(fifteenths / 15 / float64(rounds)) }
	windowPart := part(10)
	setup := sampling{part(2), 1}
	ckpt := sampling{part(1), r.pick(2, 1)}
	restore := sampling{part(2), r.pick(2, 1)}

	dir, err := r.dir("ckpt")
	if err != nil {
		return err
	}
	extra := []permcell.Option{permcell.WithCheckpoint(0, dir)}
	if r.cfg.trace {
		extra = append(extra, permcell.WithMetrics())
	}
	root := r.tr.begin("run", 0)
	sp := r.tr.begin("setup", root)
	eng, err := build(extra...)
	r.tr.end(sp, 1)
	if !r.op("constructor", err) {
		return err
	}
	restoreOpts := append(append([]permcell.Option(nil), extra...), s.restoreOpts...)
	err = r.warmUp(eng, root, warm)
	var o ops
	var w window
	for k := 0; k < rounds && err == nil; k++ {
		if err = r.setupTrials(build, setup, &o); err != nil {
			break
		}
		r.checkpointRestore(eng, dir, root, ckpt, restore, warm+len(w.stepMS), n, &o, restoreOpts...)
		// The first prefix steps always run, whatever the box's speed.
		minSteps := 0
		if k == 0 {
			minSteps = prefix
		}
		err = r.timedSteps(eng, root, &w, minSteps, windowPart)
	}
	if err != nil {
		eng.Result()
		return err
	}
	res, err := r.finish(eng, root)
	r.tr.end(root, len(w.stepMS))
	if err != nil {
		return err
	}
	o.report(r)

	r.stepMetrics(w, n)
	r.checkState(res, n)
	if !r.check(len(res.Stats) == warm+len(w.stepMS), "got %d step records, want %d", len(res.Stats), warm+len(w.stepMS)) {
		return nil
	}
	timed := res.Stats[warm:]
	if s.energyDrift > 0 {
		e0, e1 := timed[0].TotalEnergy, timed[prefix-1].TotalEnergy
		drift := math.Abs(e1-e0) / math.Abs(e0)
		fmt.Printf("# energy drift %.3g over %d steps\n", drift, prefix)
		r.check(drift < s.energyDrift, "relative energy drift %.3g over %d steps, want < %g", drift, prefix, s.energyDrift)
	}

	var chanMS []float64
	if s.chanRef != nil {
		cw, cres, err := s.reference(r, "chan-ref", s.chanRef(r.cfg.seed), warm, prefix)
		if err != nil {
			return err
		}
		chanMS = cw.stepMS
		r.check(traceHash(cres.Stats) == traceHash(res.Stats[:warm+prefix]),
			"tcp trace differs from the chan trace over the first %d steps", warm+prefix)
	}
	if !r.cfg.trace {
		return nil
	}

	r.set("balance.efficiency", efficiency(timed[:prefix]), prefix)
	r.layerStats(timed, timed[:prefix], s.m, s.p)
	r.commCounts(res)
	over, err := s.overhead(r, build, warm, prefix)
	if err != nil {
		return err
	}
	r.set("metrics.overhead_frac", over, prefix)
	if s.chanRef != nil {
		r.set("distrib.step_ms_over_chan", ratio(typical(w.stepMS[:prefix]), typical(chanMS)), prefix)
		r.set("distrib.setup_ms", r.metrics["setup_s"]*1e3, r.samples["setup_s"])
	}
	if s.ddmRef != nil {
		_, dres, err := s.reference(r, "ddm-ref", s.ddmRef(r.cfg.seed), warm, prefix)
		if err != nil {
			return err
		}
		var dlb, ddm float64
		for i := 0; i < prefix; i++ {
			dlb += timed[i].WorkMax
			ddm += dres.Stats[warm+i].WorkMax
		}
		r.set("balance.makespan_ratio_vs_ddm", ratio(dlb, ddm), prefix)
	}
	r.directLayers(res.Final, s.nc, typical(w.stepMS), dir)
	return nil
}

// overhead steps two engines of the same physics side by side, one with
// WithMetrics and one without, a step of each in turn, and returns what the
// option adds to a step as a share of the step without it. Taking turns
// keeps the box's slow drifts, which are of the size of the difference, out
// of it.
func (s steady) overhead(r *run, build builder, warm, steps int) (float64, error) {
	root := r.tr.begin("overhead-pair", 0)
	defer r.tr.end(root, 2*steps)
	var engs [2]permcell.Engine // metrics off, metrics on
	defer func() {
		for _, eng := range engs {
			if eng != nil {
				eng.Result()
			}
		}
	}()
	for i, opts := range [][]permcell.Option{nil, {permcell.WithMetrics()}} {
		eng, err := build(opts...)
		if !r.op("overhead constructor", err) {
			return 0, err
		}
		engs[i] = eng
		if err := r.warmUp(eng, root, warm); err != nil {
			return 0, err
		}
	}
	var ms [2][]float64
	for k := 0; k < steps; k++ {
		for j := 0; j < 2; j++ {
			i := (j + k) % 2 // which of the two goes first alternates
			t := time.Now()
			err := engs[i].Step(1)
			d := msSince(t)
			if !r.op("overhead Step", err) {
				return 0, err
			}
			ms[i] = append(ms[i], d)
		}
	}
	off, on := typical(ms[0]), typical(ms[1])
	return ratio(on-off, off), nil
}

// reference steps a comparison engine through exactly warm-up and prefix
// and finishes it.
func (s steady) reference(r *run, name string, build builder, warm, prefix int) (window, *permcell.Result, error) {
	root := r.tr.begin(name, 0)
	defer r.tr.end(root, warm+prefix)
	eng, err := build()
	if !r.op(name+" constructor", err) {
		return window{}, nil, err
	}
	var w window
	if err = r.warmUp(eng, root, warm); err == nil {
		err = r.timedSteps(eng, root, &w, prefix, 0)
	}
	res, rerr := eng.Result()
	if err == nil && !r.op(name+" Result", rerr) {
		err = rerr
	}
	if err == nil && len(res.Stats) != warm+prefix {
		err = fmt.Errorf("%s: %d step records, want %d", name, len(res.Stats), warm+prefix)
	}
	return w, res, err
}

// runSerial50k is the plain single-threaded baseline: NewSerial on the 50k
// kernel preset's geometry (24^3 cells, N = 55 296, ~4 particles per
// cell), one shard. Kernel and integrator do nearly all the work; comm,
// balance, transport and serve do none.
func runSerial50k(r *run) error {
	nc := r.pick(24, 6)
	return steady{
		nc: nc, p: 1,
		build: func(seed uint64) builder {
			return func(opts ...permcell.Option) (permcell.Engine, error) {
				return permcell.NewSerial(nc, rho, append([]permcell.Option{permcell.WithSeed(seed), permcell.WithShards(1)}, opts...)...)
			}
		},
		warm: 20, prefix: 100, energyDrift: 5e-3,
	}.run(r)
}

// Condensation scenario of the paper's Figs. 5-6: m = 3, P = 16 (N = 6 912,
// the paper's smallest PE count), harmonic wells pulling the gas into
// droplets while the permanent-cell balancer moves columns after them.
const (
	condenseM     = 3
	condenseP     = 16
	condenseWells = 12
	condenseWellK = 1.5
)

func condenseBuilder(balanced bool, tr permcell.Transport) func(seed uint64) builder {
	return func(seed uint64) builder {
		return func(opts ...permcell.Option) (permcell.Engine, error) {
			base := []permcell.Option{
				permcell.WithSeed(seed),
				permcell.WithWells(condenseWells, condenseWellK),
				permcell.WithTransport(tr),
			}
			if balanced {
				base = append(base, permcell.WithBalancer(permcell.PermanentCell(permcell.PermanentCellConfig{Hysteresis: 0.1})))
			}
			return permcell.New(condenseM, condenseP, rho, append(base, opts...)...)
		}
	}
}

// runCondenseChan runs the condensation on the in-process transport: 16
// ranks make halo, migration, DLB and collectives most of the step, so
// comm, core and balance carry it, and the kernel sees few crowded cells
// and many empty ones — the opposite of serial_50k's uniform occupancy.
func runCondenseChan(r *run) error {
	return steady{
		nc: condenseM * 4, p: condenseP, m: condenseM,
		build:  condenseBuilder(true, permcell.Transport{}),
		ddmRef: condenseBuilder(false, permcell.Transport{}),
		warm:   50, prefix: 500,
	}.run(r)
}

// runCondenseTCP is the identical physics on the tcp transport: two
// in-process workers on real loopback sockets, heartbeats at their
// defaults. Transport, distrib and the gob codec do most of the step here
// and are bypassed entirely by the two workloads above.
func runCondenseTCP(r *run) error {
	tcp := permcell.Transport{Kind: permcell.TransportTCP, Procs: 2}
	return steady{
		nc: condenseM * 4, p: condenseP, m: condenseM,
		build:       condenseBuilder(true, tcp),
		chanRef:     condenseBuilder(true, permcell.Transport{}),
		ddmRef:      condenseBuilder(false, permcell.Transport{}),
		restoreOpts: []permcell.Option{permcell.WithTransport(tcp)},
		warm:        50, prefix: 250,
	}.run(r)
}

// Resilience scenario: m = 8, P = 4 (N = 16 384, a checkpoint of about
// 1 MB) under the supervisor, checkpointing every resCadence steps, with
// one rank panic per episode resSabotageAfter steps past a cadence
// boundary — so each heal is detection, rollback and that many replayed
// steps.
const (
	resM            = 8
	resP            = 4
	resCadence      = 50
	resSteps        = 160
	resSabotageStep = 125
)

// runResilience runs supervised episodes until the window is used up. An
// episode is a constructor, resSteps calls of Step(1) across cadence
// checkpoints and one injected rank panic, then explicit checkpoints,
// Result and restores. Checkpoint (write and read), supervise and the
// facade wrappers do work here and nowhere else.
func runResilience(r *run) error {
	n := particlesIn(resM * 2)
	steps := r.pick(resSteps, 30)
	cadence := r.pick(resCadence, 10)
	sabStep := r.pick(resSabotageStep, 25)
	replay := sabStep % cadence

	// fresh constructs the supervised engine with opts appended to what
	// every engine of the workload has.
	fresh := func(opts ...permcell.Option) (permcell.Engine, error) {
		return permcell.New(resM, resP, rho, append([]permcell.Option{
			permcell.WithSeed(r.cfg.seed),
			permcell.WithSupervisor(permcell.SupervisorPolicy{MaxRetries: 3, Backoff: time.Millisecond,
				// The default energy-drift ceiling trips on this system at
				// step 100 although nothing is wrong (the thermostatted gas
				// legitimately sheds that much energy); finiteness and
				// particle conservation stay guarded.
				Guard: permcell.GuardConfig{MaxEnergyDrift: -1}}),
		}, opts...)...)
	}
	build := func(dir string, sab *permcell.Sabotage, metricsOn bool) (permcell.Engine, error) {
		opts := []permcell.Option{permcell.WithCheckpoint(cadence, dir)}
		if sab != nil {
			opts = append(opts, permcell.WithSabotage(sab))
		}
		if metricsOn {
			opts = append(opts, permcell.WithMetrics())
		}
		return fresh(opts...)
	}

	var o ops
	var plain, cadenceMS, recovery, episodeS []float64
	var onMS, offMS []float64 // traced run: plain steps of metrics-on and metrics-off episodes
	var first, last *permcell.Result
	var lastDir string
	var failures, retries, replayed int
	var allocs, allocBytes uint64
	var m0, m1 runtime.MemStats
	totalSteps := 0
	// At least two episodes, so that the traced run has one with metrics on
	// and one with them off; under -quick exactly two.
	sample := sampling{r.share(1), 2}
	for ep, start := 0, time.Now(); sample.more(ep, start); ep++ {
		dir, err := r.dir("episode")
		if err != nil {
			return err
		}
		// The rank that panics is drawn from the seed and the episode.
		sab := &permcell.Sabotage{Kind: permcell.SabotagePanic, Step: sabStep,
			Rank: int((r.cfg.seed*2654435761 + uint64(ep)*40503) % resP)}
		// The traced run alternates metrics on and off between episodes,
		// which is how it measures what WithMetrics costs here.
		metricsOn := r.cfg.trace && ep%2 == 0

		// An episode has one constructor call and one first step; a few
		// set-up trials beside it give setup_s and ttfs_ms samples enough.
		if err := r.setupTrials(fresh, sampling{min: r.pick(3, 1)}, &o); err != nil {
			return err
		}

		runtime.GC() // before the timed part of every episode, outside it
		root := r.tr.begin("episode", 0)
		t0 := time.Now()
		sp := r.tr.begin("setup", root)
		eng, err := build(dir, sab, metricsOn)
		r.tr.end(sp, 1)
		if !r.op("constructor", err) {
			return err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		for i := 1; i <= steps; i++ {
			sp := r.tr.begin("step", root)
			s := time.Now()
			err := eng.Step(1)
			d := msSince(s)
			r.tr.end(sp, 1)
			if !r.op("Step", err) {
				eng.Result()
				return fmt.Errorf("episode %d step %d: %w", ep, i, err)
			}
			switch {
			case i == 1:
				o.ttfs = append(o.ttfs, msSince(t0))
			case i == sabStep:
				recovery = append(recovery, d)
			case i%cadence == 0:
				cadenceMS = append(cadenceMS, d)
			default:
				plain = append(plain, d)
				if metricsOn {
					onMS = append(onMS, d)
				} else {
					offMS = append(offMS, d)
				}
			}
		}
		episodeS = append(episodeS, time.Since(t1).Seconds()/float64(steps))
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		totalSteps += steps

		rep := permcell.SupervisionReport(eng)
		r.check(rep != nil && rep.RankFailures == 1 && rep.Rollbacks == 1 && !rep.Exhausted,
			"episode %d: supervisor report %+v, want one rank failure healed by one rollback", ep, rep)
		if rep != nil {
			failures += rep.RankFailures
			retries += rep.Retries
			replayed += rep.StepsReplayed
		}

		r.checkpointRestore(eng, dir, root, sampling{min: r.pick(10, 2)}, sampling{min: r.pick(5, 1)}, steps, n, &o)
		res, err := r.finish(eng, root)
		r.tr.end(root, steps)
		if err != nil {
			return err
		}
		r.checkState(res, n)
		r.check(len(res.Stats) == steps, "episode %d: %d step records, want %d", ep, len(res.Stats), steps)
		if ep == 0 {
			first = res
		}
		last, lastDir = res, dir
	}
	// The healed trace must be the trace of a run that was never sabotaged.
	refDir, err := r.dir("reference")
	if err != nil {
		return err
	}
	ref, err := build(refDir, nil, false)
	if !r.op("reference constructor", err) {
		return err
	}
	err = ref.Step(steps)
	r.op("reference Step", err)
	refRes, err := ref.Result()
	if r.op("reference Result", err) && refRes != nil {
		r.check(traceHash(refRes.Stats) == traceHash(first.Stats),
			"episode 0's healed trace differs from the unsabotaged run's")
	}

	episodes := len(episodeS)
	o.report(r)
	// An episode is this workload's slice (see sliceLen): its wall per step
	// holds the cadence checkpoints and the heal.
	r.set("particle_steps_per_s", ratio(float64(n), typical(episodeS)), episodes)
	r.setTiming("step_ms", plain)
	if !r.cfg.trace {
		return nil
	}

	r.setMedian("facade.step_ms_p50", plain)
	r.set("facade.step_ms_p99", quantile(plain, 0.99), len(plain))
	r.set("facade.step_ms_max", maxOf(plain), len(plain))
	r.set("facade.allocs_per_step", ratio(float64(allocs), float64(totalSteps)), totalSteps)
	r.set("facade.alloc_bytes_per_step", ratio(float64(allocBytes), float64(totalSteps)), totalSteps)
	r.set("balance.efficiency", efficiency(first.Stats), len(first.Stats))
	// Episode 0 ran with metrics on; its phase breakdown stands for all.
	r.layerStats(first.Stats, first.Stats, 0, resP)
	r.commCounts(last)
	r.setMedian("checkpoint.cadence_step_ms", cadenceMS)
	r.setMedian("supervise.recovery_ms_p50", recovery)
	// What is left of the heal once the steps it re-executes (the replay up
	// to the failed step, and that step again) are paid for: detection,
	// backoff, loading and vetting the checkpoint, rebuilding the engine.
	r.set("supervise.rollback_ms", typical(recovery)-float64(replay)*typical(plain), len(recovery))
	r.set("supervise.replayed_steps", ratio(float64(replayed), float64(episodes)), episodes)
	r.set("supervise.failures", ratio(float64(failures), float64(episodes)), episodes)
	r.set("supervise.retries", ratio(float64(retries), float64(episodes)), episodes)
	r.set("metrics.overhead_frac", ratio(typical(onMS)-typical(offMS), typical(offMS)), len(onMS))
	r.directLayers(last.Final, resM*2, typical(plain), lastDir)
	return nil
}
