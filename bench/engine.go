package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"permcell"
)

// builder constructs a workload's engine; extra options (checkpoint
// directory, metrics) are appended to the workload's own.
type builder func(opts ...permcell.Option) (permcell.Engine, error)

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// ops collects the per-call times of a run's lifecycle operations: set-up
// in seconds, the rest in milliseconds.
type ops struct {
	setup, ttfs, ckpt, restore []float64
}

// report sets the four lifecycle metrics from the samples collected.
func (o *ops) report(r *run) {
	r.setTiming("setup_s", o.setup)
	r.setTiming("ttfs_ms", o.ttfs)
	r.setTiming("checkpoint_ms", o.ckpt)
	r.setTiming("restore_ms", o.restore)
}

// share returns the part of the run's -seconds given to one measured
// section; the sections of a workload add up to the whole. Under -quick it
// is 0 and every loop makes its minimum number of calls only.
func (r *run) share(frac float64) time.Duration {
	return time.Duration(frac * r.cfg.seconds * float64(time.Second))
}

// sampling says how long one kind of call is sampled for, and how many
// calls are made at least.
type sampling struct {
	budget time.Duration
	min    int
}

// more reports whether call i (from 0) of a batch begun at start is due.
func (s sampling) more(i int, start time.Time) bool {
	return i < s.min || time.Since(start) < s.budget
}

// setupTrials constructs the engine again and again, as a user starting a
// run would, timing the constructor (setup_s) and the span from the
// constructor call to the end of the first Step (ttfs_ms). Each trial's
// engine is finished before the next starts.
func (r *run) setupTrials(build builder, trials sampling, o *ops) error {
	for i, start := 0, time.Now(); trials.more(i, start); i++ {
		dir, err := r.dir("setup")
		if err != nil {
			return err
		}
		root := r.tr.begin("setup-trial", 0)
		t0 := time.Now()
		sp := r.tr.begin("setup", root)
		eng, err := build(permcell.WithCheckpoint(0, dir))
		r.tr.end(sp, 1)
		if !r.op("constructor", err) {
			return fmt.Errorf("constructor: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		sp = r.tr.begin("step", root)
		err = eng.Step(1)
		r.tr.end(sp, 1)
		if r.op("first Step", err) {
			o.ttfs = append(o.ttfs, msSince(t0))
		}
		sp = r.tr.begin("result", root)
		_, err = eng.Result()
		r.tr.end(sp, 1)
		r.op("Result", err)
		r.tr.end(root, 1)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// sliceLen is the stretch of a timed window over which throughput is taken.
// particle_steps_per_s is N over the typical seconds per step of the
// window's slices (see endToEnd): a burst of disturbance spoils the slices
// it covers and not the whole window's rate, while a slice still holds
// everything a step costs when it is sustained — its slow calls, the
// collector, the loop around it.
const sliceLen = 250 * time.Millisecond

// window is the timed closed loop of Step(1) calls, which may be run in
// several parts.
type window struct {
	stepMS []float64 // per-call wall, in call order
	sliceS []float64 // wall seconds per step of each slice
	allocs uint64    // heap objects allocated inside the window
	bytes  uint64
}

// warmUp advances the engine by warm untimed steps.
func (r *run) warmUp(eng permcell.Engine, root, warm int) error {
	sp := r.tr.begin("warmup", root)
	err := eng.Step(warm)
	r.tr.end(sp, warm)
	if !r.op("warm-up Step", err) {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// timedSteps forces one GC, then calls Step(1) in a closed loop — the next
// call only after the previous one returned, exactly as mdrun and RunEngine
// drive an engine — until both minSteps calls were made and limit has
// passed, and adds what it measured to w. A failed Step ends the loop.
func (r *run) timedSteps(eng permcell.Engine, root int, w *window, minSteps int, limit time.Duration) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sliceStart, sliceSteps := t0, 0
	endSlice := func(now time.Time) {
		w.sliceS = append(w.sliceS, now.Sub(sliceStart).Seconds()/float64(sliceSteps))
		sliceStart, sliceSteps = now, 0
	}
	for n := 0; n < minSteps || time.Since(t0) < limit; n++ {
		sp := r.tr.begin("step", root)
		s := time.Now()
		err := eng.Step(1)
		d := msSince(s)
		r.tr.end(sp, 1)
		if !r.op("Step", err) {
			return fmt.Errorf("step %d of the timed window: %w", len(w.stepMS)+1, err)
		}
		w.stepMS = append(w.stepMS, d)
		sliceSteps++
		if now := time.Now(); now.Sub(sliceStart) >= sliceLen {
			endSlice(now)
		}
	}
	// What is left is a slice if it is half as long as one, or all there is.
	if now := time.Now(); sliceSteps > 0 && (now.Sub(sliceStart) >= sliceLen/2 || len(w.sliceS) == 0) {
		endSlice(now)
	}
	runtime.ReadMemStats(&m1)
	w.allocs += m1.Mallocs - m0.Mallocs
	w.bytes += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// checkpointRestore times what a long-lived run does besides stepping:
// immediate checkpoints of eng, which has completed `at` steps and stays
// usable, then restores of the last one, each followed by one Step and a
// Result so that a restore which returns an engine that cannot go on is
// caught.
func (r *run) checkpointRestore(eng permcell.Engine, dir string, root int, ckpt, restore sampling, at, wantN int, o *ops, opts ...permcell.Option) {
	for i, start := 0, time.Now(); ckpt.more(i, start); i++ {
		sp := r.tr.begin("checkpoint", root)
		t := time.Now()
		err := permcell.CheckpointNow(eng)
		d := msSince(t)
		r.tr.end(sp, 1)
		if r.op("CheckpointNow", err) {
			o.ckpt = append(o.ckpt, d)
		}
	}
	for i, start := 0, time.Now(); restore.more(i, start); i++ {
		sp := r.tr.begin("restore", root)
		t := time.Now()
		re, err := permcell.Restore(dir, opts...)
		d := msSince(t)
		r.tr.end(sp, 1)
		if !r.op("Restore", err) {
			continue
		}
		o.restore = append(o.restore, d)
		sp = r.tr.begin("step", root)
		err = re.Step(1)
		r.tr.end(sp, 1)
		r.op("Step after Restore", err)
		rr, err := re.Result()
		if r.op("Result after Restore", err) && rr != nil {
			r.check(len(rr.Stats) == 1 && rr.Stats[0].Step == at+1,
				"restored engine did not continue at step %d", at+1)
			r.check(rr.Final != nil && rr.Final.Len() == wantN,
				"restored run lost particles: want %d", wantN)
		}
	}
}

// finish ends the run and times its Result call.
func (r *run) finish(eng permcell.Engine, root int) (*permcell.Result, error) {
	sp := r.tr.begin("result", root)
	t := time.Now()
	res, err := eng.Result()
	r.set("facade.result_ms", msSince(t), 1)
	r.tr.end(sp, 1)
	if !r.op("Result", err) || res == nil {
		return nil, fmt.Errorf("result: %v", err)
	}
	return res, nil
}

// checkState verifies what every workload must preserve: the particle
// count, and finite positions, velocities and observables.
func (r *run) checkState(res *permcell.Result, wantN int) {
	if res == nil || res.Final == nil {
		r.check(false, "no final state")
		return
	}
	r.check(res.Final.Len() == wantN, "particle count %d, want %d", res.Final.Len(), wantN)
	ok := true
	for i := range res.Final.Pos {
		if !res.Final.Pos[i].IsFinite() || !res.Final.Vel[i].IsFinite() {
			ok = false
			break
		}
	}
	for i := range res.Stats {
		s := &res.Stats[i]
		if !finite(s.TotalEnergy, s.Temperature, s.WorkMax, s.WorkAve) {
			ok = false
			break
		}
	}
	r.check(ok, "non-finite state or observables")
}

// efficiency is the paper's Fave/Fmax averaged over steps, on the
// deterministic work count.
func efficiency(stats []permcell.StepStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var s float64
	for i := range stats {
		s += stats[i].Efficiency()
	}
	return s / float64(len(stats))
}

// stepMetrics reports the window's throughput and per-call latency.
func (r *run) stepMetrics(w window, particles int) {
	n := len(w.stepMS)
	r.set("particle_steps_per_s", ratio(float64(particles), typical(w.sliceS)), len(w.sliceS))
	r.setTiming("step_ms", w.stepMS)
	r.setMedian("facade.step_ms_p50", w.stepMS)
	r.set("facade.step_ms_p99", quantile(w.stepMS, 0.99), n)
	r.set("facade.step_ms_max", maxOf(w.stepMS), n)
	r.set("facade.allocs_per_step", ratio(float64(w.allocs), float64(n)), n)
	r.set("facade.alloc_bytes_per_step", ratio(float64(w.bytes), float64(n)), n)
}
