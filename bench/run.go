package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them (see README.md for what each
// means on each workload).
//
// Every timing is reported as the mean of the faster half of its samples.
// The reference box shares its cores: disturbance comes in bursts that last
// from a step to many seconds and is one-sided (it only ever slows a call
// down), so the faster half is what a call costs on a box left alone, and
// it repeats where the median of the same samples swings by a fifth;
// averaging that half keeps out the sampling error a single low percentile
// has when a run affords only a dozen samples. Throughput is taken the same
// way, over the slices of a timed window (see sliceLen). Medians and tails are
// reported per layer (facade.step_ms_p50, _p99, _max). The bounds are as
// wide as the driver allows because ten runs of the same code on ten seeds
// spread by up to a tenth on this box (README.md has the numbers).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ttfs_ms", "ms", "lower", 0.25},
	{"particle_steps_per_s", "1/s", "higher", 0.25},
	{"step_ms", "ms", "lower", 0.25},
	{"checkpoint_ms", "ms", "lower", 0.25},
	{"restore_ms", "ms", "lower", 0.25},
}

// phaseNames is the engines' phase taxonomy in metrics.Phase order.
var phaseNames = [...]string{"dlb_decide", "dlb_transfer", "integrate", "migrate", "halo", "force", "collective"}

// perLayer is reported by the traced run. A layer a workload bypasses
// reports 0 for its metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "kernel.ns_per_pair")
	add("count", "lower", "kernel.pairs_per_step")
	add("ms", "lower", "kernel.bin_ms", "kernel.compute_ms")
	add("ratio", "lower", "kernel.step_share", "integrator.step_share")
	for _, ph := range phaseNames {
		add("ratio", "lower", "core.phase_share."+ph)
	}
	for _, ph := range phaseNames {
		add("ms", "lower", "core.phase_ms_max."+ph)
	}
	add("ratio", "lower", "core.phase_sum_over_wall", "core.step_wall_max_over_ave")
	add("count", "lower", "comm.msgs_per_step", "comm.bytes_per_step")
	add("us", "lower", "comm.allreduce_us", "comm.neighbor_exchange_us")
	add("ratio", "higher", "balance.efficiency")
	add("count", "lower", "balance.moved_cols", "balance.moved_bytes")
	add("ratio", "lower", "balance.decide_share", "balance.transfer_share")
	add("count", "lower", "balance.virtual_makespan_mpairs")
	add("ratio", "lower", "balance.makespan_ratio_vs_ddm")
	add("count", "higher", "balance.boundary_step")
	add("ratio", "higher", "balance.work_wall_corr")
	add("count", "lower", "transport.frames_per_step", "transport.bytes_per_step")
	add("us", "lower", "transport.encode_us_per_frame", "transport.decode_us_per_frame")
	add("count", "lower", "transport.bytes_per_particle")
	add("us", "lower", "transport.peer_roundtrip_us")
	add("ratio", "lower", "distrib.step_ms_over_chan")
	add("ms", "lower", "distrib.setup_ms")
	add("count", "lower", "checkpoint.bytes")
	add("MB/s", "higher", "checkpoint.encode_mb_s", "checkpoint.decode_mb_s", "checkpoint.checkfinite_mb_s")
	add("ms", "lower", "checkpoint.cadence_step_ms")
	add("ms", "lower", "supervise.recovery_ms_p50", "supervise.rollback_ms")
	add("count", "lower", "supervise.replayed_steps", "supervise.failures", "supervise.retries")
	add("1/s", "higher", "serve.runs_per_s")
	add("ms", "lower", "serve.run_latency_ms_p50", "serve.submit_ms_p50", "serve.stream_lag_ms_p50",
		"serve.pause_resume_ms_p50", "serve.solo_run_ms_p50")
	add("ms", "lower", "facade.step_ms_p50", "facade.step_ms_p99", "facade.step_ms_max")
	add("count", "lower", "facade.allocs_per_step", "facade.alloc_bytes_per_step")
	add("ms", "lower", "facade.result_ms")
	add("ratio", "lower", "metrics.overhead_frac")
	add("MB", "lower", "process.peak_rss_mb")
	add("ms", "lower", "process.gc_pause_ms_total")
	return defs
}

// run accumulates one workload run: the metrics by name, how many samples
// stand behind each, the operations attempted and failed, and the checks
// that did not hold. The serve clients report concurrently.
type run struct {
	cfg config
	tmp string
	tr  *tracer

	mu        sync.Mutex
	metrics   map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
}

func newRun(cfg config, tmp string) *run {
	return &run{cfg: cfg, tmp: tmp, tr: newTracer(cfg.trace),
		metrics: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric backed by n samples.
func (r *run) set(name string, v float64, n int) {
	r.mu.Lock()
	r.metrics[name] = v
	r.samples[name] = n
	r.mu.Unlock()
}

// setMedian records the median of xs.
func (r *run) setMedian(name string, xs []float64) { r.set(name, median(xs), len(xs)) }

// setTiming records the typical value of the call times xs (see endToEnd).
func (r *run) setTiming(name string, xs []float64) { r.set(name, typical(xs), len(xs)) }

// op counts one attempted operation (a Step, CheckpointNow, Restore,
// constructor or HTTP call) and reports whether it succeeded.
func (r *run) op(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// check counts one output verification; a check that does not hold is a
// failed operation and makes the run incorrect.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// problem marks the run incorrect without counting an operation.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// pick returns full, or small under -quick.
func (r *run) pick(full, small int) int {
	if r.cfg.quick {
		return small
	}
	return full
}

// dir makes a scratch subdirectory of the run.
func (r *run) dir(name string) (string, error) {
	d, err := os.MkdirTemp(r.tmp, name+"-")
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return d, nil
}

// processMetrics reports the process's memory high-water mark and its
// total GC pause. Each workload runs in a process of its own, so the peak
// belongs to that workload alone.
func (r *run) processMetrics() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("process.gc_pause_ms_total", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					r.set("process.peak_rss_mb", kb/1024, 1)
				}
			}
		}
	}
}
