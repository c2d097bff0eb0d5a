// Command bench is the repository's end-to-end and per-layer benchmark: the
// numbers every later change is judged by. See bench/README.md for the
// workloads, the metrics and how to compare two commits.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload, one run
//	bench [-traced] [-repeat K] [-out file.json]      every workload, each in a child process
//	bench -compare a.json b.json                      judge b against a with BENCHMARK.json's bounds
//
// The first form is what BENCHMARK.json's command runs (through
// bench/run.sh, which builds this program inside the checkout). Its last
// line of standard output is one JSON object: correct, attempted, failed
// and the metrics — the end-to-end ones with -trace 0, the per-layer ones
// with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// benchProcs pins the scheduler: the reference box has two shared cores,
// and no workload drives more than two client goroutines or TCP links, so
// the run measures the program and not the scheduler.
const benchProcs = 2

// config is one run's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed window
	trace    bool    // WithMetrics on, bench-side spans and per-layer metrics
	quick    bool    // smoke-test sizes: a few steps of everything, no meaningful timing
	tmpRoot  string  // parent of the run's scratch directory
	traceOut string  // where the traced run writes its spans
}

// value is one reported metric in the driver's shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag, repeat int
	var traced, compare bool
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "feeds every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "with -workload: 1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes (no meaningful timing)")
	flag.StringVar(&cfg.tmpRoot, "tmp", ".bench_build/tmp", "parent of the run's scratch directory")
	flag.StringVar(&cfg.traceOut, "tracefile", "", "span output of a traced run (default bench/out/trace_<workload>.json)")
	flag.BoolVar(&traced, "traced", false, "without -workload: also run every workload traced")
	flag.IntVar(&repeat, "repeat", 1, "without -workload: runs per workload, on seeds seed..seed+repeat-1")
	flag.StringVar(&out, "out", "", "without -workload: write all results as JSON")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	flag.Parse()

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case cfg.workload == "":
		ok, err := runAll(cfg, traced, repeat, out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		cfg.trace = traceFlag != 0
		res, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct || res.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its header and every
// metric by name; the caller prints the result line.
func runOne(cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
	}
	if cfg.quick {
		cfg.seconds = 0 // every loop runs its minimum count only
	}
	runtime.GOMAXPROCS(benchProcs)
	if err := os.MkdirAll(cfg.tmpRoot, 0o777); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmpRoot, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if cfg.traceOut == "" {
		cfg.traceOut = "bench/out/trace_" + cfg.workload + ".json"
	}

	fmt.Printf("# bench workload=%s seed=%d seconds=%g trace=%t quick=%t nproc=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.quick, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	start := time.Now()
	r := newRun(cfg, tmp)
	if err := w.run(r); err != nil {
		// A workload returns an error only when it could not go on; what it
		// measured so far is not a result.
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		r.processMetrics()
		if err := r.tr.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, have := r.metrics[d.Name]
		if !cfg.trace && (!have || v == 0 || !finite(v)) {
			// An end-to-end metric is never 0: a missing one is a bench bug
			// or a workload that did not get far enough to measure it.
			r.problem("end-to-end metric %s not measured (value %v)", d.Name, v)
			res.Correct = false
		}
		if !finite(v) {
			v = 0
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Printf("metric %-40s %16.6g %-6s n=%d\n", d.Name, v, d.Unit, r.samples[d.Name])
	}
	for _, p := range r.problems {
		fmt.Println("PROBLEM:", p)
	}
	fmt.Printf("# failed_frac=%g (%d of %d operations) wall_s=%.3f\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted, time.Since(start).Seconds())
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res, nil
}
