package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// header records where and how a set of runs was made, so the total time
// and the box can be checked from the output alone.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
	TotalWallS float64 `json:"total_wall_s"`
}

// entry is one child run.
type entry struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	result
}

// report is the -out file: what -compare reads.
type report struct {
	Header  header  `json:"header"`
	Entries []entry `json:"entries"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload, each run in a child process of its own so
// that memory peaks and GC state do not carry from one workload to the
// next, and prints every metric by name. It reports whether every run was
// correct and failure-free.
func runAll(cfg config, traced bool, repeat int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	rep := report{Header: header{NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs, Go: runtime.Version(),
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Repeat: repeat}}
	fmt.Printf("# bench all: nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%g repeat=%d traced=%t\n",
		rep.Header.NProc, benchProcs, rep.Header.Go, rep.Header.Commit, cfg.seed, cfg.seconds, repeat, traced)
	start := time.Now()
	ok := true
	traces := []int{0}
	if traced {
		traces = []int{0, 1}
	}
	for _, w := range workloads {
		for k := 0; k < repeat; k++ {
			for _, tr := range traces {
				seed := cfg.seed + uint64(k)
				args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr), "-tmp", cfg.tmpRoot}
				if cfg.quick {
					args = append(args, "-quick")
				}
				t := time.Now()
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				os.Stdout.Write(stdout)
				if err != nil {
					ok = false
					fmt.Printf("# %s seed=%d trace=%d: %v\n", w.name, seed, tr, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				e := entry{Workload: w.name, Seed: seed, Trace: tr, WallS: time.Since(t).Seconds()}
				if jerr := json.Unmarshal(lines[len(lines)-1], &e.result); jerr != nil {
					ok = false
					fmt.Printf("# %s seed=%d trace=%d: no result line\n", w.name, seed, tr)
					continue
				}
				rep.Entries = append(rep.Entries, e)
			}
		}
	}
	if traced {
		printOverhead(os.Stdout, rep.Entries)
	}
	rep.Header.TotalWallS = time.Since(start).Seconds()
	fmt.Printf("# total_wall_s=%.1f\n", rep.Header.TotalWallS)
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, b, 0o666); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// printOverhead reports, per workload, what the traced run reported as the
// cost of WithMetrics on identical steps.
func printOverhead(w io.Writer, entries []entry) {
	for _, wl := range workloads {
		var xs []float64
		for _, e := range entries {
			if e.Workload == wl.name && e.Trace == 1 {
				xs = append(xs, e.Metrics["metrics.overhead_frac"].Value)
			}
		}
		fmt.Fprintf(w, "# tracing overhead %-14s metrics.overhead_frac median %+.4f over %d traced runs\n", wl.name, median(xs), len(xs))
	}
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// sample collects one metric's untraced values on one workload.
func (rep *report) sample(workload, metric string) []float64 {
	var xs []float64
	for _, e := range rep.Entries {
		if e.Workload == workload && e.Trace == 0 {
			if v, ok := e.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}

// compareFiles judges b against a: one row per workload and end-to-end
// metric, with both medians, the ratio b/a, and a verdict against the
// metric's bound. A pairing whose run-to-run spread is wider than the bound
// is unresolved, not unchanged. It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s commit=%s seed=%d repeat=%d\nb: %s commit=%s seed=%d repeat=%d\n",
		pathA, a.Header.Commit, a.Header.Seed, a.Header.Repeat, pathB, b.Header.Commit, b.Header.Seed, b.Header.Repeat)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "spread", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.sample(wl.name, d.Name), b.sample(wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-22s missing on one side\n", wl.name, d.Name)
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %9.4f %7.1f%% %6.0f%%  %s\n",
				wl.name, d.Name, ma, mb, ratio(mb, ma), 100*sp, 100*d.Bound, verdict)
		}
	}
	return regressed, nil
}
