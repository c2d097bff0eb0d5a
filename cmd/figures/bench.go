package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"permcell/internal/experiments"
	"permcell/internal/kernel"
	"permcell/internal/potential"
	"permcell/internal/workload"
)

// benchSchemaNote is embedded in every report so a committed
// BENCH_kernel.json explains itself.
const benchSchemaNote = "schema 2: one op = re-bin every particle + the complete force pass. " +
	"Each preset (internal/workload.KernelPresets) times the flat half-stencil " +
	"kernel ('flat') at shard counts 1, 2 and 8, so shard scaling is compared on " +
	"identical systems. " +
	"Shard counts above GOMAXPROCS cannot win wall-clock; judge shard scaling only " +
	"where gomaxprocs allows it (the CI gate skips the scaling assertion otherwise). " +
	"The balancers section records each load balancer's migration traffic (columns " +
	"and bytes moved) on the tiny condensation workload; the counters derive from " +
	"the deterministic work metric, so the baseline gate matches them exactly."

// kernelBenchResult is one timed kernel configuration.
type kernelBenchResult struct {
	Name        string  `json:"name"`
	Kernel      string  `json:"kernel,omitempty"` // "flat" ("map" in baselines that still timed the map kernel)
	Shards      int     `json:"shards"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// kernelBenchPreset is one benchmark geometry with all its results.
type kernelBenchPreset struct {
	Name    string              `json:"name"`
	N       int                 `json:"n_particles"`
	Grid    string              `json:"grid"`
	Rho     float64             `json:"rho"`
	Results []kernelBenchResult `json:"results"`
}

// balancerBenchResult is one balancer's migration traffic over the tiny
// condensation workload. The counters derive from the deterministic work
// metric, so repeated runs reproduce them bit for bit — the regression gate
// compares them exactly, catching any silent change in balancing behavior.
type balancerBenchResult struct {
	Name       string `json:"name"`
	Steps      int    `json:"steps"`
	Moved      int    `json:"moved"`
	MovedBytes int64  `json:"moved_bytes"`
	// MeanLoadRatio is informational (logged, not gated).
	MeanLoadRatio float64 `json:"mean_load_ratio"`
}

// kernelBenchReport is the BENCH_kernel.json schema, version 2. The
// legacy v1 fields stay as read-only compatibility: a v1 file is a
// single tiny-preset report with Results at the top level, which
// benchKeys maps into the v2 key space so old baselines keep gating.
type kernelBenchReport struct {
	Schema     int                 `json:"schema,omitempty"`
	Benchmark  string              `json:"benchmark"`
	Note       string              `json:"note,omitempty"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu,omitempty"`
	Presets    []kernelBenchPreset `json:"presets,omitempty"`
	// Balancers is the per-balancer migration-traffic section (absent in
	// pre-balancer baselines; the gate then skips it with a note).
	Balancers []balancerBenchResult `json:"balancers,omitempty"`

	// v1 compatibility (decode only).
	N       int                 `json:"n_particles,omitempty"`
	Grid    string              `json:"grid,omitempty"`
	Rho     float64             `json:"rho,omitempty"`
	Results []kernelBenchResult `json:"results,omitempty"`
}

// benchOne times step as a benchmark after warming it up, so one-time
// costs (buffer growth, worker-pool start) land outside the measured
// window and the steady state reports its true zero allocations.
func benchOne(step func()) testing.BenchmarkResult {
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

// runBenchJSON times the requested presets (comma-separated names, or
// "all"/"" for the full matrix) and writes the v2 report as JSON.
func runBenchJSON(path, presets string) (*kernelBenchReport, error) {
	var selected []workload.KernelPreset
	if presets == "" || presets == "all" {
		selected = workload.KernelPresets()
	} else {
		for _, name := range strings.Split(presets, ",") {
			pr, err := workload.KernelPresetByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			selected = append(selected, pr)
		}
	}

	rep := kernelBenchReport{
		Schema:     2,
		Benchmark:  "kernel-step",
		Note:       benchSchemaNote,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	lj := potential.NewPaperLJ()
	for _, pr := range selected {
		sys, g, err := pr.Build()
		if err != nil {
			return nil, err
		}
		rp := kernelBenchPreset{
			Name: pr.Name,
			N:    sys.Set.Len(),
			Grid: fmt.Sprintf("%dx%dx%d", g.Nx, g.Ny, g.Nz),
			Rho:  pr.Rho,
		}
		cells := make([]int, g.NumCells())
		for c := range cells {
			cells[c] = c
		}

		for _, shards := range []int{1, 2, 8} {
			cl := kernel.NewCellLists(g, shards)
			cl.SetHosted(cells)
			cl.SealGhosts()
			r := benchOne(func() {
				if bad := cl.Bin(sys.Set.Pos); bad >= 0 {
					panic("bench: bin failed")
				}
				sys.Set.ZeroForces()
				cl.Compute(lj, sys.Set)
			})
			cl.Close()
			rp.Results = append(rp.Results, kernelBenchResult{
				Name:   fmt.Sprintf("flat/shards=%d", shards),
				Kernel: "flat", Shards: shards,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			})
		}
		rep.Presets = append(rep.Presets, rp)
	}

	// Migration-traffic section: one tiny condensation run per balancer,
	// deterministic counters (seconds of wall time total).
	cmp, err := experiments.Balancers(experiments.Tiny(), 0, 1)
	if err != nil {
		return nil, err
	}
	for _, tr := range cmp.Traces {
		rep.Balancers = append(rep.Balancers, balancerBenchResult{
			Name:          tr.Name,
			Steps:         cmp.Epochs,
			Moved:         tr.TotalMoved,
			MovedBytes:    tr.TotalMovedBytes,
			MeanLoadRatio: tr.MeanLoadRatio,
		})
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return &rep, err
	}
	return &rep, os.WriteFile(path, data, 0o644)
}

// benchKeys flattens a report (v1 or v2) into preset/kernel keys so the
// regression gate compares like with like across the schema change. A v1
// report is a tiny-preset measurement of the flat kernel whose results
// are named "KernelFlat/shards=N".
func benchKeys(rep *kernelBenchReport) map[string]kernelBenchResult {
	out := make(map[string]kernelBenchResult)
	for _, pr := range rep.Presets {
		for _, r := range pr.Results {
			out[pr.Name+"/"+r.Name] = r
		}
	}
	if len(rep.Presets) == 0 {
		for _, r := range rep.Results {
			name := r.Name
			if strings.HasPrefix(name, "KernelFlat/") {
				name = "flat/" + strings.TrimPrefix(name, "KernelFlat/")
			}
			out["tiny/"+name] = r
		}
	}
	return out
}

// compareBench checks the fresh report against a committed baseline: any
// configuration present in both whose ns/op grew by more than tolerance
// (relative) fails. Configurations only present on one side are reported
// but not fatal, so the baseline can trail kernel or preset changes by
// one commit.
func compareBench(fresh *kernelBenchReport, baselinePath string, tolerance float64, log io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base kernelBenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	old := benchKeys(&base)
	var regressions []string
	for _, pr := range fresh.Presets {
		for _, r := range pr.Results {
			key := pr.Name + "/" + r.Name
			b, ok := old[key]
			if !ok {
				fmt.Fprintf(log, "bench-baseline: %s not in baseline, skipping\n", key)
				continue
			}
			delete(old, key)
			if b.NsPerOp <= 0 {
				continue
			}
			rel := r.NsPerOp/b.NsPerOp - 1
			fmt.Fprintf(log, "bench-baseline: %-22s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
				key, b.NsPerOp, r.NsPerOp, 100*rel)
			if rel > tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s regressed %.1f%% (limit %.0f%%)", key, 100*rel, 100*tolerance))
			}
		}
	}
	for key := range old {
		fmt.Fprintf(log, "bench-baseline: %s missing from fresh run\n", key)
	}
	regressions = append(regressions, compareBalancerTraffic(fresh, &base, log)...)
	if len(regressions) > 0 {
		return errors.New(strings.Join(regressions, "; "))
	}
	return nil
}

// compareBalancerTraffic gates the balancers section against the baseline.
// The counters are deterministic, so any drift is a behavior change, not
// noise: Moved/MovedBytes/Steps must match exactly. A baseline without the
// section (pre-balancer) skips with a note.
func compareBalancerTraffic(fresh, base *kernelBenchReport, log io.Writer) []string {
	if len(base.Balancers) == 0 {
		fmt.Fprintln(log, "bench-baseline: no balancers section in baseline, skipping traffic gate")
		return nil
	}
	old := make(map[string]balancerBenchResult, len(base.Balancers))
	for _, b := range base.Balancers {
		old[b.Name] = b
	}
	var regressions []string
	for _, r := range fresh.Balancers {
		b, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(log, "bench-baseline: balancer %s not in baseline, skipping\n", r.Name)
			continue
		}
		fmt.Fprintf(log, "bench-baseline: balancer %-10s moved %d cols / %d bytes over %d steps (baseline %d/%d), load ratio %.4f\n",
			r.Name, r.Moved, r.MovedBytes, r.Steps, b.Moved, b.MovedBytes, r.MeanLoadRatio)
		if r.Moved != b.Moved || r.MovedBytes != b.MovedBytes || r.Steps != b.Steps {
			regressions = append(regressions, fmt.Sprintf(
				"balancer %s traffic drifted: moved %d->%d, bytes %d->%d, steps %d->%d (deterministic counters must match exactly)",
				r.Name, b.Moved, r.Moved, b.MovedBytes, r.MovedBytes, b.Steps, r.Steps))
		}
	}
	return regressions
}

// assertShardScaling enforces the sharding win on machines that can show
// one: at every timed preset with at least minN particles, flat/shards=8
// must beat flat/shards=1 by at least minRatio. On hosts with
// GOMAXPROCS < 4 the assertion is skipped with a printed note — shard
// workers have no cores to scale onto there, so a failure would measure
// the host, not the kernel.
func assertShardScaling(rep *kernelBenchReport, minN int, minRatio float64, log io.Writer) error {
	if rep.GOMAXPROCS < 4 {
		fmt.Fprintf(log, "bench-scaling: skipped (gomaxprocs=%d < 4: shard workers have no cores to scale onto)\n",
			rep.GOMAXPROCS)
		return nil
	}
	var failures []string
	checked := 0
	for _, pr := range rep.Presets {
		if pr.N < minN {
			continue
		}
		var s1, s8 float64
		for _, r := range pr.Results {
			if r.Kernel != "flat" {
				continue
			}
			switch r.Shards {
			case 1:
				s1 = r.NsPerOp
			case 8:
				s8 = r.NsPerOp
			}
		}
		if s1 <= 0 || s8 <= 0 {
			continue
		}
		checked++
		ratio := s1 / s8
		fmt.Fprintf(log, "bench-scaling: %-6s shards=1 %12.0f ns/op, shards=8 %12.0f ns/op (%.2fx)\n",
			pr.Name, s1, s8, ratio)
		if ratio < minRatio {
			failures = append(failures, fmt.Sprintf(
				"%s: shards=8 only %.2fx over shards=1 (need >= %.2fx)", pr.Name, ratio, minRatio))
		}
	}
	if checked == 0 {
		return fmt.Errorf("bench-scaling: no timed preset with >= %d particles", minN)
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}
