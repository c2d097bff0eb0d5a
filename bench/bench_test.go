package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error, so the
// file has exactly these.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSON holds BENCHMARK.json to its format and to the tables
// the program reports from, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if strings.Join(bj.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command = %v", bj.Command)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bj.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the program reports %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		name("end-to-end", m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d is %+v, the program has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound: %+v", m.Name, m)
		}
	}
	if s := bj.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the set-up metric must be setup_s in s, lower: %+v", s)
	}

	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, the program reports %d (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		name("per-layer", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d is %+v, the program has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction: %+v", m.Name, m)
		}
	}
}

// TestWorkloadsQuick runs every workload untraced and traced at smoke-test
// sizes and checks what the driver checks: a correct, failure-free result
// that carries every listed metric exactly once, finite and with its unit.
// It asserts nothing about timing.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			tmp := t.TempDir()
			res, err := runOne(config{workload: w.name, seed: 7, seconds: 1, trace: trace, quick: true,
				tmpRoot: tmp, traceOut: filepath.Join(tmp, "trace.json")})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics reported, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, d.Name)
				case v.Unit != d.Unit || !finite(v.Value):
					t.Errorf("%s trace=%t: metric %s = %+v, want a finite value in %s", w.name, trace, d.Name, v, d.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(tmp, "trace.json")); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
				}
			}
		}
	}
}

// TestCompareVerdicts feeds -compare two reports with known medians and
// spreads and checks each verdict.
func TestCompareVerdicts(t *testing.T) {
	mk := func(step []float64, setup []float64) *report {
		rep := &report{}
		for i := range step {
			m := map[string]value{}
			for _, d := range endToEnd {
				m[d.Name] = value{Value: 1, Unit: d.Unit}
			}
			m["step_ms"] = value{Value: step[i], Unit: "ms"}
			m["setup_s"] = value{Value: setup[i], Unit: "s"}
			rep.Entries = append(rep.Entries, entry{Workload: "serial_50k", Seed: uint64(i), result: result{Correct: true, Attempted: 1, Metrics: m}})
		}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o666); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// step_ms_p10 gets 50% worse with no spread: regressed. setup_s gets
	// worse too, but b's own runs are spread wider than the bound: unresolved.
	a := write("a.json", mk([]float64{10, 10, 10, 10}, []float64{1, 1, 1, 1}))
	b := write("b.json", mk([]float64{15, 15, 15, 15}, []float64{1, 2, 3, 4}))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 50% slower step_ms_p10 was not reported as a regression")
	}
	for _, want := range []struct{ metric, verdict string }{
		{"step_ms", "regressed"}, {"setup_s", "unresolved"}, {"restore_ms", "ok"},
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "serial_50k" && f[1] == want.metric {
				found = f[len(f)-1] == want.verdict
			}
		}
		if !found {
			t.Errorf("serial_50k %s: want verdict %s in:\n%s", want.metric, want.verdict, out.String())
		}
	}
}
