package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCompare checks got against testdata/<name> byte for byte, or
// rewrites the file under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./internal/experiments -run Golden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden output.\nIf the change is intended, refresh with:\n  go test ./internal/experiments -run Golden -update\ngot:\n%s\nwant:\n%s",
			name, clip(got), clip(string(want)))
	}
}

func clip(s string) string {
	lines := strings.Split(s, "\n")
	if len(lines) > 25 {
		lines = append(lines[:25], "... (truncated)")
	}
	return strings.Join(lines, "\n")
}

// TestGoldenFig9CSV pins the exact CSV of `figures -id fig9 -scale tiny
// -seed 1 -csv`. The whole pipeline behind it is deterministic — seeded
// initial conditions, the pair-evaluation work metric driving DLB, sorted
// cell iteration fixing FP summation order — so any byte drift means an
// unintended behavior change somewhere between the RNG and the renderer.
func TestGoldenFig9CSV(t *testing.T) {
	r, err := Fig9(Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig9_tiny.csv", b.String())
}

// TestGoldenTable1CSV pins the exact CSV of `figures -id table1 -scale
// tiny -seed 1 -csv` (the E/T boundary-ratio table).
func TestGoldenTable1CSV(t *testing.T) {
	r, err := Table1(Tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table1_tiny.csv", b.String())
}

// TestGoldenBalancersCSV pins the exact CSV of `figures -id balancers
// -scale tiny -seed 1 -csv`: every balancer's per-step gauges and, in the
// moved / moved_bytes columns, the traffic each strategy generated — the
// deterministic cross-balancer gate (none 0 / 0, permcell 12 / 20088, sfc
// 4 / 6048, diffusive 8 / 10008 over the run).
func TestGoldenBalancersCSV(t *testing.T) {
	r, err := Balancers(Tiny(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "balancers_tiny.csv", b.String())
}
