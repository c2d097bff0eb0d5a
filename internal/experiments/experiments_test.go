package experiments

import (
	"strings"
	"testing"

	"permcell"
)

// All experiment tests run at the Tiny preset (P=4, seconds per run); they
// assert the *shape* of each result, which is what the reproduction
// contract requires, not absolute numbers.

// dlbSpec is a one-step KindDLB spec at (m, P, rho).
func dlbSpec(m, p int, rho float64) RunSpec {
	return RunSpec{Spec: permcell.Spec{Kind: permcell.KindDLB, M: m, P: p, Rho: rho}, Steps: 1}
}

func TestRunSpecValidation(t *testing.T) {
	if _, _, err := dlbSpec(2, 5, 0.2).Run(); err == nil {
		t.Error("non-square P accepted")
	}
	if _, _, err := dlbSpec(1, 4, 0.2).Run(); err == nil {
		t.Error("m=1 accepted")
	}
}

func TestRunSpecSizes(t *testing.T) {
	info := dlbSpec(2, 16, 0.256).Size()
	// nc = m*sqrt(P) = 8; this is the paper's C=512-scale geometry.
	if info.NC != 8 || info.C != 512 {
		t.Errorf("nc=%d C=%d, want 8/512", info.NC, info.C)
	}
	// Full-scale check of the paper's Fig. 5(b) numbers: m=2, P=36 ->
	// C=1728 and N=8000 at rho=0.256... rho*L^3 = 0.256*(12*2.5)^3 = 6912.
	// (The paper's N=8000 corresponds to its own lattice setup; our density
	// fixes N = rho*V.) Verify the geometric part only.
	info36 := dlbSpec(2, 36, 0.256).Size()
	if info36.C != 1728 {
		t.Errorf("m=2 P=36: C = %d, want 1728 (paper Fig. 5b)", info36.C)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{"tiny", "small", "full"} {
		pr, ok := PresetByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if pr.P < 4 || len(pr.Ms) == 0 || len(pr.Densities) == 0 || pr.Reps < 1 {
			t.Errorf("preset %q incomplete: %+v", name, pr)
		}
	}
	if _, ok := PresetByName("nonsense"); ok {
		t.Error("unknown preset resolved")
	}
	if pr, ok := PresetByName(""); !ok || pr.Name != "small" {
		t.Error("empty preset should default to small")
	}
}

func TestFig5Shape(t *testing.T) {
	pr := Tiny()
	r, err := Fig5(pr, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != pr.FigSteps {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	// The paper's headline: DDM execution time grows with the step count;
	// DLB-DDM grows strictly less.
	if r.DDMGrowth() < 1.2 {
		t.Errorf("DDM growth %.2f, expected > 1.2 on a condensing system", r.DDMGrowth())
	}
	if r.DLBGrowth() >= r.DDMGrowth() {
		t.Errorf("DLB growth %.2f not below DDM growth %.2f", r.DLBGrowth(), r.DDMGrowth())
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 5", "DDM", "DLB-DDM", "growth"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	pr := Tiny()
	r, err := Fig6(pr, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.DDM.Steps)
	if n == 0 || len(r.DLB.Steps) == 0 {
		t.Fatal("empty series")
	}
	// Ordering Fmax >= Fave >= Fmin at every step, both panels.
	for i := 0; i < n; i++ {
		if r.DDM.Fmax[i] < r.DDM.Fave[i] || r.DDM.Fave[i] < r.DDM.Fmin[i] {
			t.Fatalf("DDM ordering broken at %d", i)
		}
	}
	// The paper: the DDM spread grows; by the end it exceeds the early
	// spread, and the DLB spread stays smaller than the DDM spread.
	tailIdx, headIdx := n-1, n/10
	if r.DDM.Spread(tailIdx) <= r.DDM.Spread(headIdx) {
		t.Errorf("DDM spread did not grow: %v -> %v", r.DDM.Spread(headIdx), r.DDM.Spread(tailIdx))
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Fmax") {
		t.Error("render missing Fmax")
	}
}

func TestFig9Shape(t *testing.T) {
	pr := Tiny()
	r, err := Fig9(pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The trajectory must start near the origin (uniform gas: C0/C small)
	// and end substantially higher (condensed).
	if r.C0C[0] > 0.3 {
		t.Errorf("trajectory starts at C0/C = %v, want near 0", r.C0C[0])
	}
	last := r.C0C[len(r.C0C)-1]
	if last < r.C0C[0]+0.1 {
		t.Errorf("trajectory did not rise: %v -> %v", r.C0C[0], last)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "trajectory") {
		t.Error("render missing header")
	}
}

func TestFig10Shape(t *testing.T) {
	pr := Tiny()
	r, err := Fig10(pr, 2, pr.P, 1)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for _, pt := range r.Points {
		detected += pt.Detected
	}
	if detected == 0 {
		t.Fatal("no boundary points detected at tiny scale")
	}
	// Paper's headline Fig. 10 observation: experimental boundary points
	// lie below the theoretical upper bound.
	if !r.AllBelowTheory(0.1) {
		t.Error("a boundary point exceeds the theoretical bound")
	}
	if r.Fitted && (r.EOverT <= 0 || r.EOverT > 1.1) {
		t.Errorf("E/T = %v outside (0, 1.1]", r.EOverT)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E/T") {
		t.Error("render missing E/T")
	}
}

func TestTable1Shape(t *testing.T) {
	pr := Tiny()
	pr.Ms = []int{2} // keep the test fast: one cell
	pr.Densities = pr.Densities[:1]
	r, err := Table1(pr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EOverT) != 1 {
		t.Fatalf("cells = %d", len(r.EOverT))
	}
	for m, row := range r.EOverT {
		for p, v := range row {
			if v <= 0 || v > 1.1 {
				t.Errorf("E/T[m=%d][P=%d] = %v outside (0, 1.1]", m, p, v)
			}
		}
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("render missing header")
	}
}

// AllBelowTheory reports whether every detected boundary point lies at or
// below the theoretical bound — the paper's headline Fig. 10 observation.
func (r *Fig10Result) AllBelowTheory(slack float64) bool {
	for _, pt := range r.Points {
		if pt.Detected == 0 {
			continue
		}
		if pt.C0C > pt.TheoryF*(1+slack) {
			return false
		}
	}
	return true
}
