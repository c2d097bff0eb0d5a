package trace

import (
	"math"
	"strings"
	"testing"

	"permcell/internal/rng"
)

func TestSmoothConstant(t *testing.T) {
	vals := []float64{5, 5, 5, 5, 5}
	for _, w := range []int{1, 3, 5, 7} {
		for _, v := range Smooth(vals, w) {
			if v != 5 {
				t.Fatalf("window %d: smoothed constant != 5", w)
			}
		}
	}
}

func TestSmoothReducesNoise(t *testing.T) {
	r := rng.New(3)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 10 + r.NormScaled(0, 1)
	}
	s := Smooth(vals, 21)
	var rawVar, smVar float64
	for i := range vals {
		rawVar += (vals[i] - 10) * (vals[i] - 10)
		smVar += (s[i] - 10) * (s[i] - 10)
	}
	if smVar >= rawVar/4 {
		t.Errorf("smoothing reduced variance only %v -> %v", rawVar, smVar)
	}
}

func TestSmoothEvenWindowRoundsUp(t *testing.T) {
	vals := []float64{1, 2, 3}
	a := Smooth(vals, 2)
	b := Smooth(vals, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("even window not rounded up")
		}
	}
}

func TestDetectRiseCleanStep(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		if i >= 60 {
			vals[i] = float64(i-60) * 0.5
		}
	}
	got := DetectRise(vals, 5, 20, 1.0, 0.1)
	if got < 55 || got > 70 {
		t.Errorf("rise detected at %d, want ~60", got)
	}
}

func TestDetectRiseNoisy(t *testing.T) {
	r := rng.New(7)
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 1 + r.NormScaled(0, 0.1)
		if i >= 200 {
			vals[i] += float64(i-200) * 0.05
		}
	}
	got := DetectRise(vals, 11, 50, 1.0, 0.1)
	if got < 190 || got > 230 {
		t.Errorf("rise detected at %d, want ~200-220", got)
	}
}

func TestDetectRiseNone(t *testing.T) {
	r := rng.New(9)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 3 + r.NormScaled(0, 0.05)
	}
	if got := DetectRise(vals, 11, 50, 1.0, 0.1); got != -1 {
		t.Errorf("flat series detected rise at %d", got)
	}
}

func TestDetectRiseTransientIgnored(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 1
	}
	// A spike that returns to baseline must not count as the boundary.
	vals[80], vals[81] = 10, 10
	for i := 150; i < 200; i++ {
		vals[i] = 1 + float64(i-150)*0.2
	}
	got := DetectRise(vals, 1, 20, 1.0, 0.1)
	if got < 145 || got > 160 {
		t.Errorf("rise detected at %d, want ~150 (spike at 80 ignored)", got)
	}
}

func TestDetectRiseEmpty(t *testing.T) {
	if DetectRise(nil, 5, 10, 1, 0.1) != -1 {
		t.Error("empty series did not return -1")
	}
}

func TestPlotContainsMarks(t *testing.T) {
	var sb strings.Builder
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 5)
	}
	if err := Plot(&sb, []string{"sin"}, [][]float64{vals}, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "sin") {
		t.Errorf("plot missing marks or legend:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	var sb strings.Builder
	if err := Plot(&sb, nil, nil, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Error("empty plot not flagged")
	}
}
