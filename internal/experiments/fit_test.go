package experiments

import (
	"math"
	"testing"

	"permcell/internal/rng"
)

func TestFitScaleExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	a, err := fitScale(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-2) > 1e-12 {
		t.Errorf("a = %v, want 2", a)
	}
}

func TestFitScaleNoisy(t *testing.T) {
	r := rng.New(1)
	var xs, ys []float64
	for i := 0; i < 1000; i++ {
		x := r.Uniform(0.5, 3)
		xs = append(xs, x)
		ys = append(ys, 0.7*x+r.NormScaled(0, 0.01))
	}
	a, err := fitScale(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.7) > 0.01 {
		t.Errorf("a = %v, want ~0.7", a)
	}
}

func TestFitScaleErrors(t *testing.T) {
	if _, err := fitScale(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := fitScale([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := fitScale([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero x accepted")
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 || math.Abs(s-2) > 1e-12 {
		t.Errorf("mean/std = %v/%v, want 5/2", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty MeanStd nonzero")
	}
}
