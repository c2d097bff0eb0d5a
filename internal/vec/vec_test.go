package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasicOps(t *testing.T) {
	a := New(1, 2, 3)
	b := New(-4, 5, 0.5)

	if got := a.Add(b); got != New(-3, 7, 3.5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(5, -3, 2.5) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != New(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Norm2(); got != 14 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := a.Norm(); !almostEq(got, math.Sqrt(14), 1e-15) {
		t.Errorf("Norm = %v", got)
	}
	if got := a.MulAdd(3, b); got != New(-11, 17, 4.5) {
		t.Errorf("MulAdd = %v", got)
	}
}

func TestDist(t *testing.T) {
	a, b := New(1, 1, 1), New(4, 5, 1)
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestWrapInsideBox(t *testing.T) {
	l := New(10, 20, 5)
	cases := []V{
		New(0, 0, 0),
		New(9.999, 19.999, 4.999),
		New(-0.001, 20.001, 5),
		New(105, -203, 7.5),
		New(-1e9, 1e9, 0),
	}
	for _, c := range cases {
		w := c.Wrap(l)
		if w.X < 0 || w.X >= l.X || w.Y < 0 || w.Y >= l.Y || w.Z < 0 || w.Z >= l.Z {
			t.Errorf("Wrap(%v) = %v outside [0,l)", c, w)
		}
	}
}

func TestWrapProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		p := New(math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6))
		l := New(7, 11, 13)
		w := p.Wrap(l)
		if w.X < 0 || w.X >= l.X || w.Y < 0 || w.Y >= l.Y || w.Z < 0 || w.Z >= l.Z {
			return false
		}
		// Wrapping must shift each coordinate by an integer number of periods.
		dx := (p.X - w.X) / l.X
		return almostEq(dx, math.Round(dx), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinImage(t *testing.T) {
	l := New(10, 10, 10)
	d := New(9, -9, 4).MinImage(l)
	want := New(-1, 1, 4)
	if d.Dist(want) > 1e-12 {
		t.Errorf("MinImage = %v, want %v", d, want)
	}
}

func TestMinImageHalfBox(t *testing.T) {
	f := func(x, y, z float64) bool {
		p := New(math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6))
		l := New(9, 5, 21)
		m := p.MinImage(l)
		return math.Abs(m.X) <= l.X/2+1e-9 &&
			math.Abs(m.Y) <= l.Y/2+1e-9 &&
			math.Abs(m.Z) <= l.Z/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if New(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if New(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestString(t *testing.T) {
	if got := New(1, 2.5, -3).String(); got != "(1, 2.5, -3)" {
		t.Errorf("String = %q", got)
	}
}

// wrapByDivision is the wrap every component took before the in-box fast
// path: subtract Floor(x/l) periods, then fold x == l back to 0.
func wrapByDivision(x, l float64) float64 {
	x -= math.Floor(x/l) * l
	if x >= l {
		x -= l
	}
	return x
}

// wrapProbes returns, for edge l, the values the fast path must leave
// bit-identical to the division form or hand to it: ±0, the ulp
// neighbours of 0 and l, l itself, negatives, several periods out, NaN and
// the infinities, plus spread-out values inside.
func wrapProbes(l float64) []float64 {
	inf := math.Inf(1)
	xs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(0, 1), math.Nextafter(0, -1), 1e-300, -1e-300,
		math.Nextafter(l, 0), l, math.Nextafter(l, inf), -l, math.Nextafter(-l, 0), math.Nextafter(-l, -inf),
		-0.3 * l, 3.7 * l, -3.7 * l, 5 * l, -5 * l, 1e6*l + 0.25, -1e6*l - 0.25,
		math.NaN(), inf, -inf,
	}
	for i := range 64 {
		xs = append(xs, l*float64(i)/64, l*(float64(i)+0.37)/64)
	}
	return xs
}

func TestWrapMatchesDivisionForm(t *testing.T) {
	for _, l := range []float64{1, 2.5, 10, 30.24, 7.3, math.Pi, 1e-3, 1e5} {
		for _, x := range wrapProbes(l) {
			got := New(x, x, x).Wrap(New(l, 2*l, 3*l))
			want := [3]float64{wrapByDivision(x, l), wrapByDivision(x, 2*l), wrapByDivision(x, 3*l)}
			for a, g := range [3]float64{got.X, got.Y, got.Z} {
				if w := want[a]; math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("Wrap(%v) axis %d in box %v: %v (%#x), division form %v (%#x)", x, a, l, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}
