package theory

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFRejectsBadInputs(t *testing.T) {
	if _, err := F(1, 2); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := F(3, 0.5); err == nil {
		t.Error("n<1 accepted")
	}
}

func TestSpecializationsMatchGeneralForm(t *testing.T) {
	// eqs. 9-11 must agree with eq. 8.
	for n := 1.0; n <= 5; n += 0.1 {
		if got, want := MustF(2, n), F2(n); math.Abs(got-want) > 1e-12 {
			t.Fatalf("f(2,%v): %v vs %v", n, got, want)
		}
		if got, want := MustF(3, n), F3(n); math.Abs(got-want) > 1e-12 {
			t.Fatalf("f(3,%v): %v vs %v", n, got, want)
		}
		if got, want := MustF(4, n), F4(n); math.Abs(got-want) > 1e-12 {
			t.Fatalf("f(4,%v): %v vs %v", n, got, want)
		}
	}
}

func TestOrderingEq12(t *testing.T) {
	// f(2,n) <= f(3,n) <= f(4,n) for n >= 1.
	f := func(raw float64) bool {
		n := 1 + math.Mod(math.Abs(raw), 10)
		return MustF(2, n) <= MustF(3, n)+1e-15 && MustF(3, n) <= MustF(4, n)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFDecreasingInN(t *testing.T) {
	for _, m := range []int{2, 3, 4, 6} {
		prev := math.Inf(1)
		for n := 1.0; n <= 6; n += 0.25 {
			v := MustF(m, n)
			if v > prev+1e-15 {
				t.Fatalf("f(%d,n) not decreasing at n=%v", m, n)
			}
			prev = v
		}
	}
}

func TestFAtNEqualsOne(t *testing.T) {
	// At n = 1 the bound is 3(m-1)^2 / (3(m-1)^2) = 1: with no excess
	// concentration in the maximum domain, any C0/C is balanceable.
	for _, m := range []int{2, 3, 4, 8} {
		if v := MustF(m, 1); math.Abs(v-1) > 1e-12 {
			t.Errorf("f(%d,1) = %v, want 1", m, v)
		}
	}
}

func TestFPositiveAndAtMostOne(t *testing.T) {
	f := func(rawM int, rawN float64) bool {
		m := 2 + abs(rawM)%7
		n := 1 + math.Mod(math.Abs(rawN), 20)
		v := MustF(m, n)
		return v > 0 && v <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestCPrime(t *testing.T) {
	// Fig. 4: a PE with 3x3 columns can hold up to 2.33x its initial count.
	if CPrimeColumns(3) != 21 {
		t.Errorf("C'(m=3) = %d columns, want 21", CPrimeColumns(3))
	}
	if got := float64(CPrimeColumns(3)) / 9; math.Abs(got-2.333) > 0.01 {
		t.Errorf("max domain ratio %v, want ~2.33", got)
	}
	// The paper's C' formula in 3-D: [m^2+3(m-1)^2]C^(1/3).
	if CPrimeColumns(2) != 7 || CPrimeColumns(4) != 43 {
		t.Error("C' columns wrong for m=2 or m=4")
	}
}

func TestPaperValuesSpotCheck(t *testing.T) {
	// Hand-evaluated points of eqs. 9-11.
	if v := F2(2); math.Abs(v-0.3) > 1e-12 {
		t.Errorf("f(2,2) = %v, want 0.3", v)
	}
	if v := F3(1); math.Abs(v-1) > 1e-12 {
		t.Errorf("f(3,1) = %v, want 1", v)
	}
	if v := F4(2); math.Abs(v-27.0/70) > 1e-12 {
		t.Errorf("f(4,2) = %v, want %v", v, 27.0/70)
	}
}

// F2 is eq. 9: f(2, n) = 3/(7n-4).
func F2(n float64) float64 { return 3 / (7*n - 4) }

// F3 is eq. 10: f(3, n) = 4/(7n-3).
func F3(n float64) float64 { return 4 / (7*n - 3) }

// F4 is eq. 11: f(4, n) = 27/(43n-16).
func F4(n float64) float64 { return 27 / (43*n - 16) }
