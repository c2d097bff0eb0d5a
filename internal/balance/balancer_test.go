package balance

// Unit tests for the Balancer zoo's pure machinery: the Morton curve and
// its ORB-style cuts, the codec that carries balancer identity through CLI
// flags and checkpoint metadata, and input validation on every
// implementation. The engine-level conformance (legality, momentum,
// bit-reproducibility) lives in internal/core and the facade tests.

import (
	"sort"
	"testing"

	"permcell/internal/dlb"
)

func TestMorton2(t *testing.T) {
	// The first quad of the Z-curve, in order.
	want := []struct{ x, y, k int }{
		{0, 0, 0}, {1, 0, 1}, {0, 1, 2}, {1, 1, 3},
		{2, 0, 4}, {3, 0, 5}, {2, 1, 6}, {3, 1, 7},
		{0, 2, 8},
	}
	for _, w := range want {
		if got := morton2(w.x, w.y); got != uint64(w.k) {
			t.Errorf("morton2(%d,%d) = %d, want %d", w.x, w.y, got, w.k)
		}
	}
	// Keys are unique over a 16x16 tile (the interleave is a bijection).
	seen := make(map[uint64]bool)
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			k := morton2(x, y)
			if seen[k] {
				t.Fatalf("duplicate Morton key %d at (%d,%d)", k, x, y)
			}
			seen[k] = true
		}
	}
}

func testLayout(t *testing.T, s, m int) dlb.Layout {
	t.Helper()
	l, err := dlb.NewLayout(s, m)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSFCCurveOrder(t *testing.T) {
	l := testLayout(t, 2, 3)
	d := SFC{}.NewDecider(l, 0).(*sfcDecider)
	if len(d.order) != l.NumColumns() {
		t.Fatalf("order covers %d columns, want %d", len(d.order), l.NumColumns())
	}
	// The order is a permutation sorted by Morton key.
	for i := 1; i < len(d.order); i++ {
		if mortonKeyOf(l, d.order[i-1]) >= mortonKeyOf(l, d.order[i]) {
			t.Fatalf("order not strictly increasing in Morton key at %d", i)
		}
	}
	for col, i := range d.pos {
		if d.order[i] != col {
			t.Fatalf("pos[%d]=%d does not invert order", col, i)
		}
	}
	// segRank is a permutation of the ranks.
	ranks := append([]int(nil), d.segRank...)
	sort.Ints(ranks)
	for r := 0; r < l.P(); r++ {
		if ranks[r] != r {
			t.Fatalf("segRank is not a permutation: %v", d.segRank)
		}
	}
}

func TestSFCCuts(t *testing.T) {
	l := testLayout(t, 2, 3)
	d := SFC{}.NewDecider(l, 0).(*sfcDecider)
	n := l.NumColumns()
	p := l.P()

	// Uniform load: cuts split the curve into near-equal segments.
	d.cutCurve(func(int) float64 { return 1 })
	if d.cuts[0] != 0 || d.cuts[p] != n {
		t.Fatalf("cuts do not span the curve: %v", d.cuts)
	}
	for k := 1; k <= p; k++ {
		if d.cuts[k] < d.cuts[k-1] {
			t.Fatalf("cuts not monotone: %v", d.cuts)
		}
		if size := d.cuts[k] - d.cuts[k-1]; size < n/p-1 || size > n/p+1 {
			t.Fatalf("uniform segment %d has %d columns, want ~%d: %v", k-1, size, n/p, d.cuts)
		}
	}

	// All load on the curve's first column: the first segment should shrink
	// around it — every cut lands at or before position 1.
	first := d.order[0]
	d.cutCurve(func(col int) float64 {
		if col == first {
			return 100
		}
		return 0
	})
	if d.cuts[1] > 1 {
		t.Fatalf("concentrated load: first cut at %d, want <= 1 (%v)", d.cuts[1], d.cuts)
	}

	// Zero load everywhere: equal-count fallback.
	d.cutCurve(func(int) float64 { return 0 })
	for k := 0; k <= p; k++ {
		if d.cuts[k] != k*n/p {
			t.Fatalf("degenerate fallback cuts = %v", d.cuts)
		}
	}

	// Every column's ideal rank is a real rank, and columns in the same
	// segment agree on it.
	d.cutCurve(func(int) float64 { return 1 })
	for col := 0; col < n; col++ {
		r := d.idealRank(col)
		if r < 0 || r >= p {
			t.Fatalf("idealRank(%d) = %d out of range", col, r)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []Balancer{
		nil,
		PermanentCell{},
		PermanentCell{Hysteresis: 0.1, Pick: PickLeastLoaded},
		SFC{},
		SFC{Hysteresis: 0.05, Moves: 3},
		Diffusive{Hysteresis: 0.2, Moves: 2},
	}
	for _, b := range cases {
		spec := Encode(b)
		back, err := Decode(spec)
		if err != nil {
			t.Fatalf("Decode(%q): %v", spec, err)
		}
		if Encode(back) != spec {
			t.Fatalf("round trip %q -> %q", spec, Encode(back))
		}
		if (b == nil) != (back == nil) {
			t.Fatalf("nil-ness lost through %q", spec)
		}
		if b != nil && back.Name() != b.Name() {
			t.Fatalf("name lost through %q", spec)
		}
	}

	// Bare names and friendly pick spellings parse.
	for _, spec := range []string{"", "none", "permcell", "sfc", "diffusive",
		"permcell(h=0.1,pick=least)", "permcell(pick=mostloaded)", "sfc(moves=2)"} {
		if _, err := Decode(spec); err != nil {
			t.Errorf("Decode(%q): %v", spec, err)
		}
	}

	// Malformed specs are rejected, not guessed at.
	for _, spec := range []string{"orb", "sfc(", "sfc(h=)", "sfc(bogus=1)",
		"permcell(pick=fastest)", "diffusive(moves=x)"} {
		if _, err := Decode(spec); err == nil {
			t.Errorf("Decode(%q) accepted", spec)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	l := testLayout(t, 2, 3)
	bad := []Balancer{
		PermanentCell{Hysteresis: -0.1},
		PermanentCell{Pick: Pick(99)},
		SFC{Hysteresis: -1},
		SFC{Moves: -2},
		Diffusive{Hysteresis: -0.5},
		Diffusive{Moves: -1},
	}
	for _, b := range bad {
		if err := b.Validate(l); err == nil {
			t.Errorf("%s %+v validated", b.Name(), b)
		}
	}
	good := []Balancer{PermanentCell{}, SFC{Moves: 4}, Diffusive{Hysteresis: 0.3}}
	for _, b := range good {
		if err := b.Validate(l); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
		if b.MaxMoves() < 1 {
			t.Errorf("%s: MaxMoves %d < 1", b.Name(), b.MaxMoves())
		}
	}
}
