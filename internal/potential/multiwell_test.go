package potential

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"permcell/internal/vec"
)

// scanWells is the full nearest-well scan MultiWell computed before it had a
// candidate table, kept as the oracle: every well, ascending index, first
// strict minimum wins.
func scanWells(centers []vec.V, k float64, l, p vec.V) (float64, vec.V) {
	if len(centers) == 0 {
		return 0, vec.Zero
	}
	best := p.Sub(centers[0]).MinImage(l)
	bestN2 := best.Norm2()
	for _, c := range centers[1:] {
		d := p.Sub(c).MinImage(l)
		if n2 := d.Norm2(); n2 < bestN2 {
			best, bestN2 = d, n2
		}
	}
	return 0.5 * k * bestN2, best.Scale(-k)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkWells fails t at the first point whose energy or force bits differ
// between the table and the full scan (Errorf: it runs on goroutines too).
func checkWells(t *testing.T, m MultiWell, pts []vec.V) {
	t.Helper()
	for _, p := range pts {
		e, f := m.EnergyForce(p)
		we, wf := scanWells(m.Centers, m.K, m.L, p)
		if !sameBits(e, we) || !sameBits(f.X, wf.X) || !sameBits(f.Y, wf.Y) || !sameBits(f.Z, wf.Z) {
			t.Errorf("wells %v in box %v at %v: table gives %v %v, scan %v %v", m.Centers, m.L, p, e, f, we, wf)
			return
		}
	}
}

func randIn(r *rand.Rand, l vec.V) vec.V {
	return vec.New(r.Float64()*l.X, r.Float64()*l.Y, r.Float64()*l.Z)
}

// probePoints returns random points of the box plus the adversarial ones:
// the box corners and the last float below each edge, every bin edge and
// its ulp neighbours, the wells themselves, the points half a box away
// from them and the midpoints between pairs of wells (equidistant, so
// ties), and points outside [0, L) including NaN and the infinities.
func probePoints(r *rand.Rand, centers []vec.V, l vec.V) []vec.V {
	var pts []vec.V
	for range 400 {
		pts = append(pts, randIn(r, l))
	}
	below := vec.New(math.Nextafter(l.X, 0), math.Nextafter(l.Y, 0), math.Nextafter(l.Z, 0))
	pts = append(pts, vec.Zero, below, vec.New(below.X, 0, below.Z), vec.New(0, below.Y, 0))
	for i := range wellBins + 1 {
		e := l.Scale(float64(i) / wellBins)
		for _, x := range []float64{math.Nextafter(e.X, 0), e.X, math.Nextafter(e.X, math.Inf(1))} {
			q := randIn(r, l)
			pts = append(pts, vec.New(x, q.Y, q.Z), vec.New(q.X, math.Min(x, below.Y), q.Z), vec.New(x, x, x))
		}
	}
	for i, c := range centers {
		pts = append(pts, c, c.Add(l.Scale(0.5)).Wrap(l))
		for _, d := range centers[i+1:] {
			pts = append(pts, c.Add(d).Scale(0.5), c.Add(d).Add(l).Scale(0.5).Wrap(l))
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	pts = append(pts,
		vec.New(-1e-300, 0, 0), l, l.Scale(-0.25), l.Scale(3.7), vec.New(l.X, 0.5*l.Y, 0.5*l.Z),
		vec.New(nan, 1, 1), vec.New(1, inf, 1), vec.New(1, 1, -inf), vec.New(math.Copysign(0, -1), 0, 0))
	return pts
}

func TestMultiWellTableMatchesScan(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 1))
	boxes := []vec.V{vec.New(30.24, 30.24, 30.24), vec.New(10, 25, 7.5), vec.New(64, 64, 64), vec.New(3, 100, 16)}
	type set struct {
		name    string
		centers func(l vec.V) []vec.V
	}
	random := func(n int) func(vec.V) []vec.V {
		return func(l vec.V) []vec.V {
			cs := make([]vec.V, n)
			for i := range cs {
				cs[i] = randIn(r, l)
			}
			return cs
		}
	}
	sets := []set{
		{"1 well", random(1)}, {"2 wells", random(2)}, {"3 wells", random(3)}, {"4 wells", random(4)}, {"12 wells", random(12)},
		{"coincident", func(l vec.V) []vec.V {
			c, d := randIn(r, l), randIn(r, l)
			return []vec.V{d, c, randIn(r, l), c, d, c}
		}},
		{"on bin edges", func(l vec.V) []vec.V {
			cs := make([]vec.V, 12)
			for i := range cs {
				cs[i] = vec.New(l.X*float64(r.IntN(wellBins))/wellBins, l.Y*float64(r.IntN(wellBins))/wellBins,
					l.Z*float64(r.IntN(wellBins))/wellBins)
			}
			return cs
		}},
		{"half a box apart", func(l vec.V) []vec.V {
			c := randIn(r, l).Scale(0.5)
			h := l.Scale(0.5)
			return []vec.V{c, c.Add(vec.New(h.X, 0, 0)), c.Add(vec.New(0, h.Y, 0)), c.Add(h), c.Add(vec.New(h.X, h.Y, 0))}
		}},
		{"mirror pair", func(l vec.V) []vec.V {
			// Exactly representable mirror images: the midpoint probe ties
			// and the lower index must win with its own displacement sign.
			return []vec.V{vec.New(2, 1, 1), vec.New(4, 1, 1), vec.New(1, 5, 1)}
		}},
	}
	for _, l := range boxes {
		for _, s := range sets {
			for range 8 {
				cs := s.centers(l)
				checkWells(t, NewMultiWell(cs, 1.5, l), probePoints(r, cs, l))
			}
		}
	}
	for range 49 {
		l := boxes[r.IntN(len(boxes))]
		cs := random(12)(l)
		checkWells(t, NewMultiWell(cs, 1.5, l), probePoints(r, cs, l))
	}
}

func TestMultiWellTableKeepsFewCandidates(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 2))
	l := vec.New(30.24, 30.24, 30.24)
	cs := make([]vec.V, 12)
	for i := range cs {
		cs[i] = randIn(r, l)
	}
	m := NewMultiWell(cs, 1.5, l)
	m.EnergyForce(l.Scale(0.5))
	bins := wellBins * wellBins * wellBins
	if len(m.near.start) != bins+1 {
		t.Fatalf("table has %d bins, want %d", len(m.near.start)-1, bins)
	}
	kept := int(m.near.start[bins])
	if mean := float64(kept) / float64(bins); mean > 4 {
		t.Errorf("%.2f candidates per bin at 12 wells, want at most 4", mean)
	}
}

// TestMultiWellUnboundableSetsScanAll: sets the table cannot bound, or
// would not speed up, build no table and still agree with the scan.
func TestMultiWellUnboundableSetsScanAll(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 3))
	l := vec.New(20, 20, 20)
	// Three wells inside the box: with a fourth, only the case's own
	// defect keeps a table from being built.
	in := []vec.V{vec.New(1, 1, 1), vec.New(5, 3, 3), vec.New(3, 15, 7)}
	for _, c := range []struct {
		name    string
		centers []vec.V
		l       vec.V
	}{
		{"center outside the box", slices.Concat(in, []vec.V{vec.New(25, 3, 3)}), l},
		{"negative center", slices.Concat(in, []vec.V{vec.New(-1, 1, 1)}), l},
		{"NaN center", slices.Concat(in, []vec.V{vec.New(math.NaN(), 3, 3)}), l},
		{"huge box", slices.Concat(in, []vec.V{vec.New(1e200, 3, 3)}), vec.New(1e201, 20, 20)},
		{"no wells", nil, l},
		{"three wells", in, l},
	} {
		m := NewMultiWell(c.centers, 2, c.l)
		checkWells(t, m, probePoints(r, c.centers, c.l))
		if m.near.start != nil {
			t.Errorf("%s: a table was built", c.name)
		}
	}
	checkWells(t, MultiWell{Centers: []vec.V{vec.New(1, 1, 1), vec.New(9, 9, 9)}, K: 1, L: l}, probePoints(r, nil, l))
}

// TestMultiWellConcurrentFirstCalls: many goroutines making their first
// call on copies of one value, which share one table, agree with the scan;
// under -race a build not ordered before every read is a reported race.
func TestMultiWellConcurrentFirstCalls(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 4))
	l := vec.New(30.24, 30.24, 30.24)
	cs := make([]vec.V, 12)
	for i := range cs {
		cs[i] = randIn(r, l)
	}
	m := NewMultiWell(cs, 1.5, l)
	pts := probePoints(r, cs, l)
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func(m MultiWell) {
			defer wg.Done()
			checkWells(t, m, pts[g:])
		}(m)
	}
	wg.Wait()
}

// FuzzMultiWell reads a box, 1..12 wells and a position from the fuzz bytes
// and compares the table's energy and force bits against the full scan.
func FuzzMultiWell(f *testing.F) {
	f.Add([]byte{12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 200))
	seed := make([]byte, 1, 8*40)
	seed[0] = 5
	for i := range 39 {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(float64(i%7)*0.37))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		data = data[1:]
		next := func() float64 {
			if len(data) < 8 {
				data = nil
				return 0.5
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return x
		}
		// Edges in [1, 65], wells in the box (positions taken modulo an
		// edge), the position raw: any float, inside or outside the box.
		edge := func() float64 { return 1 + math.Mod(math.Abs(next()), 64) }
		l := vec.New(edge(), edge(), edge())
		if !l.IsFinite() {
			return
		}
		in := func(x, e float64) float64 {
			x = math.Mod(math.Abs(x), e)
			if math.IsNaN(x) {
				return 0
			}
			return x
		}
		cs := make([]vec.V, n)
		for i := range cs {
			cs[i] = vec.New(in(next(), l.X), in(next(), l.Y), in(next(), l.Z))
		}
		p := vec.New(next(), next(), next())
		m := NewMultiWell(cs, 1.5, l)
		checkWells(t, m, []vec.V{p, p.Wrap(l), cs[0].Add(cs[n-1]).Scale(0.5)})
	})
}

// BenchmarkMultiWell times the condensation's well pass (6 912 particles,
// 12 wells, the bench workload's box) against the full scan it replaced,
// and the table build alone. The build's budget is 0.1 ms at 12 wells; on
// a 2-core 2.1 GHz Xeon VM it takes 0.17-0.23 ms here (about 40 % of it
// the allocator and GC under this loop's churn) and ~0.25 ms as the one
// build of a fresh process.
func BenchmarkMultiWell(b *testing.B) {
	r := rand.New(rand.NewPCG(27, 5))
	l := vec.New(30.24, 30.24, 30.24)
	cs := make([]vec.V, 12)
	for i := range cs {
		cs[i] = randIn(r, l)
	}
	pos := make([]vec.V, 6912)
	for i := range pos {
		pos[i] = randIn(r, l)
	}
	pass := func(b *testing.B, ef func(vec.V) (float64, vec.V)) {
		var sink float64
		for b.Loop() {
			for _, p := range pos {
				e, _ := ef(p)
				sink += e
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pos)), "ns/particle")
		_ = sink
	}
	b.Run("table", func(b *testing.B) {
		m := NewMultiWell(cs, 1.5, l)
		m.EnergyForce(vec.Zero)
		pass(b, m.EnergyForce)
	})
	b.Run("scan", func(b *testing.B) {
		pass(b, func(p vec.V) (float64, vec.V) { return scanWells(cs, 1.5, l, p) })
	})
	b.Run("build", func(b *testing.B) {
		for b.Loop() {
			(&nearTable{centers: cs, l: l}).build()
		}
	})
}
