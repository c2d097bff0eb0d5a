package kernel

import (
	"fmt"
	"math"
	"testing"

	"permcell/internal/rng"
	"permcell/internal/vec"
)

// hitMarker fills the hit buffers before a leaf runs, so an entry below the
// starting count that a leaf overwrote shows.
const hitMarker = 0xdead_beef_dead_beef

// Special inputs of FuzzSearchLeaf, placed at a random row a and column b.
const (
	leafPlain      = iota
	leafNaN        // a neighbour's X is NaN
	leafPosInf     // a neighbour's Y is +Inf
	leafNegInf     // a row particle's Z is -Inf
	leafCoincident // b sits on a (t = 0): r2 = +0, not a hit
	leafAtCutoff   // r2 = rc2 exactly (t = 0): not a hit
	leafUlpBelow   // r2 one ulp below rc2 (t = 0): a hit
	leafSpecials
)

// leafInput draws a row block and a neighbour block of particles in two
// adjacent cells of side 2.5, so that at rc2 = 6.25 candidates fall on both
// sides of the cut-off, and half the time a round term of -10, 0 or +10 per
// axis, then plants the special at a random (a, b); for the last three it
// returns the cut-off the special needs (else rc2 unchanged).
func leafInput(seed uint64, rows, cols int, special uint8, rc2 float64) (lpos, q []vec.V, t vec.V, rc2Out float64) {
	r := rng.New(seed)
	lpos, q = make([]vec.V, rows), make([]vec.V, cols)
	for i := range lpos {
		lpos[i] = r.InBox(vec.New(2.5, 2.5, 2.5))
	}
	for i := range q {
		q[i] = r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(2.5, 0, 0))
	}
	if r.Intn(2) == 0 {
		terms := [3]float64{0, -10, 10}
		t = vec.New(terms[r.Intn(3)], terms[r.Intn(3)], terms[r.Intn(3)])
	}
	if rows == 0 || cols == 0 {
		return lpos, q, t, rc2
	}
	a, b := r.Intn(rows), r.Intn(cols)
	switch special % leafSpecials {
	case leafNaN:
		q[b].X = math.NaN()
	case leafPosInf:
		q[b].Y = math.Inf(1)
	case leafNegInf:
		lpos[a].Z = math.Inf(-1)
	case leafCoincident:
		t, q[b] = vec.Zero, lpos[a]
	case leafAtCutoff, leafUlpBelow:
		// dx = 1.25 - 3.75 = -2.5 exactly, so r2 = 6.25 exactly.
		t, lpos[a], q[b] = vec.Zero, vec.New(1.25, 0.5, 0.75), vec.New(3.75, 0.5, 0.75)
		rc2 = 6.25
		if special%leafSpecials == leafUlpBelow {
			rc2 = math.Nextafter(6.25, math.Inf(1))
		}
	}
	return lpos, q, t, rc2
}

// FuzzSearchLeaf: the Go unit leaf, searchShift, keeps exactly the pairs
// the plain test !(r2 >= rc2) && r2 != 0 keeps, r2 computed as it computes
// it, and stores their keys in order from the starting count, on every
// input — NaN and infinite coordinates, coincident pairs, distances exactly
// at and one ulp inside the cut-off, any cut-off (NaN included), rows of
// every length, any starting count up to a buffer filled to its last
// entry, and any key — and leaves every entry below the starting count
// alone. Both cell leaves are checked against calls of it.
func FuzzSearchLeaf(f *testing.F) {
	const ghostKey = 7<<hitAShift + 13<<hitCodeShift + hitGhost + 40
	seed := uint64(1)
	for cols := range 16 {
		for _, rows := range []uint8{0, 1, 3} {
			f.Add(seed, rows, uint8(cols), uint16(0), false, uint64(0), 6.25, uint8(leafPlain))
			seed++
		}
	}
	for special := range uint8(leafSpecials) {
		for _, cols := range []uint8{1, 2, 3, 4, 5, 6, 7, 9, 13, 14, 15} {
			f.Add(seed, uint8(2), cols, uint16(seed*37), seed%3 == 0, uint64(ghostKey), 6.25, special)
			seed++
		}
	}
	f.Add(uint64(99), uint8(5), uint8(33), uint16(1000), true, uint64(ghostKey), math.NaN(), uint8(leafPlain))
	f.Add(uint64(98), uint8(4), uint8(35), uint16(3), false, ^uint64(0), -1.0, uint8(leafPlain))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint8, n0 uint16, atEnd bool, key uint64, rc2 float64, special uint8) {
		lpos, q, tt, rc2 := leafInput(seed, int(rows)%10, int(cols)%64, special, rc2)
		room := uint64(hitCap - len(lpos)*len(q))
		n := uint64(n0) % (room + 1)
		if atEnd {
			n = room // the last candidate may land in the buffer's last entry
		}
		hits := new([hitCap]uint64)
		for i := range hits {
			hits[i] = hitMarker
		}
		got := searchShift(hits, n, key, lpos, q, tt, rc2)
		for i := range n {
			if hits[i] != hitMarker {
				t.Fatalf("%dx%d from n=%d: entry %d overwritten", len(lpos), len(q), n, i)
			}
		}
		want := n
		for a, p := range lpos {
			for b, qb := range q {
				dx, dy, dz := p.X-qb.X-tt.X, p.Y-qb.Y-tt.Y, p.Z-qb.Z-tt.Z
				if r2 := dx*dx + dy*dy + dz*dz; r2 >= rc2 || r2 == 0 {
					continue
				}
				if h := key + uint64(a)<<hitAShift + uint64(b); hits[want] != h {
					t.Fatalf("%dx%d from n=%d: hit %d is %#x, want %#x", len(lpos), len(q), n, want, hits[want], h)
				}
				want++
			}
		}
		if got != want {
			t.Fatalf("%dx%d from n=%d: searchShift counts %d hits, the plain test %d", len(lpos), len(q), n, got-n, want-n)
		}
	})
}

// BenchmarkKernelSearchLeaf times the search leaves alone over a row of
// cells with Poisson-ragged populations, at a mean of 4 (the 50k preset),
// 40 and 320 particles per cell (the condensation's crowded cells), and
// reports the time per candidate pair. The go rows call searchShift once
// per neighbour-cell pair, or row by row where the pair is larger than the
// hit buffer. The cell rows search each cell's own pairs and its pairs
// with the next cell through pass.pieces, as the walk does a cell that
// does not fit whole, on the cell leaf the CPU runs, starting the buffer
// over wherever a piece does not fit.
func BenchmarkKernelSearchLeaf(b *testing.B) {
	for _, ppc := range []int{4, 40, 320} {
		cells := leafBenchCells(ppc, max(4096/ppc, 16))
		cand := 0
		for c := 1; c < len(cells); c++ {
			cand += len(cells[c-1]) * len(cells[c])
		}
		benchmarkCellAxis(b, ppc, cells)
		b.Run(fmt.Sprintf("ppc=%d/go", ppc), func(b *testing.B) {
			hits := new([hitCap]uint64)
			var n uint64
			b.ResetTimer()
			for range b.N {
				for c := 1; c < len(cells); c++ {
					lpos, q := cells[c-1], cells[c]
					if need := len(lpos) * len(q); need > hitCap {
						for a := range lpos {
							n = searchShift(hits, 0, 0, lpos[a:a+1], q, vec.Zero, 6.25)
						}
						continue
					} else if n+uint64(need) > hitCap {
						n = 0
					}
					n = searchShift(hits, n, 0, lpos, q, vec.Zero, 6.25)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand), "ns/candidate")
		})
	}
}

// benchmarkCellAxis is BenchmarkKernelSearchLeaf's cell rows on cells.
func benchmarkCellAxis(b *testing.B, ppc int, cells [][]vec.V) {
	var ppos []vec.V
	start := []int{0}
	for _, c := range cells {
		ppos = append(ppos, c...)
		start = append(start, len(ppos))
	}
	cand := 0
	for c := 0; c+1 < len(cells); c++ {
		nl := len(cells[c])
		cand += nl*(nl-1)/2 + nl*len(cells[c+1])
	}
	cl := &CellLists{useShift: true, shift: *shiftTable(vec.New(10, 10, 10)), ppos: ppos, rc2: 6.25}
	b.Run(fmt.Sprintf("ppc=%d/cell", ppc), func(b *testing.B) {
		ps := pass{cl: cl, hits: new([hitCap]uint64)}
		var us [2]cellUnit
		b.ResetTimer()
		for range b.N {
			for c := 0; c+1 < len(cells); c++ {
				lo, nl, nq := start[c], start[c+1]-start[c], start[c+2]-start[c+1]
				k := 0
				if nl > 1 {
					us[k] = cellUnit{key: uint64(lo)<<hitAShift + uint64(lo) + 1, tri: true}
					k++
				}
				if nl > 0 && nq > 0 {
					us[k] = cellUnit{key: uint64(lo)<<hitAShift + uint64(start[c+1]), n: int32(nq)}
					k++
				}
				for at, done := (cursor{}), false; !done; {
					if at, done = ps.pieces(ppos[lo:start[c+1]], us[:k], at); !done {
						ps.n = 0
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand), "ns/candidate")
	})
}

// leafBenchCells drops ppc*nc particles uniformly into a row of nc cells of
// side 2.5 along x and returns each cell's positions: Poisson-ragged
// populations of mean ppc.
func leafBenchCells(ppc, nc int) [][]vec.V {
	r := rng.New(uint64(ppc))
	cells := make([][]vec.V, nc)
	for range ppc * nc {
		p := r.InBox(vec.New(2.5*float64(nc), 2.5, 2.5))
		c := min(int(p.X/2.5), nc-1)
		cells[c] = append(cells[c], p)
	}
	return cells
}
