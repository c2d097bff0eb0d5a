package kernel

import (
	"fmt"
	"math"
	"testing"

	"permcell/internal/rng"
	"permcell/internal/vec"
)

// leafFunc is the signature the search leaves share.
type leafFunc = func(hits *[hitCap]uint64, n, key uint64, lpos, q []vec.V, t vec.V, rc2 float64) uint64

// namedLeaf is one search leaf under test.
type namedLeaf struct {
	name string
	leaf leafFunc
}

// leaves returns the Go leaf and, when this CPU runs it, the vector leaf;
// without it, tb says so.
func leaves(tb testing.TB) []namedLeaf {
	out := []namedLeaf{{"go", searchShift}}
	if v, ok := vectorLeaf(); ok {
		out = append(out, namedLeaf{"vector", v})
	} else {
		tb.Log("no AVX2 on this CPU (or no vector leaf on this GOARCH): the vector leaf is not run")
	}
	return out
}

// hitMarker fills the hit buffers before a leaf runs, so an entry below the
// starting count that a leaf overwrote shows.
const hitMarker = 0xdead_beef_dead_beef

// compareLeaves runs the Go leaf and leaf on the same input, each into
// its own buffer, and fails unless both return the same count, store the
// same hits and leave the entries before the starting count alone.
func compareLeaves(t *testing.T, leaf leafFunc, hits *[hitCap]uint64, n, key uint64, lpos, q []vec.V, tt vec.V, rc2 float64) {
	t.Helper()
	want := new([hitCap]uint64)
	for i := range want {
		want[i], hits[i] = hitMarker, hitMarker
	}
	nw := searchShift(want, n, key, lpos, q, tt, rc2)
	ng := leaf(hits, n, key, lpos, q, tt, rc2)
	if ng != nw {
		t.Fatalf("%dx%d from n=%d: the vector leaf counts %d hits, the Go leaf %d", len(lpos), len(q), n, ng-n, nw-n)
	}
	for i := range nw {
		if hits[i] != want[i] {
			t.Fatalf("%dx%d from n=%d: hit %d is %#x, want %#x", len(lpos), len(q), n, i, hits[i], want[i])
		}
	}
}

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

// FuzzSearchLeaf: the vector leaf returns the Go leaf's count and stores its
// hits, in its order, on every input — NaN and infinite coordinates,
// coincident pairs, distances exactly at and one ulp inside the cut-off,
// any cut-off (NaN included), rows of every length mod 4, any starting
// count up to a buffer filled to its last entry, and any key. Without AVX2
// there is nothing to compare, and it says so.
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
		vector, ok := vectorLeaf()
		if !ok {
			t.Skip("no AVX2 on this CPU (or no vector leaf on this GOARCH): nothing to compare")
		}
		lpos, q, tt, rc2 := leafInput(seed, int(rows)%10, int(cols)%64, special, rc2)
		room := uint64(hitCap - len(lpos)*len(q))
		n := uint64(n0) % (room + 1)
		if atEnd {
			n = room // the last candidate may land in the buffer's last entry
		}
		compareLeaves(t, vector, new([hitCap]uint64), n, key, lpos, q, tt, rc2)
	})
}

// BenchmarkKernelSearchLeaf times each search leaf alone over the
// neighbour-cell pairs of a row of cells with Poisson-ragged populations,
// at a mean of 4 (the 50k preset), 40 and 320 particles per cell (the
// condensation's crowded cells), and reports the time per candidate pair.
// A cell pair larger than the hit buffer is searched row by row, as the
// force pass does. The cell axis searches each cell's own pairs and its
// pairs with the next cell: units calls a leaf per unit as pass.search
// does — the triangle row by row, a call of fewer than four candidates on
// the Go leaf — and whole calls the cell leaf once per cell where the cell
// fits the buffer and its bounds, else units' calls, as pass.walk does (at
// 320 per cell no cell fits).
func BenchmarkKernelSearchLeaf(b *testing.B) {
	for _, ppc := range []int{4, 40, 320} {
		cells := leafBenchCells(ppc, max(4096/ppc, 16))
		cand := 0
		for c := 1; c < len(cells); c++ {
			cand += len(cells[c-1]) * len(cells[c])
		}
		benchmarkCellAxis(b, ppc, cells)
		for _, l := range leaves(b) {
			b.Run(fmt.Sprintf("ppc=%d/%s", ppc, l.name), func(b *testing.B) {
				hits := new([hitCap]uint64)
				var n uint64
				b.ResetTimer()
				for range b.N {
					for c := 1; c < len(cells); c++ {
						lpos, q := cells[c-1], cells[c]
						if need := len(lpos) * len(q); need > hitCap {
							for a := range lpos {
								n = l.leaf(hits, 0, 0, lpos[a:a+1], q, vec.Zero, 6.25)
							}
							continue
						} else if n+uint64(need) > hitCap {
							n = 0
						}
						n = l.leaf(hits, n, 0, lpos, q, vec.Zero, 6.25)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand), "ns/candidate")
			})
		}
	}
}

// benchmarkCellAxis is BenchmarkKernelSearchLeaf's cell axis on cells.
func benchmarkCellAxis(b *testing.B, ppc int, cells [][]vec.V) {
	cell, ok := vectorCellLeaf()
	if !ok {
		return
	}
	var ppos []vec.V
	start := []int{0}
	for _, c := range cells {
		ppos = append(ppos, c...)
		start = append(start, len(ppos))
	}
	shift := shiftTable(vec.New(10, 10, 10))
	const rc2 = 6.25
	cand := 0
	for c := 0; c+1 < len(cells); c++ {
		nl := len(cells[c])
		cand += nl*(nl-1)/2 + nl*len(cells[c+1])
	}
	// units searches cell c unit by unit into hits from n, flushing (here:
	// starting over) when a unit does not fit, as pass.search does.
	units := func(hits *[hitCap]uint64, n uint64, c int) uint64 {
		lpos, q := ppos[start[c]:start[c+1]], ppos[start[c+1]:start[c+2]]
		search := func(key uint64, lpos, q []vec.V) {
			need := uint64(len(lpos) * len(q))
			if n+need > hitCap {
				n = 0
			}
			leaf := searchLeaf
			if need < 4 {
				leaf = searchShift
			}
			n = leaf(hits, n, key, lpos, q, vec.Zero, rc2)
		}
		for a := 0; a+1 < len(lpos); a++ {
			row := uint64(start[c] + a)
			search(row<<hitAShift+row+1, lpos[a:a+1], lpos[a+1:])
		}
		if len(q) > 0 {
			if len(lpos)*len(q) > hitCap {
				for a := range lpos {
					search(uint64(start[c]+a)<<hitAShift+uint64(start[c+1]), lpos[a:a+1], q)
				}
			} else {
				search(uint64(start[c])<<hitAShift+uint64(start[c+1]), lpos, q)
			}
		}
		return n
	}
	for _, whole := range []bool{false, true} {
		name := "units"
		if whole {
			name = "whole"
		}
		b.Run(fmt.Sprintf("ppc=%d/cell/%s", ppc, name), func(b *testing.B) {
			hits := new([hitCap]uint64)
			var us [2]cellUnit
			var n uint64
			b.ResetTimer()
			for range b.N {
				for c := 0; c+1 < len(cells); c++ {
					lo, nl, nq := start[c], start[c+1]-start[c], start[c+2]-start[c+1]
					need := uint64(nl*(nl-1)/2+nl*nq) + cellSlack
					if !whole || need > hitCap || max(nl-1, nq) > cellCols {
						n = units(hits, n, c)
						continue
					}
					if n+need > hitCap {
						n = 0
					}
					k := 0
					if nl > 1 {
						us[k] = cellUnit{key: uint64(lo)<<hitAShift + uint64(lo) + 1, tri: true}
						k++
					}
					if nl > 0 && nq > 0 {
						us[k] = cellUnit{key: uint64(lo)<<hitAShift + uint64(start[c+1]), n: int32(nq)}
						k++
					}
					n = cell(hits, n, ppos[lo:start[c+1]], ppos, nil, us[:k], shift, rc2)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cand), "ns/candidate")
		})
	}
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
