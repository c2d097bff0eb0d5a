package kernel

import (
	"math"
	"slices"
	"testing"

	"permcell/internal/rng"
	"permcell/internal/vec"
)

// oracleHits is the search phase of a whole pass over cl's hosted cells,
// written plainly: every candidate pair in visiting order — slot, its own
// pairs row by row, then its stencil entries, then a, then b — kept by
// !(r2 >= rc2) && r2 != 0 on r2 computed as the leaves compute it. It
// returns the hits, the bits of their squared distances and the census.
func oracleHits(cl *CellLists) (hits, r2s []uint64, pairs, lent int64) {
	keep := func(key uint64, p, q vec.V) {
		var r2 float64
		if cl.useShift {
			t := cl.shift[key>>hitCodeShift%32]
			dx, dy, dz := p.X-q.X-t.X, p.Y-q.Y-t.Y, p.Z-q.Z-t.Z
			r2 = dx*dx + dy*dy + dz*dz
		} else {
			r2 = p.Sub(q).MinImage(cl.g.Box.L).Norm2()
		}
		if !(r2 >= cl.rc2) && r2 != 0 {
			hits, r2s = append(hits, key), append(r2s, math.Float64bits(r2))
		}
	}
	for slot := range cl.NumHosted() {
		lo, hi := int(cl.start[slot]), int(cl.start[slot+1])
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				keep(uint64(a)<<hitAShift+uint64(b), cl.ppos[a], cl.ppos[b])
			}
		}
		nl := int64(hi - lo)
		pairs += nl * (nl - 1) / 2
		for k := cl.stStart[slot]; k < cl.stStart[slot+1]; k++ {
			e, code := cl.stencil[k], cl.stCode[k]
			from, b0, b1, ghost := cl.ppos, 0, 0, uint64(0)
			if e >= 0 {
				b0, b1 = int(cl.start[e]), int(cl.start[e+1])
			} else {
				from, b0, b1, ghost = cl.ghostPos, int(cl.ghostStart[-1-e]), int(cl.ghostStart[-e]), hitGhost
			}
			pairs += nl * int64(b1-b0)
			if code == countOnly {
				lent += nl * int64(b1-b0)
				continue
			}
			for a := lo; a < hi; a++ {
				for b := b0; b < b1; b++ {
					keep(uint64(a)<<hitAShift+uint64(code)<<hitCodeShift+ghost+uint64(b), cl.ppos[a], from[b])
				}
			}
		}
	}
	return hits, r2s, pairs, lent
}

// r2Log is a pair of cut-off 2.5 that logs the bits of the squared
// distance of every hit the accumulate phase hands it, in order, and
// exerts no force.
type r2Log struct{ r2s *[]uint64 }

func (p r2Log) Cutoff() float64 { return 2.5 }
func (p r2Log) EnergyForce(r2 float64) (e, f float64) {
	*p.r2s = append(*p.r2s, math.Float64bits(r2))
	return 0, 0
}

// piecesDomains returns crowded states whose cells the walk must cut into
// pieces of every kind: on a shift grid, cells of 30 whose units fit only
// in runs, a cell of 100 — a triangle wider than the leaf's frame — beside
// one of 50, a unit of 100 rows that no buffer holds whole, two cells of
// 150 (wide triangles, wide units) and a ghost cell of 4 100 beside hosted
// cells of a few, whose rows are longer than the whole buffer; on a
// min-image grid, a cell of 100 beside one of 70.
func piecesDomains(t *testing.T) []workerDomain {
	r := rng.New(9)
	g := gridOf(t, 4, 4, 4)
	gas := randomGas(g, 3*g.NumCells(), 9)
	for _, c := range []struct{ ix, iy, iz, n int }{
		{0, 0, 0, 30}, {1, 0, 0, 30}, {0, 1, 0, 30},
		{0, 2, 2, 100}, {1, 2, 2, 50},
		{0, 1, 3, 150}, {1, 1, 3, 150},
		{2, 2, 0, 4100},
	} {
		gas = crowd(gas, g, c.ix, c.iy, c.iz, c.n, r)
	}
	west := func(cell int) bool { ix, _, _ := g.Coords(cell); return ix < 2 }

	g3 := gridOf(t, 3, 3, 3)
	gas3 := randomGas(g3, 3*g3.NumCells(), 10)
	gas3 = crowd(gas3, g3, 0, 0, 0, 100, r)
	gas3 = crowd(gas3, g3, 1, 0, 0, 70, r)
	return []workerDomain{
		{"shift", g, gas, west},
		{"min-image", g3, gas3, func(int) bool { return true }},
	}
}

// pieceOffsets are the fills a pass starts from in TestWalkPiecesMatchOracle:
// each moves every piece boundary of the pass. The largest leaves room for
// a window of cellCols.
var pieceOffsets = []uint64{0, 1, 2, 3, 5, 17, 63, 64, 65, 1000, 2047, 3001, hitCap - cellSlack - cellCols}

// TestWalkPiecesMatchOracle: on cells cut into pieces of every kind —
// runs of whole units, blocks of rows, windows of a row — the walk stores
// the plain oracle's hits in its order and counts its census, with the Go
// cell leaf and, where the CPU has it, the vector one. Searcher passes,
// which cannot flush, start from every fill of pieceOffsets and resume
// where the last one stopped; between them they stop at unit, row-block
// and window boundaries. The owner, which flushes, starts from the same
// fills, and its accumulate phase must see the oracle's squared distances
// in the oracle's order.
func TestWalkPiecesMatchOracle(t *testing.T) {
	selected := vectorCells
	t.Cleanup(func() { vectorCells = selected })
	for _, d := range piecesDomains(t) {
		local := localOf(d.g, d.global, d.pred)
		cl := buildFlat(t, d.g, local, d.global, d.pred)
		var log []uint64
		cl.begin(r2Log{&log})
		wantHits, wantR2, wantPairs, wantLent := oracleHits(cl)
		end := cl.NumHosted()
		for name, vector := range cellLeaves(t) {
			vectorCells = vector
			var stops [3]int // at a unit's first row, a later row, inside a row
			for _, n0 := range pieceOffsets {
				var hits []uint64
				var pairs, lent int64
				fill := n0
				for from := (cursor{}); from.i < end; {
					ps := pass{cl: cl, hits: new([hitCap]uint64), n: fill}
					next := ps.walk(from, end)
					if next == from {
						if fill == 0 {
							t.Fatalf("%s, %s leaf, n0=%d: a searcher stopped at %+v without a piece", d.name, name, n0, from)
						}
						fill = 0 // a triangle larger than the room: a fresh segment holds it
						continue
					}
					hits = append(hits, ps.hits[fill:ps.n]...)
					fill = n0
					pairs, lent = pairs+ps.pairs, lent+ps.lent
					if next.i < end {
						switch {
						case next.b > 0:
							stops[2]++
						case next.a > 0:
							stops[1]++
						case next.u > 0:
							stops[0]++
						}
					}
					from = next
				}
				if pairs != wantPairs || lent != wantLent {
					t.Fatalf("%s, %s leaf, n0=%d: searchers count %d pairs, %d lent, want %d, %d", d.name, name, n0, pairs, lent, wantPairs, wantLent)
				}
				if i := firstDiff(hits, wantHits); i >= 0 {
					t.Fatalf("%s, %s leaf, n0=%d: searchers store %d hits, want %d, first apart at %d", d.name, name, n0, len(hits), len(wantHits), i)
				}

				// The owner: a buffer holding n0 hits of a particle on itself.
				log = log[:0]
				ps := pass{cl: cl, hits: cl.hits, n: n0, flushes: true, frc: cl.pfrc, gfrc: cl.gfrc}
				clear(cl.hits[:n0])
				if stop := ps.walk(cursor{}, end); stop != (cursor{i: end}) {
					t.Fatalf("%s, %s leaf, n0=%d: the owner stopped at %+v", d.name, name, n0, stop)
				}
				ps.flush()
				if ps.pairs != wantPairs || ps.lent != wantLent {
					t.Fatalf("%s, %s leaf, n0=%d: the owner counts %d pairs, %d lent, want %d, %d", d.name, name, n0, ps.pairs, ps.lent, wantPairs, wantLent)
				}
				if i := firstDiff(log[n0:], wantR2); i >= 0 {
					t.Fatalf("%s, %s leaf, n0=%d: the owner accumulates %d hits, want %d, first apart at %d", d.name, name, n0, len(log)-int(n0), len(wantR2), i)
				}
			}
			t.Logf("%s, %s leaf: %d hits; searchers stopped %d times at a unit, %d at a row, %d inside a row", d.name, name, len(wantHits), stops[0], stops[1], stops[2])
			if d.name == "shift" && slices.Contains(stops[:], 0) {
				t.Fatalf("%s leaf: searchers stopped %d times at a unit, %d at a row, %d inside a row: a boundary went untested", name, stops[0], stops[1], stops[2])
			}
		}
	}
}

// firstDiff returns the first index at which got and want differ, or -1
// when they are the same.
func firstDiff(got, want []uint64) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}
