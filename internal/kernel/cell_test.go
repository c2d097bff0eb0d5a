package kernel

import (
	"math"
	"testing"
	"time"

	"permcell/internal/rng"
	"permcell/internal/vec"
)

// cellLeafFunc is the cell leaf's signature.
type cellLeafFunc = func(hits *[hitCap]uint64, n uint64, lpos, ppos, ghostPos []vec.V, units []cellUnit, shift *[32]vec.V, rc2 float64) uint64

// BenchmarkKernelSearchShape times the search leaves on three shapes of
// the same 16 groups of four candidates — calls x rows x groups per row:
// 1x4x4, 4x4x1 and 1x16x1 — and splits their cost into a fixed part per
// call, per row and per group: 4x4x1 less 1x16x1 is three calls, 1x16x1
// less 1x4x4 twelve rows. The Go unit leaf, searchShift, is called
// directly. The vector cell leaf takes 4x4x1's four calls as four units of
// one call, so its fixed part is per unit (ns/unit): what is left of a
// unit's cost once the call is shared by a whole cell. The Go around each
// call — pass.walk and pass.searchCell — is not in these numbers.
func BenchmarkKernelSearchShape(b *testing.B) {
	r := rng.New(7)
	ppos := make([]vec.V, 32) // 16 rows, then 16 neighbours in the next cell
	for i := range ppos {
		ppos[i] = r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(2.5*float64(i/16), 0, 0))
	}
	lpos, q := ppos[:16], ppos[16:]
	shift := shiftTable(vec.New(10, 10, 10))
	const rc2, reps = 6.25, 64
	hits := new([hitCap]uint64)
	type shape struct {
		name string
		run  func() uint64
	}
	type leafRun struct {
		name, fixed string // the leaf; what its fixed part is per
		shapes      []shape
	}
	runs := []leafRun{{"unit-go", "call", []shape{
		{"1x4x4", func() uint64 { return searchShift(hits, 0, 0, lpos[:4], q, vec.Zero, rc2) }},
		{"4x4x1", func() uint64 {
			n := searchShift(hits, 0, 0, lpos[:4], q[:4], vec.Zero, rc2)
			n = searchShift(hits, n, 0, lpos[:4], q[4:8], vec.Zero, rc2)
			n = searchShift(hits, n, 0, lpos[:4], q[8:12], vec.Zero, rc2)
			return searchShift(hits, n, 0, lpos[:4], q[12:], vec.Zero, rc2)
		}},
		{"1x16x1", func() uint64 { return searchShift(hits, 0, 0, lpos, q[:4], vec.Zero, rc2) }},
	}}}
	if cell, ok := vectorCellLeaf(); ok {
		four := []cellUnit{{key: 16, n: 4}, {key: 20, n: 4}, {key: 24, n: 4}, {key: 28, n: 4}}
		whole := []cellUnit{{key: 16, n: 16}}
		runs = append(runs, leafRun{"cell-vector", "unit", []shape{
			{"1x4x4", func() uint64 { return cell(hits, 0, lpos[:4], ppos, nil, whole, shift, rc2) }},
			{"4x4x1", func() uint64 { return cell(hits, 0, lpos[:4], ppos, nil, four, shift, rc2) }},
			{"1x16x1", func() uint64 { return cell(hits, 0, lpos, ppos, nil, four[:1], shift, rc2) }},
		}})
	}
	for _, run := range runs {
		b.Run(run.name, func(b *testing.B) {
			var total [3]time.Duration
			var sink uint64
			for range b.N {
				for i, s := range run.shapes {
					t0 := time.Now()
					for range reps {
						sink += s.run()
					}
					total[i] += time.Since(t0)
				}
			}
			per := func(i int) float64 { return float64(total[i].Nanoseconds()) / float64(b.N*reps) }
			call := (per(1) - per(2)) / 3
			row := (per(2) - per(0)) / 12
			for i, s := range run.shapes {
				b.ReportMetric(per(i), s.name+"-ns")
			}
			b.ReportMetric(call, "ns/"+run.fixed)
			b.ReportMetric(row, "ns/row")
			b.ReportMetric((per(0)-call-4*row)/16, "ns/group")
			if sink == 1 {
				b.Log(sink)
			}
		})
	}
}

// cellInput is one FuzzSearchCell case: a cell of rows particles at lpos =
// ppos[lo:lo+rows], its units — the triangle when tri is set, then one
// unit per entry of lens, hosted or ghost by the bits of ghosts, each with
// a round-term code drawn from 0-26 — and the positions they name.
type cellInput struct {
	lpos, ppos, ghostPos []vec.V
	units                []cellUnit
	shift                *[32]vec.V
	rc2                  float64
}

// need is the hit room the cell leaf needs for in, cellSlack included.
func (in cellInput) need() int {
	nl, need := len(in.lpos), cellSlack
	for _, u := range in.units {
		if u.tri {
			need += nl * (nl - 1) / 2
		} else {
			need += nl * int(u.n)
		}
	}
	return need
}

// Shapes of a FuzzSearchCell call: a whole cell, or one of the pieces
// pass.pieces makes of a cell that does not fit whole.
const (
	cellWhole   = iota // the cell's rows, its triangle and its units
	cellWindows        // one row; its first neighbour run 2*cellCols + len long, as windows of cellCols with key offsets
	cellTriRow         // one row of the cell; its triangle row as a unit of code 0, then the units
	cellShapes
)

// newCellInput draws a cell in [0, 2.5)^3 and each unit's neighbours in the
// next cell along x, moved by minus the unit's round term so that about
// one candidate in six is a hit whatever the code, cuts the call to shape,
// then plants the special (leafNaN and friends): in a random row, or in
// the first neighbour unit's first neighbour — for the last three given
// code 0, or, with no neighbour there, in another row of the triangle.
func newCellInput(seed uint64, rows int, tri bool, lens []int, ghosts uint8, special uint8, rc2 float64, shape uint8) cellInput {
	r := rng.New(seed)
	special %= leafSpecials
	shape %= cellShapes
	exact := special == leafCoincident || special == leafAtCutoff || special == leafUlpBelow
	in := cellInput{shift: shiftTable(vec.New(10, 10, 10)), rc2: rc2}
	lo := r.Intn(5) // hosted particles before the cell
	for range lo + rows {
		in.ppos = append(in.ppos, r.InBox(vec.New(2.5, 2.5, 2.5)))
	}
	row, nrows := 0, rows // the rows the call searches
	if shape != cellWhole && rows > 0 {
		row, nrows, tri = r.Intn(rows), 1, false
	}
	base := uint64(lo+row) << hitAShift
	if tri {
		in.units = append(in.units, cellUnit{key: base + uint64(lo) + 1, tri: true})
	}
	if shape == cellTriRow && row+1 < rows {
		in.units = append(in.units, cellUnit{key: base + uint64(lo+row+1), n: int32(rows - 1 - row)})
	}
	nbr := len(in.units) // the first neighbour unit
	for i, n := range lens {
		code := uint8(r.Intn(27))
		if i == 0 && exact {
			code = 0
		}
		ghost := ghosts&(1<<i) != 0
		from := &in.ppos
		if ghost {
			from = &in.ghostPos
		}
		windows := shape == cellWindows && i == 0
		if windows {
			n += 2 * cellCols
		}
		b := len(*from)
		for range n {
			*from = append(*from, r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(2.5, 0, 0)).Sub(in.shift[code]))
		}
		key := base + uint64(code)<<hitCodeShift + uint64(b)
		if ghost {
			key += hitGhost
		}
		if !windows {
			in.units = append(in.units, cellUnit{key: key, n: int32(n)})
			continue
		}
		for off := 0; off < n; off += cellCols {
			in.units = append(in.units, cellUnit{key: key + uint64(off), n: int32(min(cellCols, n-off))})
		}
	}
	var first *vec.V // the first neighbour unit's first neighbour
	if nbr < len(in.units) && in.units[nbr].n > 0 {
		u := in.units[nbr]
		from := in.ppos
		if u.key&hitGhost != 0 {
			from = in.ghostPos
		}
		first = &from[u.key%hitGhost]
	}
	in.lpos = in.ppos[lo+row : lo+row+nrows]
	if nrows == 0 {
		return in
	}
	a := r.Intn(nrows)
	if exact && first == nil {
		if nrows < 2 {
			return in
		}
		first = &in.lpos[(a+1)%nrows] // a pair of the triangle, t = 0
	}
	switch special {
	case leafNaN:
		in.lpos[a].X = math.NaN()
	case leafPosInf:
		in.lpos[a].Y = math.Inf(1)
	case leafNegInf:
		if first != nil {
			first.Z = math.Inf(-1)
		}
	case leafCoincident:
		*first = in.lpos[a]
	case leafAtCutoff, leafUlpBelow:
		// dx = 1.25 - 3.75 = -2.5 exactly, so r2 = 6.25 exactly.
		in.lpos[a], *first = vec.New(1.25, 0.5, 0.75), vec.New(3.75, 0.5, 0.75)
		in.rc2 = 6.25
		if special == leafUlpBelow {
			in.rc2 = math.Nextafter(6.25, math.Inf(1))
		}
	}
	return in
}

// compareCell runs the cell leaf and searchCellGo on in from count n, each
// into its own buffer filled with hitMarker, and fails unless both return
// the same count, store the same hits and leave the entries below n alone.
func compareCell(t *testing.T, cell cellLeafFunc, hits *[hitCap]uint64, n uint64, in cellInput) {
	t.Helper()
	want := new([hitCap]uint64)
	for i := range want {
		want[i], hits[i] = hitMarker, hitMarker
	}
	nw := searchCellGo(want, n, in.lpos, in.ppos, in.ghostPos, in.units, in.shift, in.rc2, nil)
	ng := cell(hits, n, in.lpos, in.ppos, in.ghostPos, in.units, in.shift, in.rc2)
	if ng != nw {
		t.Fatalf("%d rows, units %+v from n=%d: the cell leaf counts %d hits, the Go leaves %d", len(in.lpos), in.units, n, ng-n, nw-n)
	}
	for i := range nw {
		if hits[i] != want[i] {
			t.Fatalf("%d rows, units %+v from n=%d: hit %d is %#x, want %#x", len(in.lpos), in.units, n, i, hits[i], want[i])
		}
	}
}

// FuzzSearchCell: the vector cell leaf returns the Go cell leaf's count
// and stores its hits, in its order, on every input — whole cells
// (triangles of 0 to 9 rows, or 60 to 65, and units of every length mod 4
// and empty ones, hosted and ghost, round terms of every code) and the
// pieces pass.pieces makes of a cell that does not fit whole (one row
// against a neighbour run cut into windows of cellCols with key offsets,
// one row of a triangle as a unit of code 0, then units), NaN and infinite
// coordinates, coincident pairs, distances exactly at and one ulp inside
// the cut-off, any cut-off (NaN included), and any starting count up to a
// buffer the call leaves cellSlack entries of — and leaves every entry
// below the starting count alone. lens packs up to eight unit lengths of
// four bits; long makes the first unit cellCols - (long mod 8) long, or
// its windows' run that much past 2*cellCols. Without AVX2 there is
// nothing to compare, and it says so.
func FuzzSearchCell(f *testing.F) {
	seed := uint64(1)
	for rows := range uint8(10) {
		for _, lens := range []uint64{0, 0x1, 0x4321, 0x0f0e0d0c, 0x87654321, 0x05000b00} {
			f.Add(seed, rows, rows%3 != 0, lens, uint8(seed*37), uint8(0), uint16(seed*53), seed%4 == 0, 6.25, uint8(leafPlain), uint8(cellWhole))
			seed++
		}
	}
	for special := range uint8(leafSpecials) {
		for _, rows := range []uint8{1, 2, 3, 4, 5, 7} {
			f.Add(seed, rows, true, uint64(0x3521), uint8(seed), uint8(0), uint16(seed*91), false, 6.25, special, uint8(cellWhole))
			f.Add(seed+1, rows, false, uint64(0x7), uint8(0), uint8(0), uint16(0), true, 6.25, special, uint8(cellWhole))
			seed += 2
		}
	}
	for first := range uint64(13) { // a first unit of every count to 12 on code 0: each register path and the copy
		f.Add(seed, uint8(3+first%3), first%2 == 0, 0x40+first, uint8(first), uint8(0), uint16(first*17), false, 6.25, uint8(leafCoincident), uint8(cellWhole))
		seed++
	}
	for long := range uint8(8) {
		f.Add(seed, uint8(10+long), true, uint64(0x21), uint8(2), long+8, uint16(7), long%2 == 0, 6.25, uint8(leafPlain), uint8(cellWhole))
		seed++
	}
	f.Add(uint64(99), uint8(6), true, uint64(0x5432), uint8(3), uint8(0), uint16(1000), true, math.NaN(), uint8(leafPlain), uint8(cellWhole))
	f.Add(uint64(98), uint8(4), true, uint64(0x3), uint8(1), uint8(0), uint16(3), false, -1.0, uint8(leafPlain), uint8(cellWhole))
	f.Add(uint64(97), uint8(9), true, uint64(0xfff), uint8(0), uint8(0), uint16(0), false, 1e300, uint8(leafPlain), uint8(cellWhole))
	for shape := uint8(cellWindows); shape < cellShapes; shape++ { // the pieces, rows 1 to 64 wide
		for _, rows := range []uint8{1, 2, 5, 9, 10, 15} {
			for _, special := range []uint8{leafPlain, leafCoincident} {
				f.Add(seed, rows, true, uint64(0x0b05), uint8(seed), 8+rows%2*7, uint16(seed*29), seed%3 == 0, 6.25, special, shape)
				seed++
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, rows uint8, tri bool, lens uint64, ghosts uint8, long uint8, n0 uint16, atEnd bool, rc2 float64, special, shape uint8) {
		cell, ok := vectorCellLeaf()
		if !ok {
			t.Skip("no AVX2 on this CPU (or no vector leaf on this GOARCH): nothing to compare")
		}
		nl := int(rows) % 10
		if rows >= 10 {
			nl = 60 + int(rows)%6 // a triangle near the cell leaf's bound
		}
		var ls []int
		for ; lens != 0; lens >>= 4 {
			ls = append(ls, int(lens&15))
		}
		if long >= 8 && len(ls) > 0 {
			ls[0] = cellCols - int(long%8)
		}
		in := newCellInput(seed, nl, tri, ls, ghosts, special, rc2, shape)
		for in.need() > hitCap {
			in.units = in.units[:len(in.units)-1] // a cell the walk would cut into pieces
		}
		room := uint64(hitCap - in.need())
		n := uint64(n0) % (room + 1)
		if atEnd {
			n = room // the last step's four entries end at the buffer's last
		}
		compareCell(t, cell, new([hitCap]uint64), n, in)
	})
}
