package kernel

import "permcell/internal/vec"

// searchCellAVX2 is the vector cell leaf (search_amd64.s), searchCellGo's
// contract four candidates at a time. Each lane's squared distance is
// computed with searchShift's operations in its order, (p - q) - t per
// axis and (dx*dx + dy*dy) + dz*dz, with no fused multiply-add, and kept
// by countHit's two tests, !(r2 >= rc2) (so a NaN distance is a hit) and a
// non-zero bit pattern (so a coincident pair is not); the kept keys are
// left-packed in lane order and n advances by their count. So the call
// stores searchCellGo's hits in its order. A unit of up to four
// neighbours, or of five to eight with the round term +0, keeps them
// transposed in registers for all its rows; any other, and the triangle,
// is first copied to the frame transposed, at most cellCols neighbours
// (the tail of a unit read under VMASKMOVPD masks that stop at its end),
// and every row loads any four consecutive neighbours from the copy, the
// lanes past the count dropped. Code 0's round term, shift[0], is +0 and
// is not subtracted: (p - q) - 0 is p - q, bit for bit. Every step stores
// four entries, so the caller makes room for them all: n plus the call's
// candidates — len(lpos)*(len(lpos)-1)/2 for a triangle, len(lpos)*n per
// other unit — plus cellSlack is at most hitCap.
//
//go:noescape
func searchCellAVX2(hits *[hitCap]uint64, n uint64, lpos, ppos, ghostPos []vec.V, units []cellUnit, shift *[32]vec.V, rc2 float64) uint64

// cellStride is the bytes of one coordinate array of searchCellAVX2's
// copy, padded for a last group of four.
const cellStride = 8 * (cellCols + 4)

// cellFrame is searchCellAVX2's frame size, which its TEXT line spells out
// as a number: the three coordinate arrays of the copy, then the ends of
// units and of lpos. The blank index below stops the build when a new
// cellCols leaves the two apart.
const cellFrame = 3*cellStride + 16

var _ = [1]struct{}{}[cellFrame-1648]

// accumulateLJAVX2 is the accumulate phase for *potential.LJ on a shift
// grid, four hits at a time (accumulate_amd64.s). It accumulates the longest
// prefix of hits whose length is a multiple of four, into frc, gfrc and the
// running sums pot and vir, exactly as pass.accumulate would, and returns
// that length k with the new sums; the caller finishes hits[k:] in Go. Per
// group of four it decodes each hit, computes d = (p - q) - t one hit per
// 128-bit register, transposes to four-lane X, Y and Z vectors and evaluates
// r2 = (dx*dx + dy*dy) + dz*dz, the potential from c (see
// potential.LJ.Coefficients), f*r2 and fv = f*d with VSUBPD, VMULPD, VADDPD
// and VDIVPD, no fused multiply-add; then, hit by hit in order, it adds
// frc[a] += fv, pot += e, vir += f*r2 and frc[b] or gfrc[b] -= fv, each
// force a read-modify-write of memory. So every accumulator sees the Go
// loop's additions in its order. Every load and store is of one element's
// 16 and 8 bytes, and a group naming an index past the shorter of the
// slice it reads and the one it writes is left to the Go loop, whole, with
// nothing of it stored.
//
//go:noescape
func accumulateLJAVX2(hits []uint64, ppos, ghostPos, frc, gfrc []vec.V, shift *[32]vec.V, c ljCoef, pot, vir float64) (k int, potOut, virOut float64)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of extended control register 0: the state
// components the operating system saves across context switches.
func xgetbv() uint32

func init() {
	buildLeafTables(&leafTab)
	if hasAVX2() {
		vectorCells = true
		accumulateLJ = accumulateLJAVX2
	}
}

// hasAVX2 reports whether the CPU runs searchCellAVX2 and
// accumulateLJAVX2: AVX2 and POPCNT present, and YMM state saved by the
// operating system (OSXSAVE, and XCR0 enabling both the XMM and the YMM
// state).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// leafTables are the vector leaves' constants, laid out for their vector
// loads (the assembly reads the fields by the offsets go_asm.h gives).
type leafTables struct {
	lane, four, row [4]uint64 // the lane numbers; the key step of a group and of a row
	tri             [4]uint64 // the key step of a triangle's row: one row and one neighbour
	pack            [16][8]uint32
	short           [4]shortTail
	first           [4][4]uint64 // first[c]: lanes below c, the stores of c kept keys
}

// shortTail is a group of k <= 4 neighbours, at short[k-1]: k lanes,
// loaded under masks that stop at the group's end (a unit of four loads
// through short[3] too, to spare a branch).
type shortTail struct {
	load [3][4]uint64 // VMASKMOVPD masks of the group's three 32-byte loads
	keep [4]uint64    // lanes 0 to k-1
}

var leafTab leafTables

// buildLeafTables fills t. pack[m] holds the VPERMD dword indices that move
// the lanes set in the 4-bit mask m, in lane order, to the front.
func buildLeafTables(t *leafTables) {
	lanes := func(lo, hi int) (m [4]uint64) {
		for l := lo; l < hi; l++ {
			m[l] = ^uint64(0)
		}
		return m
	}
	for l := range 4 {
		t.lane[l], t.four[l], t.row[l], t.tri[l] = uint64(l), 4, 1<<hitAShift, 1<<hitAShift+1
		t.first[l] = lanes(0, l)
	}
	for m := range t.pack {
		i := 0
		for l := range 4 {
			if m&(1<<l) != 0 {
				t.pack[m][2*i], t.pack[m][2*i+1] = uint32(2*l), uint32(2*l+1)
				i++
			}
		}
	}
	for k := 1; k <= 4; k++ {
		short := &t.short[k-1]
		for w := range short.load { // word w holds coordinates 4w to 4w+3 of the group's 3k
			short.load[w] = lanes(0, min(max(3*k-4*w, 0), 4))
		}
		short.keep = lanes(0, k)
	}
}
