package kernel

import (
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"permcell/internal/potential"
	"permcell/internal/rng"
	"permcell/internal/vec"
)

// guarded maps at least size bytes followed by an inaccessible page and
// returns the accessible part, so a read or write past its end faults.
func guarded(t *testing.T, size int) []byte {
	t.Helper()
	page := os.Getpagesize()
	size = (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[:size:size]
}

// atEnd returns the n positions that end where mem ends.
func atEnd(mem []byte, n int) []vec.V {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*vec.V)(unsafe.Pointer(&mem[len(mem)-n*int(unsafe.Sizeof(vec.V{}))])), n)
}

// TestAccumulateLeafStaysInBounds: with ppos, ghostPos, frc, gfrc and the
// hit list each ending flush against an inaccessible page, and hits naming
// the last element of each, the vector accumulate leaf reads and writes
// nothing past any of them, for 0 to 13 hits (every tail), and leaves the
// Go loop's bits. A hit naming an index one past its slice ends in the Go
// loop's index panic, not in a fault. A stray access faults, and the fault
// fails the test.
func TestAccumulateLeafStaysInBounds(t *testing.T) {
	vector, ok := vectorAccumulate()
	if !ok {
		t.Skip("no AVX2 on this CPU (or no vector leaf on this GOARCH): nothing to test")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const nh, ng = 6, 5
	v := int(unsafe.Sizeof(vec.V{}))
	ppos, ghostPos := atEnd(guarded(t, nh*v), nh), atEnd(guarded(t, ng*v), ng)
	frc, gfrc := atEnd(guarded(t, nh*v), nh), atEnd(guarded(t, ng*v), ng)
	hitMem := guarded(t, 14*8)
	lj, err := potential.NewLJ(1, 1, 2.5, true)
	if err != nil {
		t.Fatal(err)
	}
	shift := shiftTable(vec.New(10, 10, 10))
	r := rng.New(6)
	for i := range ppos {
		ppos[i] = r.InBox(vec.New(2.5, 2.5, 2.5))
	}
	for i := range ghostPos {
		ghostPos[i] = r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(2.5, 0, 0))
	}
	// The last hosted a, the last hosted b, the last ghost b, by turns.
	pattern := []uint64{hitOf(nh-1, 0, false, 0), hitOf(nh-2, 0, false, nh-1), hitOf(0, 0, true, ng-1)}
	for n := range 14 {
		for _, past := range []bool{false, true} {
			if past && n == 0 {
				continue
			}
			var hits []uint64
			if n > 0 {
				hits = unsafe.Slice((*uint64)(unsafe.Pointer(&hitMem[len(hitMem)-8*n])), n)
			}
			for i := range hits {
				hits[i] = pattern[i%len(pattern)]
			}
			if past {
				hits[n-1] = hitOf(0, 0, true, ng) // one past ghostPos's end
			}
			clear(frc)
			clear(gfrc)
			st := accState{ppos: ppos, ghostPos: ghostPos, frc: frc, gfrc: gfrc}
			want := st.clone()
			wantPanic := runAccumulate(nil, lj, shift, hits, &want)
			gotPanic := runAccumulate(vector, lj, shift, hits, &st)
			if past != (wantPanic != nil) {
				t.Fatalf("%d hits, past=%v: the Go loop panicked with %v", n, past, wantPanic)
			}
			if msg := fmt.Sprint(gotPanic); past != (gotPanic != nil) || past && !strings.Contains(msg, "index out of range") {
				t.Fatalf("%d hits, past=%v: the vector leaf panicked with %v", n, past, gotPanic)
			}
			if msg := st.diff(want, !past); msg != "" {
				t.Fatalf("%d hits, past=%v: %s", n, past, msg)
			}
		}
	}
}

// TestSearchCellStaysInBounds: with lpos, a hosted unit's neighbours at the
// end of ppos, a ghost unit's at the end of ghostPos and the hit buffer's
// last entry each flush against an inaccessible page, the cell leaf reads
// nothing past any of them and stores nothing past the buffer — the call
// filled to its last entry, the four stores of its last step included —
// for cells of 1 to 5 rows (their triangles) and units of 0 to 13 and of
// cellCols-1 and cellCols (a window), and still agrees with the Go leaf. A
// stray access faults, and the fault fails the test.
func TestSearchCellStaysInBounds(t *testing.T) {
	cell, ok := vectorCellLeaf()
	if !ok {
		t.Skip("no AVX2 on this CPU (or no vector leaf on this GOARCH): nothing to test")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rowMem, hostMem, ghostMem := guarded(t, 1), guarded(t, 1), guarded(t, 1)
	hitMem := guarded(t, hitCap*8)
	hits := (*[hitCap]uint64)(unsafe.Pointer(&hitMem[len(hitMem)-hitCap*8]))
	shift := shiftTable(vec.New(10, 10, 10))
	r := rng.New(5)
	for rows := 1; rows <= 5; rows++ {
		for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, cellCols - 1, cellCols} {
			lpos, ppos, ghostPos := atEnd(rowMem, rows), atEnd(hostMem, cols), atEnd(ghostMem, cols)
			for i := range lpos {
				lpos[i] = r.InBox(vec.New(2.5, 2.5, 2.5))
			}
			for i := range ppos {
				ppos[i] = r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(2.5, 0, 0))
				ghostPos[i] = r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(0, 2.5, 0))
			}
			in := cellInput{lpos: lpos, ppos: ppos, ghostPos: ghostPos, shift: shift, rc2: 6.25, units: []cellUnit{
				{key: 5<<hitAShift + 6, tri: true},
				{key: 5 << hitAShift, n: int32(cols)},
				{key: 5<<hitAShift + 13<<hitCodeShift + hitGhost, n: int32(cols)},
			}}
			for _, n := range []uint64{0, uint64(hitCap - in.need())} {
				func() {
					defer func() {
						if err := recover(); err != nil {
							t.Fatalf("%d rows, %d neighbours from n=%d: %v", rows, cols, n, err)
						}
					}()
					compareCell(t, cell, hits, n, in)
				}()
			}
		}
	}
}
