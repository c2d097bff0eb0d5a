package kernel

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

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

// TestSearchLeafStaysInBounds: with q's last element, the row block's last
// element and the hit buffer's last entry each flush against an
// inaccessible page, the vector leaf reads nothing past len(q) or len(lpos)
// and stores nothing past the buffer, for row lengths 0 to 13 and a buffer
// the search fills to its last entry, and still agrees with the Go leaf.
// A stray access faults, and the fault fails the test.
func TestSearchLeafStaysInBounds(t *testing.T) {
	vector, ok := vectorLeaf()
	if !ok {
		t.Skip("no AVX2 on this CPU (or no vector leaf on this GOARCH): nothing to test")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	qMem, rowMem := guarded(t, 1), guarded(t, 1)
	hitMem := guarded(t, hitCap*8)
	hits := (*[hitCap]uint64)(unsafe.Pointer(&hitMem[len(hitMem)-hitCap*8]))
	r := rng.New(4)
	for rows := 1; rows <= 3; rows++ {
		for cols := range 14 {
			lpos, q := atEnd(rowMem, rows), atEnd(qMem, cols)
			for i := range lpos {
				lpos[i] = r.InBox(vec.New(2.5, 2.5, 2.5))
			}
			for i := range q {
				q[i] = r.InBox(vec.New(2.5, 2.5, 2.5)).Add(vec.New(1, 0, 0))
			}
			for _, n := range []uint64{0, uint64(hitCap - rows*cols)} {
				func() {
					defer func() {
						if err := recover(); err != nil {
							t.Fatalf("%dx%d from n=%d: %v", rows, cols, n, err)
						}
					}()
					compareLeaves(t, vector, hits, n, 5<<hitAShift, lpos, q, vec.Zero, 6.25)
				}()
			}
		}
	}
}
