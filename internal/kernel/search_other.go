//go:build !amd64

package kernel

import "permcell/internal/vec"

// searchCellAVX2 is the vector cell leaf of amd64 CPUs with AVX2.
// vectorCells stays false on every other GOARCH, so the Go cell leaf runs
// and this one is never called.
func searchCellAVX2(hits *[hitCap]uint64, n uint64, lpos, ppos, ghostPos []vec.V, units []cellUnit, shift *[32]vec.V, rc2 float64) uint64 {
	panic("kernel: no vector cell leaf on this GOARCH")
}
