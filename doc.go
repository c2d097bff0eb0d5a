// Package permcell reproduces "Efficiency of Dynamic Load Balancing Based
// on Permanent Cells for Parallel Molecular Dynamics Simulation"
// (R. Hayashi, S. Horiguchi, IPPS 2000) as a Go library.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); the runnable entry points are the commands under cmd/ —
// cmd/figures regenerates every table and figure of the paper's
// evaluation section — and the programs under examples/. Performance is
// measured by bench/ (see BENCHMARK.json).
package permcell
