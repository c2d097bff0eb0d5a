package kernel

import (
	"fmt"

	"permcell/internal/space"
	"permcell/internal/workload"
)

// kernelPreset is one geometry of the force-kernel benchmark matrix: the
// systems this package's microbenchmarks time and its bit-identity pins
// hash (bench/'s serial_50k workload has the 50k one's geometry).
type kernelPreset struct {
	// Name keys the preset in benchmark names.
	Name string
	// N is the particle count; Rho the reduced density. The cubic box edge
	// follows as (N/Rho)^(1/3) and the grid is the finest with cell side
	// >= the paper cut-off 2.5.
	N   int
	Rho float64
	// NC is the expected cells per dimension, asserted at build time so a
	// preset can never silently drift to a different grid.
	NC int
	// Tref is the Maxwell-Boltzmann velocity temperature of the lattice
	// start (geometry-irrelevant, recorded for reproducibility).
	Tref float64
	// Seed feeds the velocity RNG.
	Seed uint64
}

// kernelPresets returns the benchmark matrix, smallest first:
//
//   - tiny: the original acceptance-gate geometry (Tiny experiment preset,
//     m=3: grid 6x6x6, N=1296 at rho=0.384) — TestShardPin's hash is
//     taken on it;
//   - 50k/100k/200k: cubic boxes at the paper's headline density 0.256
//     whose edge is an exact multiple of the cut-off 2.5, large enough
//     that the force pass no longer fits in cache and the search workers
//     have real work to share.
func kernelPresets() []kernelPreset {
	return []kernelPreset{
		{Name: "tiny", N: 1296, Rho: 0.384, NC: 6, Tref: 0.722, Seed: 1},
		{Name: "50k", N: 55296, Rho: 0.256, NC: 24, Tref: 0.722, Seed: 1},
		{Name: "100k", N: 108000, Rho: 0.256, NC: 30, Tref: 0.722, Seed: 1},
		{Name: "200k", N: 219488, Rho: 0.256, NC: 38, Tref: 0.722, Seed: 1},
	}
}

// kernelPresetByName returns the named preset or an error listing the
// valid names.
func kernelPresetByName(name string) (kernelPreset, error) {
	var names []string
	for _, pr := range kernelPresets() {
		if pr.Name == name {
			return pr, nil
		}
		names = append(names, pr.Name)
	}
	return kernelPreset{}, fmt.Errorf("kernel: unknown preset %q (have %v)", name, names)
}

// Build constructs the preset's lattice-gas system and its cell grid
// (cutoff 2.5), asserting the expected grid dimensions.
func (pr kernelPreset) Build() (workload.System, space.Grid, error) {
	sys, err := workload.LatticeGas(pr.N, pr.Rho, pr.Tref, pr.Seed)
	if err != nil {
		return workload.System{}, space.Grid{}, err
	}
	g, err := space.NewGrid(sys.Box, 2.5)
	if err != nil {
		return workload.System{}, space.Grid{}, err
	}
	if g.Nx != pr.NC || g.Ny != pr.NC || g.Nz != pr.NC {
		return workload.System{}, space.Grid{}, fmt.Errorf(
			"kernel: preset %s built grid %dx%dx%d, want %d^3", pr.Name, g.Nx, g.Ny, g.Nz, pr.NC)
	}
	return sys, g, nil
}

// Evaluated returns the number of pair distances the last Compute actually
// evaluated: its pair count less the candidates of count-only entries.
func (cl *CellLists) Evaluated() int64 { return cl.evaluated }
