package kernel

// The historical map-based kernel, preserved as the test oracle of the flat
// CellLists kernel. It is the implementation the engines used before
// CellLists existed: map[int][]int cell lists rebuilt and sorted on every
// call, ghost positions behind two map lookups per neighbor, one fused loop
// that tests and evaluates each pair in place. For shard count 1 the flat
// kernel must reproduce it bit for bit (same summation order), which is
// what keeps the golden experiment traces stable across every change of
// the kernel's data layout and loop structure.

import (
	"sort"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// mapPairForces accumulates pair forces into s.Frc (which the caller must
// zero) using the historical map-based cell lists. cellMap maps each
// hosted cell to the local particle indices inside it, hosted marks the
// hosted cells, and ghost carries imported positions by cell. Semantics
// match CellLists.Compute: hosted-hosted pairs once via the lower cell id
// with the force scattered to both sides, ghost pairs one-sided with half
// the energy and virial. Returns this domain's potential-energy share, the
// pair virial sum(f*r2) and the number of pair-distance evaluations.
func mapPairForces(
	g space.Grid,
	pair potential.Pair,
	s *particle.Set,
	cellMap map[int][]int,
	hosted map[int]bool,
	ghost map[int][]vec.V,
) (potE, virial float64, pairs int64) {
	rc2 := pair.Cutoff() * pair.Cutoff()
	box := g.Box

	cells := make([]int, 0, len(cellMap))
	for cell := range cellMap {
		cells = append(cells, cell)
	}
	sort.Ints(cells)

	var nbBuf []int
	for _, cell := range cells {
		locals := cellMap[cell]
		// Intra-cell pairs.
		for a := 0; a < len(locals); a++ {
			i := locals[a]
			for b := a + 1; b < len(locals); b++ {
				j := locals[b]
				pairs++
				d := box.Displacement(s.Pos[i], s.Pos[j])
				r2 := d.Norm2()
				if r2 >= rc2 || r2 == 0 {
					continue
				}
				en, f := pair.EnergyForce(r2)
				potE += en
				virial += f * r2
				fv := d.Scale(f)
				s.Frc[i] = s.Frc[i].Add(fv)
				s.Frc[j] = s.Frc[j].Sub(fv)
			}
		}
		nbBuf = g.Neighbors26(cell, nbBuf[:0])
		for _, nc := range nbBuf {
			if hosted[nc] {
				if nc < cell {
					continue // hosted-hosted pair handled from the lower cell
				}
				others := cellMap[nc]
				for _, i := range locals {
					for _, j := range others {
						pairs++
						d := box.Displacement(s.Pos[i], s.Pos[j])
						r2 := d.Norm2()
						if r2 >= rc2 || r2 == 0 {
							continue
						}
						en, f := pair.EnergyForce(r2)
						potE += en
						virial += f * r2
						fv := d.Scale(f)
						s.Frc[i] = s.Frc[i].Add(fv)
						s.Frc[j] = s.Frc[j].Sub(fv)
					}
				}
				continue
			}
			gpos := ghost[nc]
			for _, i := range locals {
				for _, q := range gpos {
					pairs++
					d := box.Displacement(s.Pos[i], q)
					r2 := d.Norm2()
					if r2 >= rc2 || r2 == 0 {
						continue
					}
					en, f := pair.EnergyForce(r2)
					potE += en / 2
					virial += f * r2 / 2
					s.Frc[i] = s.Frc[i].Add(d.Scale(f))
				}
			}
		}
	}
	return potE, virial, pairs
}
