package kernel

// The historical map-based kernel, preserved as the test oracle of the flat
// CellLists kernel. It is the implementation the engines used before
// CellLists existed: map[int][]int cell lists rebuilt and sorted on every
// call, ghost positions behind two map lookups per neighbor, one fused loop
// that tests and evaluates each pair in place. The flat kernel must
// reproduce it bit for bit (same summation order), which is
// what keeps the golden experiment traces stable across every change of
// the kernel's data layout and loop structure.

import (
	"fmt"
	"sort"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// mapForces is what mapPairForces returns beside the forces in s.Frc.
type mapForces struct {
	pot, vir         float64
	pairs, evaluated int64           // candidates counted; distances computed
	ghost            map[int][]vec.V // per ghost cell: the forces on its imported particles
}

// mapPairForces accumulates pair forces into s.Frc (which the caller must
// zero) using the historical map-based cell lists. cellMap maps each
// hosted cell to the local particle indices inside it, hosted marks the
// hosted cells, and ghost carries imported positions by cell. Semantics
// match CellLists.Compute: a pair of neighboring cells is evaluated by the
// host of the lower cell id, once, with the force scattered to both sides —
// into s.Frc or into the ghost cell's returned forces — and the full energy
// and virial; a pair with a lower ghost cell is only counted.
func mapPairForces(
	g space.Grid,
	pair potential.Pair,
	s *particle.Set,
	cellMap map[int][]int,
	hosted map[int]bool,
	ghost map[int][]vec.V,
) mapForces {
	var potE, virial float64
	var pairs, lent int64
	ghostFrc := make(map[int][]vec.V, len(ghost))
	for c, pos := range ghost {
		ghostFrc[c] = make([]vec.V, len(pos))
	}
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
			gpos, gfrc := ghost[nc], ghostFrc[nc]
			pairs += int64(len(locals) * len(gpos))
			if nc < cell {
				lent += int64(len(locals) * len(gpos))
				continue // the lower cell's host evaluates the pair
			}
			for _, i := range locals {
				for j, q := range gpos {
					d := box.Displacement(s.Pos[i], q)
					r2 := d.Norm2()
					if r2 >= rc2 || r2 == 0 {
						continue
					}
					en, f := pair.EnergyForce(r2)
					potE += en
					virial += f * r2
					fv := d.Scale(f)
					s.Frc[i] = s.Frc[i].Add(fv)
					gfrc[j] = gfrc[j].Sub(fv)
				}
			}
		}
	}
	return mapForces{pot: potE, vir: virial, pairs: pairs, evaluated: pairs - lent, ghost: ghostFrc}
}

// diffGhostForces compares the ghost forces cl's last Compute returned with
// the oracle's, cell by cell and bit for bit, and returns the first
// difference, or "".
func diffGhostForces(cl *CellLists, want map[int][]vec.V) string {
	for _, c := range cl.GhostCells() {
		got := cl.GhostForces(c)
		if len(got) != len(want[c]) {
			return fmt.Sprintf("ghost cell %d: %d returned forces, oracle %d", c, len(got), len(want[c]))
		}
		for j, f := range got {
			w := want[c][j]
			if !sameOrNaN(f, w) {
				return fmt.Sprintf("ghost cell %d particle %d: returned force %v, oracle %v", c, j, f, w)
			}
		}
	}
	return ""
}
