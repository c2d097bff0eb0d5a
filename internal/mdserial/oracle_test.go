package mdserial

import "permcell/internal/vec"

// The serial engine's test oracles: what its own tests measure it with,
// and nothing the runtime calls.

// Pressure returns the instantaneous reduced pressure from the virial
// theorem, P = (N T + W/3) / V.
func (e *Engine) Pressure() float64 {
	n := e.set.Len()
	if n == 0 {
		return 0
	}
	return (float64(n)*e.set.Temperature() + e.virial/3) / e.cfg.Box.Volume()
}

// CellOccupancy returns the particle count of every cell, the input to the
// concentration analysis of Section 4.
func (e *Engine) CellOccupancy() []int {
	occ := make([]int, e.grid.NumCells())
	for c := range occ {
		occ[c] = e.cl.SlotLen(c) // all cells hosted: slot index == cell index
	}
	return occ
}

// ForcesBruteForce recomputes forces and potential energy with a direct
// O(N^2) double loop over all particle pairs (still honoring the cut-off and
// minimum image). It is the oracle the cell-list force kernel is tested
// against; it does not modify engine state and returns the would-be forces
// and energy.
func (e *Engine) ForcesBruteForce() (frc []vec.V, pot float64) {
	s := e.set
	frc = make([]vec.V, s.Len())
	rc2 := e.cfg.Pair.Cutoff() * e.cfg.Pair.Cutoff()
	box := e.cfg.Box
	for i := 0; i < s.Len(); i++ {
		for j := i + 1; j < s.Len(); j++ {
			d := box.Displacement(s.Pos[i], s.Pos[j])
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			en, f := e.cfg.Pair.EnergyForce(r2)
			pot += en
			fv := d.Scale(f)
			frc[i] = frc[i].Add(fv)
			frc[j] = frc[j].Sub(fv)
		}
	}
	for i, p := range s.Pos {
		en, f := e.cfg.Ext.EnergyForce(p)
		pot += en
		frc[i] = frc[i].Add(f)
	}
	return frc, pot
}
