// Package kernel holds the cell-list pair-force kernel shared by the MD
// engines (internal/mdserial's serial engine and internal/core's parallel
// engine, under every ownership map it steps over). The kernel works over
// flat, reusable CellLists scratch (see its type comment for the data
// layout and the determinism contract); the historical map-based kernel is
// retained in kernel_map_test.go as a cross-check oracle only.
//
// Pairs between two hosted cells use Newton's third law; pairs against
// ghost cells are evaluated one-sided, with the pair energy (and virial)
// split half/half between the two hosts.
package kernel

import (
	"permcell/internal/particle"
	"permcell/internal/potential"
)

// ExternalForces adds a one-body field to s.Frc and returns its energy.
func ExternalForces(ext potential.External, s *particle.Set) float64 {
	if _, isNone := ext.(potential.NoField); isNone {
		return 0
	}
	var potE float64
	for i := range s.Pos {
		en, f := ext.EnergyForce(s.Pos[i])
		potE += en
		s.Frc[i] = s.Frc[i].Add(f)
	}
	return potE
}
