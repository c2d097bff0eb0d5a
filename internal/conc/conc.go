// Package conc measures the particle-concentration quantities of Section 4:
// the particle concentration ratio C_0/C (fraction of empty cells in the
// whole space) and the concentration factor n = (C'_0/C') / (C_0/C), where
// C' counts cells in the "maximum domain". Following Section 4.2, n is
// estimated from two PEs — the one hosting the most cells and the one
// hosting the most empty cells — because a parallel run does not guarantee
// any single PE holds the true maximum domain.
package conc

// PE is one processing element's cell census for a time step.
type PE struct {
	Cells int // cells currently hosted
	Empty int // hosted cells containing no particle
}

// Stats summarizes the concentration state of one time step.
type Stats struct {
	C  int // total cells
	C0 int // empty cells in the whole space

	// MaxCellsPE / MaxEmptyPE are the indices of the two estimator PEs.
	MaxCellsPE int
	MaxEmptyPE int

	// C0OverC is the particle concentration ratio C_0/C.
	C0OverC float64
	// NFactor is the concentration factor n. It is 0 when C_0 == 0 (the
	// uniform start: the paper's Fig. 9 trajectory begins at the origin).
	NFactor float64
}

// Compute derives Stats from the per-PE census.
func Compute(pes []PE) Stats {
	var s Stats
	if len(pes) == 0 {
		return s
	}
	s.MaxCellsPE, s.MaxEmptyPE = 0, 0
	for i, pe := range pes {
		s.C += pe.Cells
		s.C0 += pe.Empty
		if pe.Cells > pes[s.MaxCellsPE].Cells {
			s.MaxCellsPE = i
		}
		if pe.Empty > pes[s.MaxEmptyPE].Empty {
			s.MaxEmptyPE = i
		}
	}
	if s.C == 0 {
		return s
	}
	s.C0OverC = float64(s.C0) / float64(s.C)
	if s.C0 == 0 {
		return s
	}
	ratio := func(i int) float64 {
		if pes[i].Cells == 0 {
			return 0
		}
		return float64(pes[i].Empty) / float64(pes[i].Cells)
	}
	avg := (ratio(s.MaxCellsPE) + ratio(s.MaxEmptyPE)) / 2
	s.NFactor = avg / s.C0OverC
	return s
}
