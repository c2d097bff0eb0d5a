package permcell

// This file is the public facade over the internal packages: the types and
// entry points a downstream user needs to run serial or parallel
// permanent-cell MD simulations and evaluate the paper's bound, without
// reaching into internal/.

import (
	"permcell/internal/core"
	"permcell/internal/theory"
	"permcell/internal/units"
)

// StepStats re-exports the per-step record (Tt, Fmax/Fave/Fmin, moves,
// concentration state).
type StepStats = core.StepStats

// Result re-exports the run outcome (per-step stats, final particle state,
// message counts).
type Result = core.Result

// Bound returns the paper's theoretical upper bound f(m, n) on the particle
// concentration ratio C_0/C up to which permanent-cell DLB balances
// uniformly (eq. 8; m >= 2, n >= 1).
func Bound(m int, n float64) (float64, error) { return theory.F(m, n) }

// MaxDomainColumns returns C' in columns, m^2 + 3(m-1)^2: the most columns
// one PE can ever host.
func MaxDomainColumns(m int) int { return theory.CPrimeColumns(m) }

// Paper constants (Section 3.2) in reduced LJ units.
const (
	PaperTref            = units.PaperTref
	PaperDensity         = units.PaperDensity
	PaperCutoff          = units.PaperCutoff
	PaperTimeStep        = units.PaperTimeStep
	PaperRescaleInterval = units.PaperRescaleInterval
)
