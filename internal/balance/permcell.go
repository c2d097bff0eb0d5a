package balance

import (
	"fmt"

	"permcell/internal/dlb"
	"permcell/internal/topology"
)

// Pick selects which candidate column a PE hands over when several are
// eligible. The paper leaves the choice open; PickMostLoaded transfers the
// most work per move and is the default.
type Pick int

// Column-pick strategies.
const (
	PickMostLoaded Pick = iota
	PickLeastLoaded
	PickLowestIndex
)

// PermanentCell is the reference Balancer: the paper's permanent-cell
// protocol (Section 2.3). Each epoch the PE compares its load against the 8
// neighbors and, when it is the slowest of the neighborhood by more than
// Hysteresis, hands one column toward the fastest neighbor following the
// three-case rule:
//
//	Case 1  fastest is up-left: send one of my own movable columns that is
//	        still at home.
//	Case 2  fastest is anti-diagonal: nothing to send.
//	Case 3  fastest is down-right: return one of the columns I previously
//	        received from it, if any.
type PermanentCell struct {
	// Hysteresis is the relative load gap required before a column moves:
	// a PE sends only if its load exceeds the fastest neighbor's by this
	// fraction. Zero reproduces the paper's protocol literally (any
	// strictly faster neighbor triggers a move); a small positive value
	// suppresses ping-ponging when loads are statistically equal.
	Hysteresis float64
	// Pick selects among candidate columns (default PickMostLoaded).
	Pick Pick
}

// Name implements Balancer.
func (PermanentCell) Name() string { return "permcell" }

// Scope implements Balancer: the protocol is strictly 8-neighbor.
func (PermanentCell) Scope() Scope { return ScopeNeighbors }

// MaxMoves implements Balancer: the paper's protocol moves at most one
// column per PE per epoch.
func (PermanentCell) MaxMoves() int { return 1 }

// Validate implements Balancer.
func (b PermanentCell) Validate(dlb.Layout) error {
	if err := validateCommon("permcell", b.Hysteresis, 0); err != nil {
		return err
	}
	switch b.Pick {
	case PickMostLoaded, PickLeastLoaded, PickLowestIndex:
		return nil
	default:
		return fmt.Errorf("balance: permcell: unknown pick strategy %d", b.Pick)
	}
}

// NewDecider implements Balancer.
func (b PermanentCell) NewDecider(l dlb.Layout, rank int) Decider {
	return permcellDecider{cfg: b}
}

// permcellDecider keeps no state of its own: the ledger it is handed names
// its layout and rank.
type permcellDecider struct {
	cfg PermanentCell
}

// Decide runs protocol steps 2-3: find the fastest PE among self and the 8
// neighbors and choose the column to send, if any.
func (d permcellDecider) Decide(lg *dlb.Ledger, obs Observation) []dlb.Decision {
	// Step 2: fastest slot. Self wins ties; among neighbors the lowest
	// offset index wins, making the protocol deterministic.
	fastestK, fastest := -1, obs.Self
	for k, v := range obs.Neighbor {
		if v < fastest {
			fastest, fastestK = v, k
		}
	}
	if fastestK < 0 || obs.Self <= fastest*(1+d.cfg.Hysteresis) {
		return nil
	}

	off := topology.Offsets8[fastestK]
	pi, pj := lg.L.T.Coords(lg.Rank)
	dest := lg.L.T.Rank(pi+off.DI, pj+off.DJ)

	var cands []int
	switch {
	case offsetIn(topology.UpLeft, off): // Case 1
		cands = lg.OwnMovableAtHome()
	case offsetIn(topology.DownRight, off): // Case 3
		cands = lg.BorrowedFrom(dest)
	} // Case 2: no candidates
	if len(cands) == 0 {
		return nil
	}
	return []dlb.Decision{{Col: d.pick(cands, obs.ColLoad), Dest: dest}}
}

// pick chooses one column from the non-empty, ascending candidates; the
// lowest index wins ties.
func (d permcellDecider) pick(cands []int, colLoad func(col int) float64) int {
	if d.cfg.Pick == PickLowestIndex {
		return cands[0]
	}
	best, bestLoad := cands[0], colLoad(cands[0])
	for _, c := range cands[1:] {
		l := colLoad(c)
		if (d.cfg.Pick == PickLeastLoaded && l < bestLoad) ||
			(d.cfg.Pick == PickMostLoaded && l > bestLoad) {
			best, bestLoad = c, l
		}
	}
	return best
}
