package balance

import (
	"testing"

	"permcell/internal/dlb"
	"permcell/internal/rng"
	"permcell/internal/topology"
)

// ledgerRig drives the permanent-cell balancer off-engine: one ledger and
// one decider per PE of a layout, fed a per-column load each epoch the way
// the engine feeds them per-PE loads.
type ledgerRig struct {
	l        dlb.Layout
	ledgers  []*dlb.Ledger
	deciders []Decider
}

func newLedgerRig(t *testing.T, b PermanentCell, s, m int) *ledgerRig {
	t.Helper()
	rig := &ledgerRig{l: testLayout(t, s, m)}
	for r := 0; r < rig.l.P(); r++ {
		rig.ledgers = append(rig.ledgers, dlb.NewLedger(rig.l, r))
		rig.deciders = append(rig.deciders, b.NewDecider(rig.l, r))
	}
	return rig
}

// peLoads sums the column loads per hosting PE.
func (rig *ledgerRig) peLoads(colLoad []float64) []float64 {
	pe := make([]float64, rig.l.P())
	for r, lg := range rig.ledgers {
		for _, col := range lg.HostedColumns() {
			pe[r] += colLoad[col]
		}
	}
	return pe
}

// spread returns (max-min)/ave of the per-PE loads, the paper's imbalance
// measure.
func (rig *ledgerRig) spread(colLoad []float64) float64 {
	pe := rig.peLoads(colLoad)
	lo, hi, sum := pe[0], pe[0], 0.0
	for _, v := range pe {
		lo, hi, sum = min(lo, v), max(hi, v), sum+v
	}
	return (hi - lo) / (sum / float64(len(pe)))
}

// epoch runs one round of the protocol: every PE decides on the same load
// picture, then each decision reaches the decider and its 8 neighbors.
func (rig *ledgerRig) epoch(t *testing.T, colLoad []float64) {
	t.Helper()
	pe := rig.peLoads(colLoad)
	decisions := make([][]dlb.Decision, rig.l.P())
	for r, lg := range rig.ledgers {
		obs := Observation{Self: pe[r], ColLoad: func(col int) float64 { return colLoad[col] }}
		pi, pj := rig.l.T.Coords(r)
		for k, off := range topology.Offsets8 {
			obs.Neighbor[k] = pe[rig.l.T.Rank(pi+off.DI, pj+off.DJ)]
		}
		decisions[r] = rig.deciders[r].Decide(lg, obs)
	}
	for r, ds := range decisions {
		for _, d := range ds {
			for _, at := range append([]int{r}, rig.l.T.UniqueNeighbors(r)...) {
				if err := rig.ledgers[at].Apply(r, d); err != nil {
					t.Fatalf("rank %d applying decision of %d: %v", at, r, err)
				}
			}
		}
	}
}

func TestPermanentCellDLBBalancesHotColumns(t *testing.T) {
	// s=4, m=3: 4 movable columns per PE.
	rig := newLedgerRig(t, PermanentCell{Hysteresis: 0.05}, 4, 3)
	// A hot 2x2 patch covering the movable columns of PE (2,2): DLB can
	// spread them over the up-left neighbors. (A single hot column heavier
	// than a whole PE's average is beyond ANY cell-granular balancer — the
	// DLB limit — so the capability test needs several hot columns.)
	nx := rig.l.NxColumns()
	colLoad := make([]float64, rig.l.NumColumns())
	for col := range colLoad {
		colLoad[col] = 1
		if cx, cy := col%nx, col/nx; (cx == 6 || cx == 7) && (cy == 6 || cy == 7) {
			colLoad[col] = 20
		}
	}
	static := rig.spread(colLoad)
	for i := 0; i < 20; i++ {
		rig.epoch(t, colLoad)
	}
	if got := rig.spread(colLoad); got >= static {
		t.Errorf("DLB spread %v not below static %v", got, static)
	}
}

func TestPermanentCellDLBRespectsLedgerInvariants(t *testing.T) {
	rig := newLedgerRig(t, PermanentCell{}, 4, 3)
	r := rng.New(5)
	colLoad := make([]float64, rig.l.NumColumns())
	for step := 0; step < 100; step++ {
		for i := range colLoad {
			colLoad[i] = r.Uniform(0, 2)
		}
		colLoad[r.Intn(len(colLoad))] = 100
		rig.epoch(t, colLoad)
	}
	for _, lg := range rig.ledgers {
		if err := lg.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}
