package dlb_test

// The ledger tests live outside the package so they can drive the paper's
// three-case rule where it is implemented, in internal/balance (which
// imports this package): the decision tests below check the rule against
// the ledger's legal move space and invariants.

import (
	"sort"
	"testing"

	"permcell/internal/balance"
	"permcell/internal/dlb"
	"permcell/internal/rng"
	"permcell/internal/topology"
)

func newLedgers(t *testing.T, s, m int) (dlb.Layout, []*dlb.Ledger) {
	t.Helper()
	l, err := dlb.NewLayout(s, m)
	if err != nil {
		t.Fatal(err)
	}
	lgs := make([]*dlb.Ledger, l.P())
	for r := range lgs {
		lgs[r] = dlb.NewLedger(l, r)
	}
	return l, lgs
}

// applyEverywhere mimics protocol step 4: the decider's decision reaches
// its 8 neighbors and itself.
func applyEverywhere(t *testing.T, l dlb.Layout, lgs []*dlb.Ledger, decider int, d dlb.Decision) {
	t.Helper()
	if err := lgs[decider].Apply(decider, d); err != nil {
		t.Fatalf("decider %d self-apply: %v", decider, err)
	}
	for _, nb := range l.T.UniqueNeighbors(decider) {
		if err := lgs[nb].Apply(decider, d); err != nil {
			t.Fatalf("neighbor %d applying decision of %d: %v", nb, decider, err)
		}
	}
}

// none is the empty decision a PE with nothing to move contributes.
var none = dlb.Decision{Col: -1}

// decide runs the permanent-cell rule for lg's PE on one observation and
// returns its single decision, or none.
func decide(b balance.PermanentCell, lg *dlb.Ledger, obs balance.Observation) dlb.Decision {
	if obs.ColLoad == nil {
		obs.ColLoad = func(int) float64 { return 1 } // all columns weigh the same
	}
	ds := b.NewDecider(lg.L, lg.Rank).Decide(lg, obs)
	if len(ds) == 0 {
		return none
	}
	return ds[0]
}

// tracks reports whether rank's ledger follows col: its own columns and its
// three down-right neighbors'.
func tracks(l dlb.Layout, rank, col int) bool {
	owner := l.OwnerOf(col)
	if owner == rank {
		return true
	}
	for _, r := range l.DownRightRanks(rank) {
		if r == owner {
			return true
		}
	}
	return false
}

// checkGlobalPartition asserts every column is hosted by exactly one PE.
func checkGlobalPartition(t *testing.T, l dlb.Layout, lgs []*dlb.Ledger) {
	t.Helper()
	count := make(map[int]int)
	for _, lg := range lgs {
		for _, col := range lg.HostedColumns() {
			count[col]++
		}
	}
	if len(count) != l.NumColumns() {
		t.Fatalf("only %d of %d columns hosted", len(count), l.NumColumns())
	}
	for col, c := range count {
		if c != 1 {
			t.Fatalf("column %d hosted by %d PEs", col, c)
		}
	}
}

func TestInitialState(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	checkGlobalPartition(t, l, lgs)
	for r, lg := range lgs {
		hosted := lg.HostedColumns()
		if len(hosted) != 9 {
			t.Errorf("rank %d initially hosts %d columns", r, len(hosted))
		}
		if err := lg.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if len(lg.OwnMovableAtHome()) != 4 {
			t.Errorf("rank %d has %d movable at home, want 4", r, len(lg.OwnMovableAtHome()))
		}
		for _, col := range l.ColumnsOf(r) {
			if host, _ := lg.HostOf(col); host != r {
				t.Errorf("rank %d has lent column %d to %d initially", r, col, host)
			}
		}
	}
}

func TestHostOfStatic(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	lg := lgs[0]
	// Tracked column.
	col := l.ColumnsOf(0)[0]
	if h, err := lg.HostOf(col); err != nil || h != 0 {
		t.Errorf("HostOf own column = (%d, %v)", h, err)
	}
	// Untracked permanent column resolves statically.
	farRank := l.T.Rank(2, 0) // up neighbor of 0 on a 3x3 torus; owner of untracked... pick a permanent col of an untracked owner
	perm := -1
	for _, c := range l.ColumnsOf(farRank) {
		if l.IsPermanent(c) && !tracks(l, 0, c) {
			perm = c
			break
		}
	}
	if perm >= 0 {
		if h, err := lg.HostOf(perm); err != nil || h != farRank {
			t.Errorf("HostOf untracked permanent = (%d, %v)", h, err)
		}
	}
	// Untracked movable column errors.
	for _, c := range l.MovableColumnsOf(farRank) {
		if !tracks(l, 0, c) {
			if _, err := lg.HostOf(c); err == nil {
				t.Error("untracked movable column resolved without error")
			}
			break
		}
	}
}

func TestDecideNoImbalanceNoMove(t *testing.T) {
	_, lgs := newLedgers(t, 3, 3)
	var loads balance.Observation
	loads.Self = 1
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 1
	}
	if d := decide(balance.PermanentCell{}, lgs[4], loads); d.Col >= 0 {
		t.Errorf("balanced loads produced decision %+v", d)
	}
}

func TestDecideCase1SendsOwnMovable(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(1, 1)
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 10
	}
	loads.Neighbor[0] = 1 // offset (-1,-1): Case 1
	d := decide(balance.PermanentCell{}, lgs[me], loads)
	if d.Col < 0 {
		t.Fatal("no decision despite idle up-left neighbor")
	}
	if l.OwnerOf(d.Col) != me || l.IsPermanent(d.Col) {
		t.Errorf("sent column %d is not an own movable column", d.Col)
	}
	if want := l.T.Rank(0, 0); d.Dest != want {
		t.Errorf("dest = %d, want %d", d.Dest, want)
	}
}

func TestDecideCase2NothingToSend(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(1, 1)
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 10
	}
	loads.Neighbor[2] = 1 // offset (-1,+1): Case 2
	if d := decide(balance.PermanentCell{}, lgs[me], loads); d.Col >= 0 {
		t.Errorf("Case 2 produced decision %+v", d)
	}
	loads.Neighbor[2] = 10
	loads.Neighbor[5] = 1 // offset (+1,-1): Case 2
	if d := decide(balance.PermanentCell{}, lgs[me], loads); d.Col >= 0 {
		t.Errorf("Case 2 produced decision %+v", d)
	}
}

func TestDecideCase3ReturnsBorrowed(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(1, 1)
	dr := l.T.Rank(2, 1) // offset (+1,0) from me; me is its up-left neighbor

	// First, dr lends me a movable column (its Case 1).
	col := l.MovableColumnsOf(dr)[0]
	lend := dlb.Decision{Col: col, Dest: me}
	applyEverywhere(t, l, lgs, dr, lend)
	if got := lgs[me].BorrowedFrom(dr); len(got) != 1 || got[0] != col {
		t.Fatalf("BorrowedFrom = %v", got)
	}

	// Now dr is fastest; I must return its column.
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 10
	}
	loads.Neighbor[6] = 1 // offset (+1,0): Case 3
	d := decide(balance.PermanentCell{}, lgs[me], loads)
	if d.Col != col || d.Dest != dr {
		t.Errorf("decision = %+v, want return of %d to %d", d, col, dr)
	}

	// Without borrowed columns, Case 3 yields nothing.
	applyEverywhere(t, l, lgs, me, d)
	if d2 := decide(balance.PermanentCell{}, lgs[me], loads); d2.Col >= 0 {
		t.Errorf("second return produced %+v", d2)
	}
}

func TestDecideCase1ExhaustsMovables(t *testing.T) {
	l, lgs := newLedgers(t, 3, 2) // m=2: single movable column per PE
	me := l.T.Rank(1, 1)
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 1
	}
	d := decide(balance.PermanentCell{}, lgs[me], loads)
	if d.Col < 0 {
		t.Fatal("no decision")
	}
	applyEverywhere(t, l, lgs, me, d)
	// All movable columns gone; next decision must be None (the DLB limit).
	if d2 := decide(balance.PermanentCell{}, lgs[me], loads); d2.Col >= 0 {
		t.Errorf("sent %+v with no movable columns left", d2)
	}
}

func TestDecideHysteresis(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(1, 1)
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 9.5
	}
	if d := decide(balance.PermanentCell{Hysteresis: 0.10}, lgs[me], loads); d.Col >= 0 {
		t.Errorf("hysteresis ignored: %+v", d)
	}
	if d := decide(balance.PermanentCell{Hysteresis: 0}, lgs[me], loads); d.Col < 0 {
		t.Error("zero hysteresis should move on any gap")
	}
}

func TestDecideM1NeverMoves(t *testing.T) {
	_, lgs := newLedgers(t, 3, 1)
	loads := balance.Observation{Self: 100}
	if d := decide(balance.PermanentCell{}, lgs[0], loads); d.Col >= 0 {
		t.Errorf("m=1 produced decision %+v", d)
	}
}

func TestPickStrategies(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(1, 1)
	movable := l.MovableColumnsOf(me)
	colLoad := func(col int) float64 {
		// Make the middle candidate heaviest, first lightest.
		for i, c := range movable {
			if c == col {
				return float64((i*3)%5 + 1)
			}
		}
		return 0
	}
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 10
	}
	loads.Neighbor[0] = 1
	loads.ColLoad = colLoad

	dMost := decide(balance.PermanentCell{Pick: balance.PickMostLoaded}, lgs[me], loads)
	dLeast := decide(balance.PermanentCell{Pick: balance.PickLeastLoaded}, lgs[me], loads)
	dLow := decide(balance.PermanentCell{Pick: balance.PickLowestIndex}, lgs[me], loads)
	if dLow.Col != movable[0] {
		t.Errorf("PickLowestIndex chose %d, want %d", dLow.Col, movable[0])
	}
	if colLoad(dMost.Col) < colLoad(dLeast.Col) {
		t.Errorf("PickMostLoaded chose lighter column than PickLeastLoaded")
	}
	for _, d := range []dlb.Decision{dMost, dLeast, dLow} {
		if l.IsPermanent(d.Col) {
			t.Errorf("strategy picked permanent column %d", d.Col)
		}
	}
}

func TestApplyRejectsProtocolViolations(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(1, 1)
	lg := lgs[me]

	perm := -1
	for _, c := range l.ColumnsOf(me) {
		if l.IsPermanent(c) {
			perm = c
			break
		}
	}
	if err := lg.Apply(me, dlb.Decision{Col: perm, Dest: l.T.Rank(0, 0)}); err == nil {
		t.Error("permanent column move accepted")
	}

	mv := l.MovableColumnsOf(me)[0]
	// Send to a down-right neighbor (not an up-left neighbor): illegal Case 1.
	if err := lg.Apply(me, dlb.Decision{Col: mv, Dest: l.T.Rank(2, 2)}); err == nil {
		t.Error("send to down-right neighbor accepted")
	}
	// Decision by a rank that is not the host.
	other := l.T.Rank(2, 1)
	if err := lg.Apply(other, dlb.Decision{Col: mv, Dest: me}); err == nil {
		t.Error("non-host move accepted")
	}
	// Legal move, then an illegal second move by the old host.
	if err := lg.Apply(me, dlb.Decision{Col: mv, Dest: l.T.Rank(0, 0)}); err != nil {
		t.Fatalf("legal move rejected: %v", err)
	}
	if err := lg.Apply(me, dlb.Decision{Col: mv, Dest: l.T.Rank(0, 1)}); err == nil {
		t.Error("move by stale host accepted")
	}
}

func TestApplyIgnoresUntracked(t *testing.T) {
	l, lgs := newLedgers(t, 4, 3)
	// Rank (0,0)'s ledger must ignore decisions about columns owned by a
	// distant PE.
	far := l.T.Rank(2, 2)
	col := l.MovableColumnsOf(far)[0]
	if tracks(l, 0, col) {
		t.Fatal("test setup: column unexpectedly tracked")
	}
	if err := lgs[0].Apply(far, dlb.Decision{Col: col, Dest: l.T.Rank(1, 1)}); err != nil {
		t.Errorf("untracked decision not ignored: %v", err)
	}
}

// TestProtocolSimulation drives all P ledgers through many steps of the full
// protocol with randomized loads and verifies every invariant the paper's
// construction promises: single-host partition, host-in-up-left-set,
// permanent columns at home, C' bound, and cross-ledger agreement.
func TestProtocolSimulation(t *testing.T) {
	for _, cfgCase := range []struct {
		s, m int
		pick balance.Pick
	}{
		{3, 2, balance.PickMostLoaded},
		{3, 3, balance.PickLeastLoaded},
		{4, 3, balance.PickMostLoaded},
		{4, 4, balance.PickLowestIndex},
		{2, 3, balance.PickMostLoaded}, // smallest legal torus: offset aliasing stress
	} {
		l, lgs := newLedgers(t, cfgCase.s, cfgCase.m)
		r := rng.New(uint64(1000*cfgCase.s + cfgCase.m))
		loadOf := make([]float64, l.P())

		for step := 0; step < 300; step++ {
			// Random loads; occasionally spike one PE to force cascades.
			for i := range loadOf {
				loadOf[i] = r.Uniform(1, 2)
			}
			if step%3 == 0 {
				loadOf[r.Intn(l.P())] = r.Uniform(10, 20)
			}

			decisions := make([]dlb.Decision, l.P())
			for rank, lg := range lgs {
				var loads balance.Observation
				loads.Self = loadOf[rank]
				pi, pj := l.T.Coords(rank)
				for k, off := range topology.Offsets8 {
					loads.Neighbor[k] = loadOf[l.T.Rank(pi+off.DI, pj+off.DJ)]
				}
				decisions[rank] = decide(balance.PermanentCell{Pick: cfgCase.pick}, lg, loads)
			}
			for rank, d := range decisions {
				applyEverywhere(t, l, lgs, rank, d)
			}

			checkGlobalPartition(t, l, lgs)
			for _, lg := range lgs {
				if err := lg.CheckInvariants(); err != nil {
					t.Fatalf("s=%d m=%d step %d: %v", cfgCase.s, cfgCase.m, step, err)
				}
			}
			// Cross-ledger agreement: every ledger that can resolve a
			// column's host (it tracks the column, or the column is
			// permanent) names the same PE.
			for col := 0; col < l.NumColumns(); col++ {
				agreed, by := -1, -1
				for a, lg := range lgs {
					h, err := lg.HostOf(col)
					if err != nil {
						continue
					}
					if agreed >= 0 && h != agreed {
						t.Fatalf("step %d: ledgers %d and %d disagree on column %d (%d vs %d)",
							step, by, a, col, agreed, h)
					}
					agreed, by = h, a
				}
			}
		}
	}
}

// TestMaxDomainReachable drives one PE to its C' bound: its three down-right
// neighbors lend it everything they have.
func TestMaxDomainReachable(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	me := l.T.Rank(0, 0)
	loads := balance.Observation{Self: 10}
	for k := range loads.Neighbor {
		loads.Neighbor[k] = 10
	}
	// Every down-right neighbor of me sees me as its fastest up-left
	// neighbor and lends all movable columns over successive steps.
	for step := 0; step < 10; step++ {
		for _, donor := range l.DownRightRanks(me) {
			var dl balance.Observation
			dl.Self = 10
			pi, pj := l.T.Coords(donor)
			for k, off := range topology.Offsets8 {
				nb := l.T.Rank(pi+off.DI, pj+off.DJ)
				if nb == me {
					dl.Neighbor[k] = 1
				} else {
					dl.Neighbor[k] = 10
				}
			}
			d := decide(balance.PermanentCell{}, lgs[donor], dl)
			applyEverywhere(t, l, lgs, donor, d)
		}
	}
	got := len(lgs[me].HostedColumns())
	want := l.MaxHostedColumns() // 9 + 12 = 21 for m=3, the paper's 2.33x
	if got != want {
		t.Errorf("max domain = %d columns, want %d", got, want)
	}
	for _, lg := range lgs {
		if err := lg.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	checkGlobalPartition(t, l, lgs)
}

func TestHostedColumnsSorted(t *testing.T) {
	_, lgs := newLedgers(t, 3, 4)
	h := lgs[5].HostedColumns()
	if !sort.IntsAreSorted(h) {
		t.Error("HostedColumns not sorted")
	}
}
