package dlb_test

import (
	"reflect"
	"testing"

	"permcell/internal/dlb"
)

// globalHosts merges every ledger's hosted set into one column→host map,
// the way a checkpoint restore assembles it from per-rank frames.
func globalHosts(lgs []*dlb.Ledger) map[int]int {
	hosts := make(map[int]int)
	for _, lg := range lgs {
		for _, col := range lg.HostedColumns() {
			hosts[col] = lg.Rank
		}
	}
	return hosts
}

func TestRestoreLedgerInitialState(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	hosts := globalHosts(lgs)
	for r := range lgs {
		got, err := dlb.RestoreLedger(l, r, hosts)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !reflect.DeepEqual(got.HostedColumns(), lgs[r].HostedColumns()) {
			t.Fatalf("rank %d hosted set changed across restore", r)
		}
	}
}

func TestRestoreLedgerWithLentColumns(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	// Lend one movable column from each rank that has an up-left neighbor,
	// building a mid-flight ownership state.
	moved := 0
	for r := range lgs {
		ul := l.UpLeftRanks(r)
		cands := lgs[r].OwnMovableAtHome()
		if len(ul) == 0 || len(cands) == 0 {
			continue
		}
		d := dlb.Decision{Col: cands[0], Dest: ul[0]}
		applyEverywhere(t, l, lgs, r, d)
		moved++
	}
	if moved == 0 {
		t.Fatal("test setup: no columns moved")
	}
	checkGlobalPartition(t, l, lgs)

	hosts := globalHosts(lgs)
	for r := range lgs {
		got, err := dlb.RestoreLedger(l, r, hosts)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !reflect.DeepEqual(got.HostedColumns(), lgs[r].HostedColumns()) {
			t.Fatalf("rank %d: restored hosted %v, live %v", r, got.HostedColumns(), lgs[r].HostedColumns())
		}
		for _, col := range l.ColumnsOf(r) {
			gh, _ := got.HostOf(col)
			lh, _ := lgs[r].HostOf(col)
			if gh != lh {
				t.Fatalf("rank %d: restored host of own column %d is %d, live %d", r, col, gh, lh)
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestRestoreLedgerRejectsInvalidPlacement(t *testing.T) {
	l, lgs := newLedgers(t, 3, 3)
	hosts := globalHosts(lgs)
	// A permanent column hosted away from home violates the invariants.
	perm := -1
	for _, col := range l.ColumnsOf(4) {
		if l.IsPermanent(col) {
			perm = col
			break
		}
	}
	if perm < 0 {
		t.Fatal("test setup: no permanent column found")
	}
	hosts[perm] = 0
	if _, err := dlb.RestoreLedger(l, 4, hosts); err == nil {
		t.Fatal("displaced permanent column accepted")
	}
}
