package dlb

import (
	"fmt"
	"sort"
)

// Decision is one ownership move: column Col goes to rank Dest. A balancer
// (internal/balance) proposes decisions; they are broadcast to the 8
// neighbors (protocol step 4) and applied by every ledger that tracks the
// column. Col < 0 is the empty decision, which Apply ignores.
type Decision struct {
	Col  int
	Dest int
}

// Ledger is one PE's view of column placement. It tracks the host of every
// column owned by the PE itself and its three down-right neighbors — the
// exact set for which the PE hears all host-changing decisions (every such
// move is decided by the PE itself or one of its 8 neighbors; see the
// package comment and DESIGN.md invariants).
type Ledger struct {
	L    Layout
	Rank int

	host          map[int]int
	trackedOwners map[int]bool
}

// NewLedger returns rank's ledger in the initial state (every column at its
// owner).
func NewLedger(l Layout, rank int) *Ledger {
	lg := &Ledger{
		L:             l,
		Rank:          rank,
		host:          make(map[int]int),
		trackedOwners: map[int]bool{rank: true},
	}
	for _, r := range l.DownRightRanks(rank) {
		lg.trackedOwners[r] = true
	}
	for o := range lg.trackedOwners {
		for _, col := range l.ColumnsOf(o) {
			lg.host[col] = o
		}
	}
	return lg
}

// RestoreLedger rebuilds rank's ledger from a global column→host map (e.g.
// merged from checkpoint frames): tracked columns take their host from the
// map, and the result must satisfy the permanent-cell invariants. Columns
// absent from hosts are assumed at home, so a map holding only displaced
// columns also restores correctly.
func RestoreLedger(l Layout, rank int, hosts map[int]int) (*Ledger, error) {
	lg := NewLedger(l, rank)
	for col := range lg.host {
		if h, ok := hosts[col]; ok {
			lg.host[col] = h
		}
	}
	if err := lg.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("dlb: restoring rank %d ledger: %w", rank, err)
	}
	return lg, nil
}

// HostOf returns the current host of col. For untracked movable columns —
// which the halo protocol never needs — it returns an error; untracked
// permanent columns are resolved statically (they never move).
func (lg *Ledger) HostOf(col int) (int, error) {
	if h, ok := lg.host[col]; ok {
		return h, nil
	}
	if lg.L.IsPermanent(col) {
		return lg.L.OwnerOf(col), nil
	}
	return 0, fmt.Errorf("dlb: rank %d cannot resolve host of untracked movable column %d", lg.Rank, col)
}

// HostedColumns returns the columns currently hosted by this PE, ascending.
func (lg *Ledger) HostedColumns() []int {
	var out []int
	for col, h := range lg.host {
		if h == lg.Rank {
			out = append(out, col)
		}
	}
	sort.Ints(out)
	return out
}

// BorrowedFrom returns the columns owned by owner that this PE currently
// hosts, ascending. Owner must be a tracked owner.
func (lg *Ledger) BorrowedFrom(owner int) []int {
	var out []int
	for _, col := range lg.L.ColumnsOf(owner) {
		if lg.host[col] == lg.Rank && owner != lg.Rank {
			out = append(out, col)
		}
	}
	return out
}

// OwnMovableAtHome returns this PE's own movable columns still hosted by
// itself, ascending — the Case-1 candidates.
func (lg *Ledger) OwnMovableAtHome() []int {
	var out []int
	for _, col := range lg.L.MovableColumnsOf(lg.Rank) {
		if lg.host[col] == lg.Rank {
			out = append(out, col)
		}
	}
	return out
}

// Apply incorporates a decision made by rank decider (protocol step 4).
// Decisions about columns this ledger does not track are ignored. Tracked
// decisions are validated against the protocol: only the current host moves
// a column, permanent columns never move, Case-1 sends go to an up-left
// neighbor of the owner, and Case-3 returns go back to the owner.
func (lg *Ledger) Apply(decider int, d Decision) error {
	if d.Col < 0 {
		return nil
	}
	owner := lg.L.OwnerOf(d.Col)
	if !lg.trackedOwners[owner] {
		return nil
	}
	cur, ok := lg.host[d.Col]
	if !ok {
		return fmt.Errorf("dlb: rank %d: tracked column %d missing from host map", lg.Rank, d.Col)
	}
	if cur != decider {
		return fmt.Errorf("dlb: rank %d: decider %d is not the host (%d) of column %d", lg.Rank, decider, cur, d.Col)
	}
	if lg.L.IsPermanent(d.Col) {
		return fmt.Errorf("dlb: rank %d: permanent column %d may not move", lg.Rank, d.Col)
	}
	if decider == owner {
		// Case 1: owner lends its movable column to an up-left neighbor.
		if !containsInt(lg.L.UpLeftRanks(owner), d.Dest) {
			return fmt.Errorf("dlb: rank %d: column %d sent to %d, not an up-left neighbor of owner %d",
				lg.Rank, d.Col, d.Dest, owner)
		}
	} else {
		// Case 3: a borrower returns the column to its owner.
		if d.Dest != owner {
			return fmt.Errorf("dlb: rank %d: borrower %d must return column %d to owner %d, not %d",
				lg.Rank, decider, d.Col, owner, d.Dest)
		}
		if !containsInt(lg.L.UpLeftRanks(owner), decider) {
			return fmt.Errorf("dlb: rank %d: returner %d is not an up-left neighbor of owner %d",
				lg.Rank, decider, owner)
		}
	}
	lg.host[d.Col] = d.Dest
	return nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// CheckInvariants verifies the ledger's state against the permanent-cell
// invariants: every tracked column's host is its owner or one of the
// owner's up-left neighbors; permanent columns are at home; the hosted set
// never exceeds C' columns.
func (lg *Ledger) CheckInvariants() error {
	for col, h := range lg.host {
		owner := lg.L.OwnerOf(col)
		if lg.L.IsPermanent(col) {
			if h != owner {
				return fmt.Errorf("dlb: permanent column %d hosted by %d, not owner %d", col, h, owner)
			}
			continue
		}
		if h != owner && !containsInt(lg.L.UpLeftRanks(owner), h) {
			return fmt.Errorf("dlb: column %d hosted by %d, outside owner %d's up-left set", col, h, owner)
		}
	}
	if n := len(lg.HostedColumns()); n > lg.L.MaxHostedColumns() {
		return fmt.Errorf("dlb: rank %d hosts %d columns, exceeding C' = %d",
			lg.Rank, n, lg.L.MaxHostedColumns())
	}
	return nil
}
