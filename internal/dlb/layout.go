// Package dlb is the legal move space of the paper's contribution: dynamic
// load balancing based on permanent cells (Section 2.3). Square-pillar
// domains place an m x m block of cell columns on each PE of a sqrt(P) x
// sqrt(P) torus (Layout). The last local row and column of each block are
// permanent cells that never leave their owner; the (m-1)^2 remaining
// columns are movable, and only two kinds of move exist (Ledger.Apply
// refuses every other):
//
//	lend    an owner hands one of its own movable columns, still at home,
//	        to one of its three up-left neighbors (-1,-1), (-1,0), (0,-1);
//	return  a borrower hands a column back to its owner.
//
// The permanent walls guarantee that any column adjacent to a hosted column
// is hosted within the host's 8-neighborhood, so the communication pattern
// stays a regular 8-neighbor torus exchange forever — the whole point of
// the method. Which move a PE makes, and when, is a strategy's business:
// the paper's three-case rule and its alternatives are internal/balance.
package dlb

import (
	"fmt"
	"sort"

	"permcell/internal/topology"
)

// Layout is the static geometry of a square-pillar DLB run: an S x S torus
// of PEs, each owning an M x M block of columns. Column indices are
// flattened as cx + (S*M)*cy, matching space.Grid.ColumnIndex.
type Layout struct {
	S int // torus side, sqrt(P)
	M int // columns per side per PE
	T topology.Torus2D
}

// NewLayout returns the layout for an S x S torus with M x M columns per PE.
func NewLayout(s, m int) (Layout, error) {
	if s < 2 {
		return Layout{}, fmt.Errorf("dlb: torus side must be >= 2, got %d", s)
	}
	if m < 1 {
		return Layout{}, fmt.Errorf("dlb: m must be >= 1, got %d", m)
	}
	t, err := topology.NewTorus2D(s, s)
	if err != nil {
		return Layout{}, err
	}
	return Layout{S: s, M: m, T: t}, nil
}

// P returns the PE count S*S.
func (l Layout) P() int { return l.S * l.S }

// NxColumns returns the number of columns per axis, S*M.
func (l Layout) NxColumns() int { return l.S * l.M }

// NumColumns returns the total number of columns (S*M)^2.
func (l Layout) NumColumns() int { n := l.NxColumns(); return n * n }

// ColumnAt returns the column index at cross-section coordinates (cx, cy).
func (l Layout) ColumnAt(cx, cy int) int { return cx + l.NxColumns()*cy }

// ColumnCoords inverts ColumnAt.
func (l Layout) ColumnCoords(col int) (cx, cy int) {
	n := l.NxColumns()
	return col % n, col / n
}

// OwnerOf returns the rank that statically owns column col.
func (l Layout) OwnerOf(col int) int {
	cx, cy := l.ColumnCoords(col)
	return l.T.Rank(cx/l.M, cy/l.M)
}

// LocalCoords returns col's coordinates within its owner's M x M block.
func (l Layout) LocalCoords(col int) (a, b int) {
	cx, cy := l.ColumnCoords(col)
	return cx % l.M, cy % l.M
}

// IsPermanent reports whether col is a permanent column (last local row or
// column of its owner's block). With M == 1 every column is permanent and
// DLB degenerates to plain DDM.
func (l Layout) IsPermanent(col int) bool {
	a, b := l.LocalCoords(col)
	return a == l.M-1 || b == l.M-1
}

// ColumnsOf returns all columns owned by rank, ascending.
func (l Layout) ColumnsOf(rank int) []int {
	pi, pj := l.T.Coords(rank)
	out := make([]int, 0, l.M*l.M)
	for b := 0; b < l.M; b++ {
		for a := 0; a < l.M; a++ {
			out = append(out, l.ColumnAt(pi*l.M+a, pj*l.M+b))
		}
	}
	sort.Ints(out)
	return out
}

// MovableColumnsOf returns rank's movable columns, ascending.
func (l Layout) MovableColumnsOf(rank int) []int {
	var out []int
	for _, c := range l.ColumnsOf(rank) {
		if !l.IsPermanent(c) {
			out = append(out, c)
		}
	}
	return out
}

// UpLeftRanks returns the ranks at rank's Case-1 offsets, in UpLeft order.
func (l Layout) UpLeftRanks(rank int) []int {
	pi, pj := l.T.Coords(rank)
	out := make([]int, len(topology.UpLeft))
	for k, o := range topology.UpLeft {
		out[k] = l.T.Rank(pi+o.DI, pj+o.DJ)
	}
	return out
}

// DownRightRanks returns the ranks at rank's Case-3 offsets, in DownRight
// order.
func (l Layout) DownRightRanks(rank int) []int {
	pi, pj := l.T.Coords(rank)
	out := make([]int, len(topology.DownRight))
	for k, o := range topology.DownRight {
		out[k] = l.T.Rank(pi+o.DI, pj+o.DJ)
	}
	return out
}

// MaxHostedColumns returns C' in columns: a PE can host at most its own
// M^2 columns plus the movable columns of its three down-right neighbors,
// M^2 + 3(M-1)^2 (Section 4.1).
func (l Layout) MaxHostedColumns() int {
	return l.M*l.M + 3*(l.M-1)*(l.M-1)
}
