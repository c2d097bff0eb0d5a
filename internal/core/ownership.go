package core

import (
	"sort"

	"permcell/internal/decomp"
	"permcell/internal/dlb"
	"permcell/internal/space"
)

// ownership is the step loop's view of which rank hosts which cell. Migrate,
// halo and rebuild read it and nothing else, so DDM, DLB-DDM and the static
// plane / pillar / cube shapes are one loop over two maps: the permanent-cell
// ledger, whose hosts move as balancer decisions are applied, and a fixed
// decomposition.
type ownership interface {
	// hostOf returns the rank currently hosting cell. It fails for a cell
	// whose host this PE cannot know, which a step that moves particles at
	// most one cell never asks for.
	hostOf(cell int) (int, error)
	// hostedCells appends the cells this PE hosts to buf.
	hostedCells(buf []int) []int
	// neighbors returns the ranks this PE exchanges messages with, ascending.
	neighbors() []int
}

// ledgerOwner resolves ownership through the column ledger of the
// square-pillar layout.
type ledgerOwner struct {
	g  space.Grid
	lg *dlb.Ledger
}

func (o *ledgerOwner) hostOf(cell int) (int, error) { return o.lg.HostOf(o.g.ColumnOf(cell)) }

func (o *ledgerOwner) hostedCells(buf []int) []int {
	for _, col := range o.lg.HostedColumns() {
		buf = o.g.CellsInColumn(col, buf)
	}
	return buf
}

func (o *ledgerOwner) neighbors() []int {
	nbs := append([]int(nil), o.lg.L.T.UniqueNeighbors(o.lg.Rank)...)
	sort.Ints(nbs)
	return nbs
}

// fixedOwner resolves ownership through a static decomposition.
type fixedOwner struct {
	d    *decomp.Decomposition
	rank int
}

func (o fixedOwner) hostOf(cell int) (int, error) { return o.d.OwnerOf(cell), nil }

func (o fixedOwner) hostedCells(buf []int) []int { return append(buf, o.d.CellsOf(o.rank)...) }

func (o fixedOwner) neighbors() []int {
	nbs := o.d.NeighborRanks(o.rank)
	sort.Ints(nbs)
	return nbs
}
