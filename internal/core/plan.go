package core

import (
	"fmt"

	"permcell/internal/kernel"
	"permcell/internal/particle"
	"permcell/internal/vec"
)

// Positions in a PE's neighbor list stand in for ranks wherever the step
// loop looks a host up; these two are the non-positions.
const (
	nbSelf    int32 = -1 // the PE itself
	nbUnknown int32 = -2 // a rank this PE neither is nor exchanges with
)

// plan is a PE's placement state: who it talks to about which cells. It is
// a pure function of the ownership map, so it is built once per ownership
// epoch — at start-up (fresh or restored) and after a balancer epoch in
// which this rank or a neighbor moved a column, never again on a static
// decomposition — and the steady-state step reads it without looking a host
// up or asking a neighbor anything.
//
// The halo lists come from the one walk kernel.SetHosted already made.
// recv[k] is the ghost cells neighbor k hosts, ascending: what its reply
// must carry, and what the force return to it carries back (the forces this
// PE's pairs put on k's particles). send[k] is the hosted cells k imports:
// adjacency is symmetric, so a cell hosted here is in k's ghost set exactly
// when one of its 26 neighbors is hosted by k — and the unhosted neighbors
// of a hosted cell are ghost cells, whose hosts recv needed anyway. Two
// ranks' ledgers agree on every column both can see, so k derives the
// mirror image and no request has to travel.
//
// The send side owns its buffers: send[k]'s blocks, their positions
// (windows of arena[k]), recv[k]'s blocks, their forces (windows of the
// kernel's ghost accumulator) and out[k] are refilled in place every step.
// That is safe on every transport because a message is consumed before its
// sender can reach the same phase of the next step. Each step every PE
// exchanges exactly one migrate, then one halo and then one force message
// with every neighbor. A receiver copies a halo reply out (SealGhosts)
// before it leaves haloExchange, and only then sends its force return, which
// the replying PE must receive before the next step's halo; a force return
// is added up before its receiver leaves returnForces and sends the next
// step's migrate message, which the returning PE must receive before the
// Compute that refills the accumulator; migrate buffers are covered the same
// way by the halo message in between. Delivery order does not enter the
// argument, only the order in which a rank issues its own operations, so the
// fault layer's jitter and reordering (both inside the sender's send call or
// flushed before its next receive) change nothing; and a Remote
// encodes the payload before Deliver returns.
type plan struct {
	nbPos  []int32          // per rank: its position in the PE's neighbor list, else nbUnknown
	cellNb []int32          // per grid cell: neighbor position of its host, nbSelf, or nbUnknown
	recv   [][]cellBlock    // per neighbor position: the cells its halo reply carries; Pos the forces returned
	send   [][]cellBlock    // per neighbor position: the reply to it; Cell fixed per epoch, Pos per step
	arena  [][]vec.V        // per neighbor position: backing store of send's positions
	out    [][]particle.One // per neighbor position: this step's emigrants
	ghosts []int32          // SlotGhosts scratch
}

// newPlan returns the empty plan of a PE with neighbor list nbs, in a world
// of p ranks over a grid of numCells cells.
func newPlan(numCells, p int, nbs []int) *plan {
	x := &plan{
		nbPos:  make([]int32, p),
		cellNb: make([]int32, numCells),
		recv:   make([][]cellBlock, len(nbs)),
		send:   make([][]cellBlock, len(nbs)),
		arena:  make([][]vec.V, len(nbs)),
		out:    make([][]particle.One, len(nbs)),
	}
	for r := range x.nbPos {
		x.nbPos[r] = nbUnknown
	}
	for k, nb := range nbs {
		x.nbPos[nb] = int32(k)
	}
	return x
}

// rebuild derives the plan of the PE rank from the topology SetHosted just
// built in cl and the ownership map behind it.
func (x *plan) rebuild(rank int, own ownership, cl *kernel.CellLists) {
	for i := range x.cellNb {
		x.cellNb[i] = nbUnknown
	}
	for k := range x.recv {
		x.recv[k] = x.recv[k][:0]
		x.send[k] = x.send[k][:0]
	}
	hosted, ghostCells := cl.HostedCells(), cl.GhostCells()
	for _, c := range hosted {
		x.cellNb[c] = nbSelf
	}
	for _, c := range ghostCells {
		host, err := own.hostOf(c)
		if err != nil {
			panic(fmt.Sprintf("core: rank %d halo: %v", rank, err))
		}
		k := x.nbPos[host]
		if k < 0 {
			panic(fmt.Sprintf("core: rank %d: halo cell %d hosted by non-neighbor %d", rank, c, host))
		}
		x.cellNb[c] = k
		x.recv[k] = append(x.recv[k], cellBlock{Cell: c})
	}
	for s, c := range hosted {
		x.ghosts = cl.SlotGhosts(s, x.ghosts[:0])
		for _, gs := range x.ghosts {
			k := x.cellNb[ghostCells[gs]]
			if n := len(x.send[k]); n == 0 || x.send[k][n-1].Cell != c {
				x.send[k] = append(x.send[k], cellBlock{Cell: c})
			}
		}
	}
}

// pack fills the reply to neighbor position k with the hosted cells'
// current positions and returns it with its payload size in bytes.
func (x *plan) pack(k int, cl *kernel.CellLists, pos []vec.V) ([]cellBlock, int64) {
	blocks := x.send[k]
	n := 0
	for i := range blocks {
		idx, _ := cl.CellParticles(blocks[i].Cell)
		n += len(idx)
	}
	// Sized before any block takes its window: a block never points into an
	// array the arena has since outgrown.
	if cap(x.arena[k]) < n {
		x.arena[k] = make([]vec.V, 0, n+n/4)
	}
	arena := x.arena[k][:0]
	for i := range blocks {
		idx, _ := cl.CellParticles(blocks[i].Cell)
		from := len(arena)
		for _, j := range idx {
			arena = append(arena, pos[j])
		}
		blocks[i].Pos = arena[from:len(arena):len(arena)]
	}
	return blocks, int64(n) * vecLen
}

// match holds a message from neighbor nb to the cells the plan says it must
// carry, cell for cell. A short, long, misordered or repeated one is a
// protocol violation, not an empty cell.
func match(rank, nb int, what string, got, want []cellBlock) {
	for i := range got {
		if i == len(want) {
			panic(fmt.Sprintf("core: rank %d: %s from %d carries cell %d after the %d cells the plan expects",
				rank, what, nb, got[i].Cell, len(want)))
		}
		if got[i].Cell != want[i].Cell {
			panic(fmt.Sprintf("core: rank %d: %s from %d carries cell %d where the plan expects cell %d (block %d of %d)",
				rank, what, nb, got[i].Cell, want[i].Cell, i, len(want)))
		}
	}
	if len(got) < len(want) {
		panic(fmt.Sprintf("core: rank %d: %s from %d ends before cell %d (%d of %d cells)",
			rank, what, nb, want[len(got)].Cell, len(got), len(want)))
	}
}

// stage checks neighbor nb's halo reply against recv[k] and stages it into
// the kernel's ghost arena.
func (x *plan) stage(rank, nb, k int, reply []cellBlock, cl *kernel.CellLists) {
	match(rank, nb, "halo reply", reply, x.recv[k])
	for i := range reply {
		cl.StageGhost(reply[i].Cell, reply[i].Pos)
	}
}

// packReturn fills the force return to neighbor position k: per cell of
// recv[k], what the last Compute put on its imported particles, as windows
// of the kernel's ghost accumulator.
func (x *plan) packReturn(k int, cl *kernel.CellLists, load float64) (forceReturn, int64) {
	blocks, n := x.recv[k], 0
	for i := range blocks {
		blocks[i].Pos = cl.GhostForces(blocks[i].Cell)
		n += len(blocks[i].Pos)
	}
	return forceReturn{Load: load, Cells: blocks}, int64(n) * vecLen
}

// addReturn checks neighbor nb's force return against the halo reply it
// answers — send[k] as packed this step, cell for cell and count for count —
// and adds it to frc in cell, then particle order.
func (x *plan) addReturn(rank, nb, k int, ret []cellBlock, cl *kernel.CellLists, frc []vec.V) {
	sent := x.send[k]
	match(rank, nb, "force return", ret, sent)
	for i := range ret {
		if len(ret[i].Pos) != len(sent[i].Pos) {
			panic(fmt.Sprintf("core: rank %d: force return from %d carries %d forces for cell %d, sent with %d positions",
				rank, nb, len(ret[i].Pos), ret[i].Cell, len(sent[i].Pos)))
		}
		idx, _ := cl.CellParticles(ret[i].Cell)
		for j, f := range ret[i].Pos {
			frc[idx[j]] = frc[idx[j]].Add(f)
		}
	}
}
