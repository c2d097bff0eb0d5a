package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"permcell/internal/particle"
	"permcell/internal/potential"
	"permcell/internal/space"
	"permcell/internal/vec"
)

// CellLists is the flat, reusable scratch state behind the pair-force
// kernel. It replaces the per-step map[int][]int cell map with dense
// structures that are rebuilt into reused buffers, so the force path
// performs zero heap allocations per step in steady state:
//
//   - a CSR cell list (Bin): hosted cells in ascending index order, each
//     with the contiguous slice of its local particle indices, plus the
//     positions copied into part order: a cell's particles are one
//     contiguous run, and both inner loops index that run directly;
//   - a precomputed half stencil per hosted cell (SetHosted): the
//     Neighbors26 walk with each neighbor resolved once to a hosted-cell
//     or ghost-cell slot, under one ownership rule: the host of the lower
//     cell id evaluates the pair, once, and scatters the force to both
//     particles (Newton's third law). Hosted entries are kept only for the
//     ~13 higher-id cells, an entry towards a lower ghost cell as count-only
//     (its host evaluates the pair). A one-byte code per entry names its
//     min-image round term in a 27-entry table; built in one map-free pass
//     over the hosted cells, only when the hosted set changes;
//   - a flat ghost arena (StageGhost/SealGhosts): every ghost cell's
//     imported positions are staged at the cell's own slot, in whatever
//     order the halo replies arrive, and sealed into one slice, CSR-indexed
//     by ghost slot, by a linear copy;
//   - per-shard slot lists (CSR over the shard partition): each worker
//     walks exactly its own cells instead of filtering the full hosted
//     list every step;
//   - per shard, a fixed hit buffer and force accumulators in part order
//     (the same index as the positions, no particle-id indirection) and,
//     for imported particles, in ghost-arena order: zeroed and reduced — into
//     the caller's force array and shard 0's ghost accumulator — inside the
//     parallel section (fixed order, so bits do not depend on worker timing).
//
// The force pass (computeShard) is two phases over one visiting order. The
// search phase computes every candidate pair's squared distance in a small
// leaf loop with no distance-dependent branch and appends the pairs inside
// the cut-off, packed as (a, stencil code, neighbour index), to the hit
// buffer; the accumulate phase walks the hits in order, recomputes the
// displacement with the same expression, evaluates the potential and adds
// into the accumulators. The buffer holds hitCap entries: a cell pair is
// searched only when all its candidates fit the free space, after a flush
// if need be, and a pair larger than the whole buffer goes row by row.
//
// Determinism contract: hosted cells are visited in ascending cell index
// order, each cell's stencil preserves the Neighbors26 order, and hits are
// buffered and flushed in that same order, so every accumulator sees the
// additions a single fused loop would make, in its order: for a given
// hosted set, particle assignment and shard count the floating-point
// summation order — and therefore every bit of the result — is fixed. With
// Shards == 1 the summation order is exactly that of the historical
// map-based kernel, so single-shard results are bit-identical to it. With
// S > 1 shards, hosted columns are dealt round-robin (in ascending column
// order) to S workers; each shard accumulates forces and energy into its
// own buffers, and the shard results are reduced in fixed shard order, so
// runs are bit-reproducible for a given shard count (but differ between
// shard counts, which is why the shard count is part of the run config and
// the trace header).
type CellLists struct {
	g      space.Grid
	shards int

	// Hosted topology, rebuilt by SetHosted only. The per-slot int32 arrays
	// (stStart, shardSlot, shardStart, count, start) are windows of
	// slotBlock, so a rebuild sizes them with one allocation at most.
	cells      []int     // hosted cell ids, ascending
	slotOf     []int32   // per grid cell: hosted slot s >= 0, ghost -2-gs, else -1
	stencil    []int32   // >= 0: hosted slot (higher cell id); < 0: -1-ghostSlot
	stCode     []uint8   // per stencil entry: index of its round term in shift, or countOnly
	stStart    []int32   // CSR offsets into stencil, len(cells)+1
	ghostCells []int     // unhosted neighbor cell ids, ascending
	shardSlot  []int32   // hosted slots grouped by shard (CSR), ascending per shard
	shardStart []int32   // CSR offsets into shardSlot, len shards+1
	slotBlock  []int32   // backing store of the per-slot arrays
	colRank    []int32   // per column scratch of the shard partition (shards > 1)
	shift      [32]vec.V // min-image round terms by code: cx + 3*cy + 9*cz < 27
	useShift   bool      // all grid dims >= 4: shift is exact, skip per-pair rounding

	// Per-step particle CSR, rebuilt by Bin.
	count []int32 // per-slot particle count; doubles as fill cursor
	start []int32 // CSR offsets into part, len(cells)+1
	pslot []int32 // per particle: its hosted slot, from Bin's counting pass
	part  []int32 // particle indices grouped by hosted cell
	ppos  []vec.V // positions in part order (cache-friendly inner loops)

	// Ghost arena, rebuilt by StageGhost/SealGhosts each step.
	ghostIn    [][]vec.V // per ghost slot: the positions staged for it
	staged     []bool    // per ghost slot: staged since ClearGhosts
	nStaged    int
	ghostStart []int32 // CSR offsets into ghostPos, len(ghostCells)+1
	ghostPos   []vec.V

	// Per-shard state of the force pass, reduced in fixed shard order.
	acc       []shardAcc
	hits      [][hitCap]uint64 // search-phase output, flushed whenever it fills
	pfrc      [][]vec.V        // force accumulators in part order, sized by Bin
	gfrc      [][]vec.V        // ghost force accumulators in ghostPos order, sized by SealGhosts
	evaluated int64            // the last Compute's pairs less its count-only candidates

	// Bounded worker pool (started lazily, only when shards > 1).
	pair   potential.Pair // current Compute target
	phase  int            // worker dispatch mode: phaseForce or phaseReduce
	frcDst []vec.V        // reduce-phase target (s.Frc), set by Compute

	running bool
	startCh []chan struct{}
	doneCh  chan struct{}
}

// Worker dispatch phases. Both are set by Compute before the channel sends
// that release the workers, so no atomics are needed (channel
// happens-before).
const (
	phaseForce = iota
	phaseReduce
)

// shardAcc is one shard's share of the scalars Compute returns.
type shardAcc struct {
	pot, vir  float64
	prs, lent int64 // candidate pairs counted; of those, left to a lower ghost's host
}

// Codes of the min-image round term along one axis: none, -L (the neighbor
// wrapped below zero) and +L (above). A stencil entry's code is
// cx + 3*cy + 9*cz, or countOnly for a ghost cell below the hosted one: that
// pair belongs to the ghost's host, and this side only counts its candidates.
const (
	wrapNone uint8 = iota
	wrapBelow
	wrapAbove
	countOnly uint8 = 27
)

// wrapCoord maps the cell coordinate u of a neighbor offset (so u is in
// [-1, n]) into [0, n) and names the min-image round term Round(d/l)*l for
// displacements from a particle in the offset's origin cell to one in the
// wrapped cell: -l when the neighbor wrapped below zero, +l above, else
// exactly +0.0. The term is valid when n >= 4 (see useShift).
func wrapCoord(u, n int) (int, uint8) {
	switch {
	case u < 0:
		return u + n, wrapBelow
	case u >= n:
		return u - n, wrapAbove
	}
	return u, wrapNone
}

// wrapTerms are one axis's three round terms, indexed by wrap code.
func wrapTerms(l float64) [3]float64 { return [3]float64{wrapNone: 0, wrapBelow: -l, wrapAbove: l} }

// NewCellLists returns scratch state for grids of g's size using the given
// worker shard count (values < 1 mean 1: the serial kernel). Call Close
// when done if shards > 1, to stop the worker pool.
func NewCellLists(g space.Grid, shards int) *CellLists {
	if shards < 1 {
		shards = 1
	}
	cl := &CellLists{g: g, shards: shards}
	// With at least 4 cells per dimension, whether a neighbor-cell pair wraps
	// around the box — and so the min-image round term Round(d/L)*L, exactly
	// 0 or +-L — is fixed by the cell pair alone (particles live in half-open
	// cells, so every |d| comparison against L/2 is strict). The stencil then
	// names the term and the kernel skips the per-pair divide-and-round,
	// with bit-identical results.
	cl.useShift = g.Nx >= 4 && g.Ny >= 4 && g.Nz >= 4
	tx, ty, tz := wrapTerms(g.Box.L.X), wrapTerms(g.Box.L.Y), wrapTerms(g.Box.L.Z)
	for code := range 27 {
		cl.shift[code] = vec.V{X: tx[code%3], Y: ty[code/3%3], Z: tz[code/9]}
	}
	cl.slotOf = make([]int32, g.NumCells())
	for i := range cl.slotOf {
		cl.slotOf[i] = -1
	}
	cl.acc = make([]shardAcc, shards)
	cl.hits = make([][hitCap]uint64, shards)
	cl.pfrc = make([][]vec.V, shards)
	cl.gfrc = make([][]vec.V, shards)
	return cl
}

// SetHosted rebuilds the hosted topology: the ascending hosted cell list,
// the per-cell neighbor stencils, the ghost slot assignment and the shard
// partition. Call it only when the hosted set changes (initialization or a
// DLB column move); Bin and Compute reuse the result every step. It is one
// pass over the hosted cells that looks nothing up in a map, and it sizes
// its storage before the pass, so a rebuild into a CellLists that has seen
// a topology this large allocates nothing.
func (cl *CellLists) SetHosted(cells []int) {
	// Reset the previous topology in slotOf.
	for _, c := range cl.cells {
		cl.slotOf[c] = -1
	}
	for _, c := range cl.ghostCells {
		cl.slotOf[c] = -1
	}
	cl.cells = append(cl.cells[:0], cells...)
	slices.Sort(cl.cells)
	for s, c := range cl.cells {
		if s > 0 && c == cl.cells[s-1] {
			panic(fmt.Sprintf("kernel: duplicate hosted cell %d", c))
		}
		cl.slotOf[c] = int32(s)
	}
	g, n := cl.g, len(cl.cells)

	// Sized once: a cell has at most 26 stencil entries, and a ghost cell is
	// an unhosted neighbor of a hosted one.
	cl.stencil = slices.Grow(cl.stencil[:0], 26*n)
	cl.stCode = slices.Grow(cl.stCode[:0], 26*n)
	cl.ghostCells = slices.Grow(cl.ghostCells[:0], min(26*n, g.NumCells()-n))
	if need := 5*n + 2 + 2*cl.shards + 1; cap(cl.slotBlock) < need {
		cl.slotBlock = make([]int32, need)
	}
	block := cl.slotBlock[:cap(cl.slotBlock)]
	clear(block)
	carve := func(k int) []int32 {
		w := block[:k:k]
		block = block[k:]
		return w
	}
	cl.stStart, cl.start = carve(n+1), carve(n+1)
	cl.count, cl.shardSlot = carve(n), carve(n)
	cl.shardStart = carve(cl.shards + 1)
	// Scratch of the shard partition below: each slot's shard, and the
	// cursor of the per-shard list fill.
	shardOf, fill := carve(n), carve(cl.shards)

	// Stencils and ghost cells in one walk: the 26 offsets of every hosted
	// cell in dz, dy, dx ascending order, each neighbor encoded as a hosted
	// slot (kept only for higher cell ids — the pair is owned by the lower
	// cell) or a ghost (count-only when it is the lower cell). That is the
	// Neighbors26 order with the first
	// occurrence kept, which fixes the summation order; the walk is inline
	// because it also needs the wrap direction of each offset — the code of
	// its min-image round term. Offsets collide only on a grid with a
	// dimension below 3, and are then found by scanning the cell's own few
	// neighbors so far. A ghost's slot is its rank among the ghost cells in
	// ascending order, unknown until the walk ends: entries hold the ghost's
	// cell id (-1-cell) until then.
	const ghostSeen = -2
	dedupe := g.Nx < 3 || g.Ny < 3 || g.Nz < 3
	var seen [26]int
	for s, c := range cl.cells {
		cl.stStart[s] = int32(len(cl.stencil))
		ix, iy, iz := g.Coords(c)
		nSeen := 0
		for dz := -1; dz <= 1; dz++ {
			z, cz := wrapCoord(iz+dz, g.Nz)
			for dy := -1; dy <= 1; dy++ {
				y, cy := wrapCoord(iy+dy, g.Ny)
				row := g.Nx * (y + g.Ny*z)
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					x, cx := wrapCoord(ix+dx, g.Nx)
					nc := row + x
					if dedupe {
						if nc == c || slices.Contains(seen[:nSeen], nc) {
							continue
						}
						seen[nSeen] = nc
						nSeen++
					}
					v, code := cl.slotOf[nc], cx+3*cy+9*cz
					if v >= 0 {
						if nc <= c {
							continue // hosted-hosted pair owned by the lower cell
						}
					} else {
						if v == -1 {
							cl.slotOf[nc] = ghostSeen
							cl.ghostCells = append(cl.ghostCells, nc)
						}
						v = -1 - int32(nc)
						if nc < c {
							code = countOnly
						}
					}
					cl.stencil = append(cl.stencil, v)
					cl.stCode = append(cl.stCode, code)
				}
			}
		}
	}
	cl.stStart[n] = int32(len(cl.stencil))
	if len(cl.ghostCells) > 0 {
		slices.Sort(cl.ghostCells)
		for gs, c := range cl.ghostCells {
			cl.slotOf[c] = -2 - int32(gs)
		}
		for k, e := range cl.stencil {
			if e < 0 {
				cl.stencil[k] = -1 - (-2 - cl.slotOf[-1-e]) // ghost slot gs encoded as -1-gs
			}
		}
	}

	// Shard partition: hosted columns ascending, dealt round-robin. All
	// cells of a column land on the same shard so a shard's work tracks the
	// DLB's unit of transfer. A column's shard is its rank among the hosted
	// columns, found by marking them in a per-column array and counting up.
	if cl.shards > 1 {
		if cl.colRank == nil {
			cl.colRank = make([]int32, g.NumColumns())
		}
		clear(cl.colRank)
		for _, c := range cl.cells {
			cl.colRank[g.ColumnOf(c)] = 1
		}
		rank := int32(0)
		for col, hosted := range cl.colRank {
			cl.colRank[col] = rank
			rank += hosted
		}
		for i, c := range cl.cells {
			shardOf[i] = cl.colRank[g.ColumnOf(c)] % int32(cl.shards)
		}
	}
	// Flatten the partition into per-shard slot lists (CSR, slots ascending
	// within a shard — the same visit order the shard test used to produce),
	// so each worker walks only its own cells instead of filtering all of
	// them every step.
	for _, sh := range shardOf {
		cl.shardStart[sh+1]++
	}
	for sh := 0; sh < cl.shards; sh++ {
		cl.shardStart[sh+1] += cl.shardStart[sh]
	}
	copy(fill, cl.shardStart[:cl.shards])
	for slot, sh := range shardOf {
		cl.shardSlot[fill[sh]] = int32(slot)
		fill[sh]++
	}

	// Size the ghost arena's heads for the new topology.
	ng := len(cl.ghostCells)
	cl.ghostStart = append(cl.ghostStart[:0], make([]int32, ng+1)...)
	cl.ghostIn = append(cl.ghostIn[:0], make([][]vec.V, ng)...)
	cl.staged = append(cl.staged[:0], make([]bool, ng)...)
	cl.nStaged = 0
	cl.ghostPos = cl.ghostPos[:0]
}

// NumHosted returns the number of hosted cells.
func (cl *CellLists) NumHosted() int { return len(cl.cells) }

// HostedCells returns the hosted cell ids, ascending. The slice is owned by
// the CellLists; do not modify.
func (cl *CellLists) HostedCells() []int { return cl.cells }

// GhostCells returns the unhosted neighbor cells the kernel needs imported
// positions for, ascending. The slice is owned by the CellLists.
func (cl *CellLists) GhostCells() []int { return cl.ghostCells }

// SlotCell returns the cell id of hosted slot s.
func (cl *CellLists) SlotCell(s int) int { return cl.cells[s] }

// SlotLen returns the particle count of hosted slot s after Bin.
func (cl *CellLists) SlotLen(s int) int {
	return int(cl.start[s+1] - cl.start[s])
}

// SlotParticles returns the local particle indices of hosted slot s after
// Bin. The slice aliases internal storage valid until the next Bin.
func (cl *CellLists) SlotParticles(s int) []int32 {
	return cl.part[cl.start[s]:cl.start[s+1]]
}

// CellParticles returns the local particle indices of the given hosted cell
// after Bin, or nil (and false) if the cell is not hosted.
func (cl *CellLists) CellParticles(cell int) ([]int32, bool) {
	v := cl.slotOf[cell]
	if v < 0 {
		return nil, false
	}
	return cl.SlotParticles(int(v)), true
}

// SlotGhosts appends to dst the ghost slots (indices into GhostCells) that
// hosted slot s borders, in stencil order, and returns the extended slice.
// The halo plan is derived from it: a hosted cell is imported by exactly
// the hosts of the ghost cells it borders.
func (cl *CellLists) SlotGhosts(s int, dst []int32) []int32 {
	for _, e := range cl.stencil[cl.stStart[s]:cl.stStart[s+1]] {
		if e < 0 {
			dst = append(dst, -1-e)
		}
	}
	return dst
}

// Bin rebuilds the CSR cell list from the given positions. Particle indices
// within a cell are ascending (insertion order of the set). It returns -1
// on success, or the index of the first particle that falls outside the
// hosted set.
func (cl *CellLists) Bin(pos []vec.V) int {
	n := len(pos)
	if n > maxIndex {
		panic(fmt.Sprintf("kernel: %d particles in one domain, the hit encoding holds %d", n, maxIndex))
	}
	// A new maximum grows the arrays with append's headroom, so a population
	// that creeps up during condensation does not reallocate at every step.
	cl.pslot = slices.Grow(cl.pslot[:0], n)[:n]
	cl.part = slices.Grow(cl.part[:0], n)[:n]
	cl.ppos = slices.Grow(cl.ppos[:0], n)[:n]
	for sh := range cl.pfrc {
		cl.pfrc[sh] = slices.Grow(cl.pfrc[sh][:0], n)[:n]
	}
	clear(cl.count)
	loc := cl.g.Locator()
	for i := range pos {
		v := cl.slotOf[loc.Cell(pos[i])]
		if v < 0 {
			return i
		}
		cl.pslot[i] = v // the fill pass below places by it: one lookup per particle
		cl.count[v]++
	}
	cl.start[0] = 0
	for s, n := range cl.count {
		cl.start[s+1] = cl.start[s] + n
	}
	copy(cl.count, cl.start[:len(cl.count)]) // count becomes the fill cursor
	for i, v := range cl.pslot {
		cl.part[cl.count[v]] = int32(i)
		cl.ppos[cl.count[v]] = pos[i]
		cl.count[v]++
	}
	return -1
}

// ClearGhosts discards what was staged ahead of a new halo exchange.
func (cl *CellLists) ClearGhosts() {
	clear(cl.staged)
	cl.nStaged = 0
}

// StageGhost records the imported positions of one ghost cell at the cell's
// own slot, so the order the halo replies arrive in leaves no trace. pos is
// read by SealGhosts, not copied here. Each ghost cell has exactly one host:
// staging one twice, or a cell that is not in the ghost set, is a protocol
// violation.
func (cl *CellLists) StageGhost(cell int, pos []vec.V) {
	v := cl.slotOf[cell]
	if v >= -1 {
		panic(fmt.Sprintf("kernel: cell %d staged as ghost but not in the ghost set", cell))
	}
	gs := -2 - v
	if cl.staged[gs] {
		panic(fmt.Sprintf("kernel: ghost cell %d staged twice", cell))
	}
	cl.staged[gs] = true
	cl.ghostIn[gs] = pos
	cl.nStaged++
}

// SealGhosts builds the flat ghost arena from the staged cells: one linear
// copy in ghost-slot (ascending cell id) order, which fixes the summation
// order. Every ghost cell must have been staged, empty or not — a cell the
// halo left out would otherwise count as empty and the forces would be
// silently wrong. The staged slices are let go of here.
func (cl *CellLists) SealGhosts() {
	if cl.nStaged != len(cl.ghostCells) {
		gs := slices.Index(cl.staged, false)
		panic(fmt.Sprintf("kernel: ghost cell %d was not staged (%d of %d were)",
			cl.ghostCells[gs], cl.nStaged, len(cl.ghostCells)))
	}
	cl.ghostPos = cl.ghostPos[:0]
	for gs, pos := range cl.ghostIn {
		cl.ghostStart[gs] = int32(len(cl.ghostPos))
		cl.ghostPos = append(cl.ghostPos, pos...)
		cl.ghostIn[gs] = nil
	}
	cl.ghostStart[len(cl.ghostCells)] = int32(len(cl.ghostPos))
	n := len(cl.ghostPos)
	if n > maxIndex {
		panic(fmt.Sprintf("kernel: %d ghost positions, the hit encoding holds %d", n, maxIndex))
	}
	for sh := range cl.gfrc {
		cl.gfrc[sh] = slices.Grow(cl.gfrc[sh][:0], n)[:n]
	}
}

// GhostForces returns what the last Compute put on the imported particles of
// the given ghost cell, in staging order, for the cell's host to add. The
// window aliases the kernel's arena and is valid until the next Compute.
func (cl *CellLists) GhostForces(cell int) []vec.V {
	gs := -2 - cl.slotOf[cell]
	lo, hi := cl.ghostStart[gs], cl.ghostStart[gs+1]
	return cl.gfrc[0][lo:hi:hi]
}

// Compute accumulates short-range pair forces into s.Frc (which must be
// zeroed by the caller) over the pairs this domain owns — every pair of two
// hosted cells, and every pair of a hosted cell with a ghost cell of higher
// id — each evaluated exactly once with the force scattered to both
// particles (Newton's third law): a hosted one into s.Frc, an imported one
// into the ghost accumulator its host collects through GhostForces. It
// returns the full potential energy and pair virial sum(f*r2) of those
// pairs, so both sum over domains to the system's, and pairs, the census of
// the domain's candidate pairs (the deterministic work metric): every pair
// within a hosted cell or between it and a stencil neighbor, hosted or
// ghost — a cross-boundary pair is counted on both sides and evaluated on
// one (see Evaluated).
//
// Every shard accumulates into its own buffers, held in part order (next to
// the positions the inner loops read) and in ghost-arena order; the buffers
// are zeroed by their shards and then added up particle by particle, shards
// ascending, so the bits never depend on worker timing.
func (cl *CellLists) Compute(pair potential.Pair, s *particle.Set) (potE, virial float64, pairs int64) {
	cl.pair, cl.frcDst = pair, s.Frc
	if cl.shards == 1 {
		cl.computeShard(0)
		cl.reduceRange(0)
	} else {
		// Two dispatch rounds: every worker clears its own buffer and runs
		// the force pass over its cells, then — after the barrier — reduces
		// a disjoint range of particles across all shard buffers into s.Frc.
		// Both the buffer zeroing and the O(shards*N) reduction run inside
		// the parallel section, so the serial fraction of a sharded step is
		// only the dispatch itself.
		cl.ensurePool()
		cl.phase = phaseForce
		cl.dispatch()
		cl.phase = phaseReduce
		cl.dispatch()
	}
	cl.pair, cl.frcDst = nil, nil
	cl.evaluated = 0
	for _, a := range cl.acc {
		potE += a.pot
		virial += a.vir
		pairs += a.prs
		cl.evaluated += a.prs - a.lent
	}
	return potE, virial, pairs
}

// dispatch releases every worker and waits for all of them to finish one
// phase.
func (cl *CellLists) dispatch() {
	for sh := 0; sh < cl.shards; sh++ {
		cl.startCh[sh] <- struct{}{}
	}
	for sh := 0; sh < cl.shards; sh++ {
		<-cl.doneCh
	}
}

// reduceRange scatters the worker's share of the part-order accumulators
// into frcDst: for each particle, the shard buffers added in fixed shard
// order (0, 1, 2, ...). The per-particle sums are independent, so the
// result is bit-identical to a serial fixed-order reduction regardless of
// how the range is divided among workers. The ghost accumulators are summed
// the same way, into shard 0's.
func (cl *CellLists) reduceRange(sh int) {
	dst := cl.frcDst
	n := len(cl.part)
	lo := sh * n / cl.shards
	hi := (sh + 1) * n / cl.shards
	for k := lo; k < hi; k++ {
		i := cl.part[k]
		f := dst[i]
		for _, ff := range cl.pfrc {
			f = f.Add(ff[k])
		}
		dst[i] = f
	}
	if cl.shards == 1 {
		return // shard 0's ghost accumulator is the sum
	}
	g0 := cl.gfrc[0]
	for k := sh * len(g0) / cl.shards; k < (sh+1)*len(g0)/cl.shards; k++ {
		for _, gg := range cl.gfrc[1:] {
			g0[k] = g0[k].Add(gg[k])
		}
	}
}

// A hit is one pair inside the cut-off, packed by the search phase for the
// accumulate phase: the part-order index of a, the code of the stencil
// entry's round term, and the index of the neighbour b — into ppos, or into
// ghostPos when hitGhost is set.
const (
	hitCap       = 4096 // entries per shard buffer: 32 KiB, L1-resident
	hitIndexBits = 29
	hitGhost     = 1 << hitIndexBits
	hitCodeShift = hitIndexBits + 1
	hitAShift    = hitCodeShift + 5
	maxIndex     = 1<<hitIndexBits - 1 // largest particle or ghost index a hit can name
)

// searchShift is the search phase over one cell pair on a grid whose round
// terms are fixed per stencil entry: for every a in lpos and b in q it
// computes the squared distance (round term t) and keeps key + a<<hitAShift
// + b when the pair is inside the cut-off. The entry is always written and
// the count advances by a flag, so the loop carries no branch that depends
// on the distance. The caller guarantees n + len(lpos)*len(q) <= hitCap.
func searchShift(hits *[hitCap]uint64, n uint64, key uint64, lpos, q []vec.V, t vec.V, rc2 float64) uint64 {
	buf := hits[:] // a slice of constant length: nil-checked here, once, and never out of range
	for _, p := range lpos {
		h := key
		for _, qb := range q {
			dx := p.X - qb.X - t.X
			dy := p.Y - qb.Y - t.Y
			dz := p.Z - qb.Z - t.Z
			r2 := dx*dx + dy*dy + dz*dz
			buf[n%hitCap] = h
			h++
			n = countHit(n, r2, rc2)
		}
		key += 1 << hitAShift
	}
	return n
}

// searchMinImage is searchShift for a grid with a dimension below 4, where
// the round term depends on the pair: the minimum image in a box of edges l.
func searchMinImage(hits *[hitCap]uint64, n uint64, key uint64, lpos, q []vec.V, l vec.V, rc2 float64) uint64 {
	buf := hits[:]
	for _, p := range lpos {
		h := key
		for _, qb := range q {
			r2 := p.Sub(qb).MinImage(l).Norm2()
			buf[n%hitCap] = h
			h++
			n = countHit(n, r2, rc2)
		}
		key += 1 << hitAShift
	}
	return n
}

// countHit returns n + 1 when a pair at squared distance r2 interacts and n
// when it is beyond the cut-off or coincident (r2, a sum of squares, is zero
// only as +0), by arithmetic on the carry flag rather than a branch. A NaN
// distance is a hit: it must reach the forces, where the guards find it.
func countHit(n uint64, r2, rc2 float64) uint64 {
	u := math.Float64bits(r2)
	if r2 >= rc2 {
		u = 0 // a conditional move
	}
	_, hit := bits.Add64(u, ^uint64(0), 0) // u - 1 carries unless u == 0
	n, _ = bits.Add64(n, 0, hit)
	return n
}

// pass is one shard's state during a force pass.
type pass struct {
	cl       *CellLists
	hits     *[hitCap]uint64
	n        uint64  // hits buffered
	frc      []vec.V // force accumulators in part order
	gfrc     []vec.V // ghost force accumulators in ghostPos order
	pot, vir float64
	rc2      float64
}

// search runs the search phase over the cell pair lpos x q, whose hits are
// named key + a<<hitAShift + b. A pair that does not fit the buffer's free
// space waits for a flush; a crowded one, larger than the whole buffer, goes
// row by row, and a row longer than the buffer in pieces.
func (ps *pass) search(key uint64, lpos, q []vec.V) {
	switch need := len(lpos) * len(q); {
	case ps.n+uint64(need) <= hitCap:
		if cl := ps.cl; cl.useShift {
			ps.n = searchShift(ps.hits, ps.n, key, lpos, q, cl.shift[key>>hitCodeShift%32], ps.rc2)
		} else {
			ps.n = searchMinImage(ps.hits, ps.n, key, lpos, q, cl.g.Box.L, ps.rc2)
		}
	case need <= hitCap:
		ps.flush()
		ps.search(key, lpos, q)
	default:
		for a := range lpos {
			for off := 0; off < len(q); off += hitCap {
				ps.search(key+uint64(a)<<hitAShift+uint64(off), lpos[a:a+1], q[off:min(off+hitCap, len(q))])
			}
		}
	}
}

// flush is the accumulate phase: it walks the buffered hits in the order
// the search found them, recomputes each displacement with the search's own
// expression, evaluates the potential and adds into the accumulators. The
// Lennard-Jones evaluation is devirtualized via the concrete-type assertion
// so the compiler inlines it; any other Pair goes through the interface.
func (ps *pass) flush() {
	cl := ps.cl
	pair := cl.pair
	lj, ljOK := pair.(*potential.LJ)
	ppos, frc := cl.ppos, ps.frc
	pot, vir := ps.pot, ps.vir
	for _, h := range ps.hits[:ps.n] {
		a, b := h>>hitAShift, h%hitGhost
		ghost, from := h&hitGhost != 0, ppos
		if ghost {
			from = cl.ghostPos
		}
		p, q := ppos[a], from[b]
		var d vec.V
		if cl.useShift {
			t := cl.shift[h>>hitCodeShift%32]
			d = vec.V{X: p.X - q.X - t.X, Y: p.Y - q.Y - t.Y, Z: p.Z - q.Z - t.Z}
		} else {
			d = cl.g.Box.MinImage(p.Sub(q))
		}
		r2 := d.Norm2()
		var en, f float64
		if ljOK {
			en, f = lj.EnergyForce(r2)
		} else {
			en, f = pair.EnergyForce(r2)
		}
		fv := d.Scale(f)
		frc[a] = frc[a].Add(fv)
		pot += en
		vir += f * r2
		if ghost {
			ps.gfrc[b] = ps.gfrc[b].Sub(fv) // for the ghost's host to add
		} else {
			frc[b] = frc[b].Sub(fv)
		}
	}
	ps.pot, ps.vir, ps.n = pot, vir, 0
}

// computeShard runs the force pass over the cells of one shard: the search
// phase in visiting order — slot, then the cell's own pairs, then its
// stencil entries in Neighbors26 order, then a, then b — and the accumulate
// phase whenever the hit buffer fills and once at the end.
func (cl *CellLists) computeShard(sh int) {
	clear(cl.pfrc[sh])
	clear(cl.gfrc[sh])
	rc := cl.pair.Cutoff()
	ps := pass{cl: cl, hits: &cl.hits[sh], frc: cl.pfrc[sh], gfrc: cl.gfrc[sh], rc2: rc * rc}
	var pairs, lent int64
	for _, slot := range cl.shardSlot[cl.shardStart[sh]:cl.shardStart[sh+1]] {
		lo, hi := cl.start[slot], cl.start[slot+1]
		if lo == hi {
			continue // empty cell owns no pairs
		}
		lpos := cl.ppos[lo:hi]
		nl := int64(len(lpos))
		// Intra-cell pairs, each row a against the cell mates after it: the
		// round term is code 0, exactly +0.
		pairs += nl * (nl - 1) / 2
		for a := range lpos[1:] {
			row := uint64(lo) + uint64(a)
			ps.search(row<<hitAShift+row+1, lpos[a:a+1], lpos[a+1:])
		}
		// Half-stencil neighbors, in Neighbors26 order: the higher-id cells,
		// hosted or ghost (pair owned here, force scattered to both sides),
		// and the lower-id ghosts, counted and left to their host.
		st := cl.stencil[cl.stStart[slot]:cl.stStart[slot+1]]
		codes := cl.stCode[cl.stStart[slot]:cl.stStart[slot+1]]
		for k, e := range st {
			key := uint64(lo)<<hitAShift + uint64(codes[k])<<hitCodeShift
			var q []vec.V
			if e >= 0 {
				q = cl.ppos[cl.start[e]:cl.start[e+1]]
				key += uint64(cl.start[e])
			} else {
				q = cl.ghostPos[cl.ghostStart[-1-e]:cl.ghostStart[-e]]
				key += hitGhost + uint64(cl.ghostStart[-1-e])
			}
			if len(q) == 0 {
				continue // empty neighbor
			}
			pairs += nl * int64(len(q))
			if codes[k] == countOnly {
				lent += nl * int64(len(q))
				continue
			}
			ps.search(key, lpos, q)
		}
	}
	ps.flush()
	cl.acc[sh] = shardAcc{pot: ps.pot, vir: ps.vir, prs: pairs, lent: lent}
}

// ensurePool starts the bounded worker pool (one goroutine per shard). The
// pool is bounded by the shard count, lives for the CellLists' lifetime and
// is fed over per-shard channels, so a Compute call performs no allocation.
func (cl *CellLists) ensurePool() {
	if cl.running {
		return
	}
	cl.startCh = make([]chan struct{}, cl.shards)
	cl.doneCh = make(chan struct{}, cl.shards)
	for sh := range cl.startCh {
		ch := make(chan struct{})
		cl.startCh[sh] = ch
		go func(sh int, ch chan struct{}) {
			for range ch {
				if cl.phase == phaseForce {
					cl.computeShard(sh)
				} else {
					cl.reduceRange(sh)
				}
				cl.doneCh <- struct{}{}
			}
		}(sh, ch)
	}
	cl.running = true
}

// Close stops the worker pool. It is a no-op for shards == 1 or if the pool
// was never started; the CellLists must not be used after Close.
func (cl *CellLists) Close() {
	if !cl.running {
		return
	}
	for _, ch := range cl.startCh {
		close(ch)
	}
	cl.running = false
}
