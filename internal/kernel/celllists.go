package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
//   - a fixed hit buffer and force accumulators in part order (the same
//     index as the positions, no particle-id indirection) and, for imported
//     particles, in ghost-arena order, zeroed at the start of every pass.
//
// The force pass (Compute) is two phases over one visiting order. The
// search phase computes every candidate pair's squared distance in a small
// leaf loop with no distance-dependent branch and appends the pairs inside
// the cut-off, packed as (a, stencil code, neighbour index), to a hit
// buffer. The per-unit leaf — one call per row of a cell's own pairs and
// per stencil entry — is searchShift, or on an amd64 CPU with AVX2 (CPUID
// and XGETBV, checked once at init) searchShiftAVX2, which tests four
// candidates at a time by the same IEEE operations in the same order, with
// no fused multiply-add, and the same two rejection tests, so it stores the
// same hits (a call of fewer than four candidates takes searchShift, which
// costs less to enter). On those CPUs a shift grid's cell goes to the cell
// leaf instead, searchCellAVX2: one call for its own pairs and its whole
// half stencil (pass.searchCell), which runs the same tests unit after
// unit and stores the same hits in the same order; a cell whose candidates
// exceed the buffer or a searcher's free room, or with more than cellCols
// particles in one unit, goes unit by unit. The accumulate phase walks the
// hits in order, recomputes the displacement with the same expression,
// evaluates the potential and adds into the accumulators. For
// *potential.LJ on a shift grid, on the same CPUs, accumulateLJAVX2
// evaluates four hits at a time by the Go loop's IEEE operations and adds
// them one at a time in its order, so it leaves the same bits; the Go loop
// finishes the last len mod 4 hits and runs for every other pair, grid and
// CPU. A buffer holds hitCap entries: a cell, or a cell pair, is searched
// only when all its candidates fit the free space, after a flush if need
// be, and a pair larger than the whole buffer goes row by row.
//
// Who searches, who accumulates. The hosted slots are cut into chunks of
// chunkSlots consecutive slots. The caller of Compute is the pass's one
// owner: it accumulates every chunk, strictly in chunk order, into the one
// set of accumulators. The search of a chunk may be done by the owner
// itself (into its own hit buffer, flushing as it goes) or by any of the
// search workers (SetSearchWorkers), which search a chunk into a segment of
// a ring and stop at the first cell pair that does not fit it — the owner
// accumulates the segment and searches the rest of the chunk itself. A
// searcher only reads positions and writes its own segment, so whoever
// searched a chunk, the owner adds the same hits in the same order. With
// one search worker the owner claims every chunk in turn: the pass is the
// plain search-then-flush loop.
//
// Determinism contract: one owner, one order. Hosted cells are visited in
// ascending cell index order, each cell's stencil preserves the
// Neighbors26 order, and hits are accumulated in that same order, so every
// accumulator sees the additions a single fused loop would make, in its
// order, and the accumulators are added to the caller's forces particle by
// particle in part order: for a given hosted set and particle assignment
// the floating-point summation order — and therefore every bit of the
// result — is fixed, and the census (pairs, Evaluated) is integer
// arithmetic on the cell populations. That order is exactly the historical
// map-based kernel's, so the results are bit-identical to it. Search
// workers move no bit: the worker count is not part of a run's identity
// but a runtime fact the engines derive from GOMAXPROCS, and the results
// are bit-identical at every count.
type CellLists struct {
	g space.Grid

	// Hosted topology, rebuilt by SetHosted only. The per-slot int32 arrays
	// (stStart, count, start) are windows of slotBlock, so a rebuild sizes
	// them with one allocation at most.
	cells      []int     // hosted cell ids, ascending
	slotOf     []int32   // per grid cell: hosted slot s >= 0, ghost -2-gs, else -1
	stencil    []int32   // >= 0: hosted slot (higher cell id); < 0: -1-ghostSlot
	stCode     []uint8   // per stencil entry: index of its round term in shift, or countOnly
	stStart    []int32   // CSR offsets into stencil, len(cells)+1
	ghostCells []int     // unhosted neighbor cell ids, ascending
	slotBlock  []int32   // backing store of the per-slot arrays
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

	// State of the force pass.
	hits      *[hitCap]uint64 // the owner's search output, flushed whenever it fills
	pfrc      []vec.V         // force accumulators in part order, sized by Bin
	gfrc      []vec.V         // ghost force accumulators in ghostPos order, sized by SealGhosts
	feed      feed            // the pass's chunks and, with search workers, its ring
	evaluated int64           // the last Compute's pairs less its count-only candidates

	// Search helpers, started lazily when workers > 1: workers-1 goroutines
	// that search chunks ahead of the owner.
	workers int            // search workers: the helpers plus the owner
	pair    potential.Pair // current Compute target
	rc2     float64        // its squared cut-off

	running bool
	startCh []chan struct{}
	doneCh  chan struct{}
	pool    sync.WaitGroup // the pool's goroutines, until they exit
	quit    atomic.Bool    // set by Close: helpers stop claiming

	// Where a searcher with nothing to claim sleeps: the owner waiting for
	// a helper's chunk, a helper waiting for a ring segment. moved is
	// broadcast, under mu, whenever a segment is filled, the ring head moves
	// or Close begins, but only while parked says someone sleeps.
	mu     sync.Mutex
	moved  sync.Cond
	parked atomic.Int32
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

// NewCellLists returns scratch state for grids of g's size with one search
// worker. Call Close when done, to stop the search helpers the first
// Compute starts when SetSearchWorkers raised the worker count.
//
// Deprecated parameter: shards is what is left of the retired intra-rank
// shards. It stays only because bench/ still passes 1, and a value above 1
// panics. The next change allowed to edit bench/ — the measurement change
// ROADMAP lists first — deletes it.
func NewCellLists(g space.Grid, shards int) *CellLists {
	if shards > 1 {
		panic(fmt.Sprintf("kernel: %d shards asked for; intra-rank shards were retired, pass 1", shards))
	}
	cl := &CellLists{g: g, workers: 1, hits: new([hitCap]uint64)}
	cl.moved.L = &cl.mu
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
	return cl
}

// SetSearchWorkers sets how many goroutines search for pairs in each force
// pass (values < 1 mean 1): the owner and n-1 helpers that search chunks
// ahead of it. The count moves no bit of any result, only the wall time; a
// change takes effect at the next Compute, which starts the helpers afresh.
func (cl *CellLists) SetSearchWorkers(n int) {
	n = max(n, 1)
	if n != cl.workers {
		cl.Close()
		cl.workers = n
	}
}

// SetHosted rebuilds the hosted topology: the ascending hosted cell list,
// the per-cell neighbor stencils and the ghost slot assignment. Call it only when the hosted set changes (initialization or a
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
	if need := 3*n + 2; cap(cl.slotBlock) < need {
		cl.slotBlock = make([]int32, need)
	}
	block := cl.slotBlock[:cap(cl.slotBlock)]
	clear(block)
	carve := func(k int) []int32 {
		w := block[:k:k]
		block = block[k:]
		return w
	}
	cl.stStart, cl.start, cl.count = carve(n+1), carve(n+1), carve(n)

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
	cl.pfrc = slices.Grow(cl.pfrc[:0], n)[:n]
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
	cl.gfrc = slices.Grow(cl.gfrc[:0], n)[:n]
}

// GhostForces returns what the last Compute put on the imported particles of
// the given ghost cell, in staging order, for the cell's host to add. The
// window aliases the kernel's arena and is valid until the next Compute.
func (cl *CellLists) GhostForces(cell int) []vec.V {
	gs := -2 - cl.slotOf[cell]
	lo, hi := cl.ghostStart[gs], cl.ghostStart[gs+1]
	return cl.gfrc[lo:hi:hi]
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
// The caller owns the pass: it accumulates into buffers held in part order
// (next to the positions the inner loops read) and in ghost-arena order,
// then adds the part-order buffer into s.Frc particle by particle. The
// search helpers only search; every helper is idle again when Compute
// returns.
func (cl *CellLists) Compute(pair potential.Pair, s *particle.Set) (potE, virial float64, pairs int64) {
	cl.begin(pair)
	if cl.workers > 1 {
		cl.ensurePool()
		for _, ch := range cl.startCh {
			ch <- struct{}{}
		}
	}
	potE, virial, pairs = cl.force(s.Frc)
	if cl.workers > 1 {
		for range cl.startCh {
			<-cl.doneCh
		}
	}
	cl.pair = nil
	return potE, virial, pairs
}

// begin sets up a force pass: its target and its chunk queue.
func (cl *CellLists) begin(pair potential.Pair) {
	rc := pair.Cutoff()
	cl.pair, cl.rc2 = pair, rc*rc
	cl.feed.reset(len(cl.cells))
}

// A hit is one pair inside the cut-off, packed by the search phase for the
// accumulate phase: the part-order index of a, the code of the stencil
// entry's round term, and the index of the neighbour b — into ppos, or into
// ghostPos when hitGhost is set.
const (
	hitCap       = 4096 // entries per buffer: 32 KiB, L1-resident
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
// searchShiftAVX2 (search_amd64.s) implements the same contract four
// candidates at a time; where the CPU lacks AVX2, and on every other
// GOARCH, this leaf runs, and it is the vector leaf's test oracle. Both
// round r2 the same way: (p - q) - t per axis, (dx*dx + dy*dy) + dz*dz, no
// fused multiply-add (gc on amd64 fuses only an explicit math.FMA).
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

// searchLeaf is the search phase's leaf on a shift grid: searchShift, or the
// vector leaf the CPU runs, set once at package init (searchShiftAVX2 where
// the CPU has AVX2 and the operating system saves its registers). Both make
// the same decisions and store the same hits, so the choice moves no bit.
var searchLeaf = searchShift

// Bounds of the cell leaf. It stores four entries at every step, whatever
// it keeps of them, so it needs cellSlack entries of room past its last
// candidate. It copies each unit's neighbours, transposed, into its frame,
// which holds cellCols of them: a cell with more in one unit, or more than
// cellCols+1 particles, is taken unit by unit.
const (
	cellSlack  = 3
	cellCols   = 64
	cellStride = 8 * (cellCols + 4) // bytes per coordinate array, padded for a last group of four
)

// cellUnit is one unit of a whole cell's search (pass.searchCell): the
// cell's own triangle, or one half-stencil neighbour that owns pairs here.
type cellUnit struct {
	key uint64 // the hit of row 0's first candidate: its code names the round term, its b the neighbour
	n   int32  // the neighbour's particle count: it is ppos or ghostPos[b : b+n]
	tri bool   // the cell's own pairs instead: row a against the cell mates after it, code 0
}

// wholeCells reports whether the walk hands whole cells to searchCellAVX2,
// the cell leaf: set once at package init where the CPU runs
// searchShiftAVX2. The leaf stores the hits searchShift would, called unit
// by unit — the triangle row by row, each row a against lpos[a+1:] with
// key + a*(1<<hitAShift + 1) — in the same order, so the choice moves no
// bit. It is called directly, not through a function value, so the pass
// whose units it reads stays on its searcher's stack. Where wholeCells is
// false the walk takes every cell unit by unit.
var wholeCells bool

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

// Sizes of the search pipeline. A chunk is the unit a searcher claims:
// small enough that the helpers and the owner share a pass evenly, large
// enough that claiming one costs nothing beside its search (about 30 hits a
// cell on the 50k preset, so a chunk's hits fill a quarter of a segment).
// The ring bounds how far the searchers run ahead of the owner, and so the
// memory the pipeline holds: ringLen segments of hitCap hits.
const (
	chunkSlots = 32
	ringLen    = 16
)

// feed is the chunk queue of a force pass. Chunks are claimed in ascending
// order, by the owner or by any searcher. The owner searches a chunk it
// claims itself in place; any other claim searches chunk c into ring
// segment c%ringLen, which is free once the owner has accumulated chunk
// c-ringLen, so a claim waits for c < head+ringLen.
type feed struct {
	slots  int          // hosted slots in the pass
	chunks int32        // chunks of chunkSlots consecutive slots
	next   atomic.Int32 // chunks claimed
	head   atomic.Int32 // chunks the owner has taken in
	ring   []segment    // ringLen segments; nil with one search worker
}

// segment is one chunk searched ahead of the owner: the hits, the census of
// the cell pairs searched, and where the search stopped.
type segment struct {
	done        atomic.Int32 // chunk number + 1, stored once the fields below are
	hits        [hitCap]uint64
	n           uint64
	stop        cursor // the rest of the chunk is the owner's to search
	pairs, lent int64
}

// cursor is a place in the visiting order: hosted slot i and, within that
// cell of n particles, unit u — row u of its own pairs for u < n-1, else
// stencil entry u-(n-1).
type cursor struct{ i, u int }

// reset points the feed at a pass over the given number of hosted slots.
func (f *feed) reset(slots int) {
	f.slots = slots
	f.chunks = int32((slots + chunkSlots - 1) / chunkSlots)
	f.next.Store(0)
	f.head.Store(0)
	for i := range f.ring {
		f.ring[i].done.Store(0)
	}
}

// chunk returns the slot range [lo, hi) of chunk c.
func (f *feed) chunk(c int32) (lo, hi int) {
	lo = int(c) * chunkSlots
	return lo, min(lo+chunkSlots, f.slots)
}

// claim takes the next chunk for a ring segment, or returns -1 when every
// chunk is claimed or the segment it needs is still the owner's to take in.
func (f *feed) claim() int32 {
	for {
		c := f.next.Load()
		if c >= f.chunks || c >= f.head.Load()+ringLen {
			return -1
		}
		if f.next.CompareAndSwap(c, c+1) {
			return c
		}
	}
}

// searchAhead searches chunk c into its ring segment with a pass that
// cannot flush: it stops at the first cell pair that does not fit.
func (cl *CellLists) searchAhead(c int32) {
	seg := &cl.feed.ring[c%ringLen]
	ps := pass{cl: cl, hits: &seg.hits}
	lo, hi := cl.feed.chunk(c)
	seg.stop = ps.walk(cursor{i: lo}, hi)
	seg.n, seg.pairs, seg.lent = ps.n, ps.pairs, ps.lent
	seg.done.Store(c + 1)
	cl.wake()
}

// wake rouses the sleeping searchers, if any, after a change one of them
// may wait for. It is one atomic load when nobody sleeps: the sleeper
// counts itself in parked before it tests its condition, and the waker
// changes the state before it reads parked, so one of the two sees the
// other.
func (cl *CellLists) wake() {
	if cl.parked.Load() > 0 {
		cl.mu.Lock()
		cl.moved.Broadcast()
		cl.mu.Unlock()
	}
}

// help is a search helper's share of one force pass: it claims chunks
// until none is left unclaimed. While the only chunks left wait for a ring
// segment, it sleeps until the owner frees one.
func (cl *CellLists) help() {
	f := &cl.feed
	for !cl.quit.Load() {
		if c := f.claim(); c >= 0 {
			cl.searchAhead(c)
			continue
		}
		if f.next.Load() >= f.chunks {
			return
		}
		cl.mu.Lock()
		cl.parked.Add(1)
		for cl.stalled() {
			cl.moved.Wait()
		}
		cl.parked.Add(-1)
		cl.mu.Unlock()
	}
}

// stalled reports whether a helper must wait: chunks are left unclaimed,
// but the next of them has no free ring segment, and Close has not begun.
func (cl *CellLists) stalled() bool {
	f := &cl.feed
	c := f.next.Load()
	return !cl.quit.Load() && c < f.chunks && c >= f.head.Load()+ringLen
}

// pass is one searcher's state during a force pass: the buffer it searches
// into and the census of what it searched, and for the owner (flushes set)
// the accumulators.
type pass struct {
	cl          *CellLists
	hits        *[hitCap]uint64
	n           uint64 // hits buffered
	pairs, lent int64  // candidate pairs counted; of those, left to a lower ghost's host

	units [27]cellUnit // searchCell's units: a triangle and 26 neighbours at most

	flushes  bool    // the owner: a full buffer is accumulated, not a stop
	frc      []vec.V // force accumulators in part order
	gfrc     []vec.V // ghost force accumulators in ghostPos order
	pot, vir float64
}

// search runs the search phase over the cell pair lpos x q, whose hits are
// named key + a<<hitAShift + b, and reports whether it did. A pair that does
// not fit the buffer's free space stops a pass that cannot flush; the owner
// flushes and searches it, and a crowded one, larger than the whole buffer,
// row by row, and a row longer than the buffer in pieces.
func (ps *pass) search(key uint64, lpos, q []vec.V) bool {
	cl := ps.cl
	switch need := len(lpos) * len(q); {
	case ps.n+uint64(need) <= hitCap:
		if cl.useShift {
			// Fewer than four candidates — most often a short row of a
			// cell's own pairs — cost the vector leaf more to set up than
			// the Go leaf takes to test; both store the same hits.
			leaf := searchLeaf
			if need < 4 {
				leaf = searchShift
			}
			ps.n = leaf(ps.hits, ps.n, key, lpos, q, cl.shift[key>>hitCodeShift%32], cl.rc2)
		} else {
			ps.n = searchMinImage(ps.hits, ps.n, key, lpos, q, cl.g.Box.L, cl.rc2)
		}
	case !ps.flushes:
		return false
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
	return true
}

// searchCell searches the whole of a hosted cell — its own pairs and every
// half-stencil neighbour that owns pairs here — in one call of the cell
// leaf, counts its census and reports true. When a unit holds more than
// cellCols particles, or the cell's candidates do not fit the buffer's
// free room and the pass cannot flush, or exceed the whole buffer, it
// leaves the cell untouched and reports false, for walk to take unit by
// unit. The owner flushes first when the cell fits only an empty buffer.
func (ps *pass) searchCell(slot int) bool {
	cl := ps.cl
	// The loop reads these through locals: its stores to ps.units would
	// make the compiler load them from cl again at every entry.
	start, ppos := cl.start, cl.ppos
	ghostStart, ghostPos := cl.ghostStart, cl.ghostPos
	lo, hi := start[slot], start[slot+1]
	lpos := ppos[lo:hi]
	nl := int64(len(lpos))
	base := uint64(lo) << hitAShift
	nu := 0
	if nl > 1 {
		ps.units[0] = cellUnit{key: base + uint64(lo) + 1, tri: true}
		nu = 1
	}
	pairs, lent, cols := nl*(nl-1)/2, int64(0), nl-1
	st := cl.stencil[cl.stStart[slot]:cl.stStart[slot+1]]
	codes := cl.stCode[cl.stStart[slot]:cl.stStart[slot+1]]
	for k, e := range st {
		code := codes[k]
		key := base + uint64(code)<<hitCodeShift
		var q []vec.V
		if e >= 0 {
			q = ppos[start[e]:start[e+1]]
			key += uint64(start[e])
		} else {
			q = ghostPos[ghostStart[-1-e]:ghostStart[-e]]
			key += hitGhost + uint64(ghostStart[-1-e])
		}
		cand := nl * int64(len(q))
		pairs += cand
		if code == countOnly {
			lent += cand
		} else if cand > 0 {
			ps.units[nu] = cellUnit{key: key, n: int32(len(q))}
			nu++
			cols = max(cols, int64(len(q)))
		}
	}
	if cols > cellCols {
		return false
	}
	if nu > 0 {
		if need := uint64(pairs-lent) + cellSlack; ps.n+need > hitCap {
			if !ps.flushes || need > hitCap {
				return false
			}
			ps.flush()
		}
		ps.n = searchCellAVX2(ps.hits, ps.n, lpos, ppos, ghostPos, ps.units[:nu], &cl.shift, cl.rc2)
	}
	ps.pairs += pairs
	ps.lent += lent
	return true
}

// walk runs the search phase over the hosted slots from cursor from up to
// slot end, in visiting order — slot, then the cell's own pairs, then its
// stencil entries in Neighbors26 order, then a, then b — counting the
// census of every unit it gets through. A cell begun afresh goes whole to
// searchCell, where there is a cell leaf and a shift grid; a cell that
// does not fit there, or one a searcher stopped in, is taken unit by unit.
// It returns where it stopped: at end, unless a pass that cannot flush
// found a unit that does not fit.
func (ps *pass) walk(from cursor, end int) cursor {
	cl := ps.cl
	whole := wholeCells && cl.useShift
	for slot := from.i; slot < end; slot++ {
		lo, hi := cl.start[slot], cl.start[slot+1]
		if lo == hi {
			continue // empty cell owns no pairs
		}
		u := 0
		if slot == from.i {
			u = from.u
		}
		if whole && u == 0 && ps.searchCell(slot) {
			continue
		}
		lpos := cl.ppos[lo:hi]
		nl := len(lpos)
		// Intra-cell pairs, each row a against the cell mates after it: the
		// round term is code 0, exactly +0.
		for a := u; a < nl-1; a++ {
			row := uint64(lo) + uint64(a)
			if !ps.search(row<<hitAShift+row+1, lpos[a:a+1], lpos[a+1:]) {
				return cursor{slot, a}
			}
			ps.pairs += int64(nl - 1 - a)
		}
		// Half-stencil neighbors, in Neighbors26 order: the higher-id cells,
		// hosted or ghost (pair owned here, force scattered to both sides),
		// and the lower-id ghosts, counted and left to their host.
		st := cl.stencil[cl.stStart[slot]:cl.stStart[slot+1]]
		codes := cl.stCode[cl.stStart[slot]:cl.stStart[slot+1]]
		for k := max(u-(nl-1), 0); k < len(st); k++ {
			e := st[k]
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
			cand := int64(nl * len(q))
			if codes[k] == countOnly {
				ps.pairs += cand
				ps.lent += cand
				continue
			}
			if !ps.search(key, lpos, q) {
				return cursor{slot, nl - 1 + k}
			}
			ps.pairs += cand
		}
	}
	return cursor{end, 0}
}

// flush accumulates the owner's buffered hits and empties the buffer.
func (ps *pass) flush() {
	ps.accumulate(ps.hits[:ps.n])
	ps.n = 0
}

// ljCoef is the Lennard-Jones evaluation's coefficients, as
// potential.LJ.Coefficients returns them.
type ljCoef struct{ sig2, eps4, eps24, shiftE float64 }

// accumulateLJ is the accumulate phase's vector leaf for *potential.LJ on a
// shift grid, set once at package init (accumulateLJAVX2 where the CPU runs
// searchShiftAVX2), else nil. It accumulates a prefix of the hits, a
// multiple of four long, exactly as the Go loop would, and returns its
// length; the Go loop finishes the rest, so the choice moves no bit.
var accumulateLJ func(hits []uint64, ppos, ghostPos, frc, gfrc []vec.V, shift *[32]vec.V, c ljCoef, pot, vir float64) (k int, potOut, virOut float64)

// accumulate is the accumulate phase: it walks hits in the order the search
// found them, recomputes each displacement with the search's own
// expression, evaluates the potential and adds into the accumulators. For
// Lennard-Jones on a shift grid the vector leaf, where there is one, takes
// the hits four at a time and leaves this loop the last len(hits) mod 4.
// The loop devirtualizes the Lennard-Jones evaluation via the concrete-type
// assertion so the compiler inlines it; any other Pair goes through the
// interface.
func (ps *pass) accumulate(hits []uint64) {
	cl := ps.cl
	pair := cl.pair
	lj, ljOK := pair.(*potential.LJ)
	if ljOK && cl.useShift && accumulateLJ != nil {
		var c ljCoef
		c.sig2, c.eps4, c.eps24, c.shiftE = lj.Coefficients()
		var k int
		k, ps.pot, ps.vir = accumulateLJ(hits, cl.ppos, cl.ghostPos, ps.frc, ps.gfrc, &cl.shift, c, ps.pot, ps.vir)
		hits = hits[k:]
	}
	ppos, frc := cl.ppos, ps.frc
	pot, vir := ps.pot, ps.vir
	for _, h := range hits {
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
	ps.pot, ps.vir = pot, vir
}

// force is the owner's force pass: chunk by chunk, in order, it claims the
// chunk and searches it in place, flushing whenever its buffer fills — or,
// when a searcher claimed it first, waits for that search, accumulates its
// own buffered hits and then the segment's, and searches what the segment
// left of the chunk. Every hit is thereby accumulated in visiting order.
// The part-order accumulators are then added into dst.
func (cl *CellLists) force(dst []vec.V) (potE, virial float64, pairs int64) {
	clear(cl.pfrc)
	clear(cl.gfrc)
	f := &cl.feed
	ps := pass{cl: cl, hits: cl.hits, flushes: true, frc: cl.pfrc, gfrc: cl.gfrc}
	for c := int32(0); c < f.chunks; c++ {
		lo, hi := f.chunk(c)
		from := cursor{i: lo}
		if !f.next.CompareAndSwap(c, c+1) {
			seg := cl.await(c)
			ps.flush()
			ps.accumulate(seg.hits[:seg.n])
			ps.pairs += seg.pairs
			ps.lent += seg.lent
			from = seg.stop
		}
		f.head.Store(c + 1) // chunk c's segment, if it had one, is free
		cl.wake()
		ps.walk(from, hi)
	}
	ps.flush()
	// An addition, not a copy: dst is zeroed, and +0 + -0 is +0, so a
	// -0 component of a sum leaves +0 in dst.
	for k, i := range cl.part {
		dst[i] = dst[i].Add(cl.pfrc[k])
	}
	cl.evaluated = ps.pairs - ps.lent
	return ps.pot, ps.vir, ps.pairs
}

// await returns the segment of chunk c, which a searcher claimed, once its
// search is done. Meanwhile the owner searches chunks ahead itself; with
// none left to claim it sleeps until a segment is filled.
func (cl *CellLists) await(c int32) *segment {
	f := &cl.feed
	seg := &f.ring[c%ringLen]
	for seg.done.Load() != c+1 {
		if a := f.claim(); a >= 0 {
			cl.searchAhead(a)
			continue
		}
		cl.mu.Lock()
		cl.parked.Add(1)
		for seg.done.Load() != c+1 {
			cl.moved.Wait()
		}
		cl.parked.Add(-1)
		cl.mu.Unlock()
	}
	return seg
}

// ensurePool starts the workers-1 search helpers and the ring they search
// into. The helpers live until Close and are fed over per-goroutine
// channels, so a Compute call performs no allocation.
func (cl *CellLists) ensurePool() {
	if cl.running {
		return
	}
	cl.feed.ring = make([]segment, ringLen)
	n := cl.workers - 1
	cl.quit.Store(false)
	cl.startCh = make([]chan struct{}, n)
	done := make(chan struct{}, n) // one token per goroutine and round: a send never blocks
	cl.doneCh = done
	cl.pool.Add(n)
	for i := range cl.startCh {
		ch := make(chan struct{})
		cl.startCh[i] = ch
		go func() {
			defer cl.pool.Done()
			for range ch {
				cl.help()
				done <- struct{}{}
			}
		}()
	}
	cl.running = true
}

// Close stops the search helpers, returns once every one of them has
// exited — also when a panic left a force pass unfinished, its helpers
// waiting on segments no owner will free — and lets go of the search
// ring. It is a no-op if the pool was never started; the CellLists must
// not be used after Close.
func (cl *CellLists) Close() {
	if !cl.running {
		return
	}
	cl.quit.Store(true)
	cl.wake()
	for _, ch := range cl.startCh {
		close(ch)
	}
	cl.pool.Wait()
	cl.startCh, cl.doneCh = nil, nil
	cl.feed.ring = nil
	cl.running = false
}
