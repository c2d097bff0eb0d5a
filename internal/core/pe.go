package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/conc"
	"permcell/internal/dlb"
	"permcell/internal/integrator"
	"permcell/internal/kernel"
	"permcell/internal/metrics"
	"permcell/internal/particle"
	"permcell/internal/supervise"
	"permcell/internal/topology"
	"permcell/internal/vec"
	"permcell/internal/workload"
)

// Message tags. Per-(source, tag) FIFO ordering in comm makes fixed tags
// safe: neighbor exchanges are naturally step-synchronized because every
// phase receives exactly one message per neighbor.
const (
	tagDecision = iota + 1
	tagTransfer
	tagMigrate
	tagHalo
	tagForce
)

// Stepwise command sentinels (positive values are batch sizes).
const (
	cmdFinish   = -1
	cmdSnapshot = -2
)

// cellBlock is one cell's particle positions in a halo reply, or the forces
// on them in the force return that answers it.
type cellBlock struct {
	Cell int
	Pos  []vec.V
}

// forceReturn closes Newton's third law across a rank boundary: the forces
// the sender's pairs put on the cells it imported from the receiver, laid
// out as the halo reply listed them, with the sender's load riding along.
type forceReturn struct {
	Load  float64
	Cells []cellBlock
}

// peRecord is the per-step census a PE contributes to the global stats.
type peRecord struct {
	Work       float64
	Wall       float64
	Step       float64 // whole-step wall seconds
	Cells      int
	Empty      int
	Moved      int
	MovedBytes int64
	Ghosts     int // imported halo cells
	PotE       float64
	KinE       float64
	N          int
	Phases     metrics.Sample // zero unless cfg.Metrics
}

// pe is the state of one processing element.
type pe struct {
	c      *comm.Comm
	cfg    *Config
	layout dlb.Layout      // zero under cfg.Decomp
	own    ownership       // which rank hosts which cell
	lg     *dlb.Ledger     // the ledger behind own; nil under cfg.Decomp
	dec    balance.Decider // nil when no balancer is configured
	nbs    []int           // unique neighbor ranks, ascending
	off8   [8]int32        // topology.Offsets8 slot -> position in nbs (balancer runs only)

	set   particle.Set
	cl    *kernel.CellLists // flat cell lists + force kernel scratch
	plan  *plan             // halo and migration lists of the current ownership epoch
	dirty bool              // ownership changed since cl and plan were built
	cells []int             // scratch for the hosted cell list

	// Balancer epoch state, indexed by column and by neighbor position:
	// nothing here is looked up by rank. All but nbLoad, which every force
	// return refreshes, exists on balancer runs only.
	colPop      []int             // per column: hosted particle count, 0 elsewhere
	colLoad     func(int) float64 // colPop as the Observation's column census
	nbLoad      []float64         // per neighbor: its load at its last force pass
	nbDecisions [][]dlb.Decision

	lastWork   float64 // candidate pairs of last force computation (the census, not what was evaluated)
	lastWall   float64 // wall seconds of last force computation
	potE       float64 // local share of potential energy
	moved      int     // columns moved by my decisions this step
	movedBytes int64   // particle payload bytes those moves carried
	initN      int64   // global particle count at step 0 (Verify or Guard)
	step0      int     // absolute step the run starts at (checkpoint restore)

	// Energy-drift guard reference: the total energy of the first census
	// after (re)start. Per-incarnation on purpose — a restored engine
	// re-anchors, so the ceiling bounds drift since the checkpoint, not
	// since step 0 of a run that may long predate it.
	guardE0    float64
	guardE0Set bool

	tm *metrics.Timer // per-phase timing; nil unless cfg.Metrics
}

// send delivers a protocol message over the possibly-faulty substrate,
// attributing it to phase ph of the metrics layer.
func (p *pe) send(ph metrics.Phase, dst, tag int, data any, size int64) {
	p.c.SendSized(dst, tag, data, size)
	p.tm.Count(ph, 1, size)
}

// newPE builds one PE. Ownership is the fixed cfg.Decomp when set, else
// this rank's column ledger — fresh, or rebuilt from hosts, the pre-validated
// global column→host map of a restore. Without a restore the particles are
// the initial system's in the cells this PE hosts, in ascending index order;
// cells holds each particle's cell, looked up once for all ranks by the
// engine. With a restore in cfg (cells is then nil) they come from the PE's
// checkpoint frame in their recorded order — array order drives force
// summation order, so preserving it is what makes the resumed trajectory
// bit-identical.
func newPE(c *comm.Comm, cfg *Config, layout dlb.Layout, sys workload.System, cells []int32, hosts map[int]int, searchWorkers int) *pe {
	p := &pe{
		c:      c,
		cfg:    cfg,
		layout: layout,
		cl:     kernel.NewCellLists(cfg.Grid, cfg.Shards),
		dirty:  true,
	}
	p.cl.SetSearchWorkers(searchWorkers)
	if cfg.Metrics {
		p.tm = &metrics.Timer{}
	}
	if cfg.Decomp != nil {
		p.own = fixedOwner{d: cfg.Decomp, rank: c.Rank()}
	} else {
		lg, err := dlb.RestoreLedger(layout, c.Rank(), hosts)
		if err != nil {
			// Pre-validated by restoreHosts; reaching this is an engine bug.
			panic(fmt.Sprintf("core: rank %d: %v", c.Rank(), err))
		}
		p.lg = lg
		p.own = &ledgerOwner{g: cfg.Grid, lg: lg}
	}
	p.nbs = p.own.neighbors()
	p.plan = newPlan(cfg.Grid.NumCells(), cfg.P, p.nbs)
	p.nbLoad = make([]float64, len(p.nbs))
	if cfg.Balancer != nil {
		p.dec = cfg.Balancer.NewDecider(layout, c.Rank())
		p.colPop = make([]int, layout.NumColumns())
		p.colLoad = func(col int) float64 { return float64(p.colPop[col]) }
		p.nbDecisions = make([][]dlb.Decision, len(p.nbs))
		pi, pj := layout.T.Coords(c.Rank())
		for k, off := range topology.Offsets8 {
			p.off8[k] = p.plan.nbPos[layout.T.Rank(pi+off.DI, pj+off.DJ)]
		}
	}

	if cfg.Restore != nil {
		p.step0 = cfg.Restore.Step
		fr := &cfg.Restore.Frames[c.Rank()]
		p.set.Grow(len(fr.ID))
		for i := range fr.ID {
			p.set.Add(fr.ID[i], fr.Pos[i], fr.Vel[i])
		}
		return p
	}
	// Initial distribution: each PE takes the particles in the cells it
	// hosts. The shared input system and cell table are only read, never
	// written. The set is sized for an even share, which is what a lattice
	// start deals.
	p.set.Grow(sys.Set.Len()/cfg.P + 1)
	hosted := make([]bool, cfg.Grid.NumCells())
	for _, cell := range p.own.hostedCells(nil) {
		hosted[cell] = true
	}
	for i, cell := range cells {
		if hosted[cell] {
			p.set.Add(sys.Set.ID[i], sys.Set.Pos[i], sys.Set.Vel[i])
		}
	}
	return p
}

// init computes the step-0 state: bin, pull the halo, evaluate forces and
// return the neighbors' share so the first half kick has them, and (under
// Verify) record the global particle count for conservation checks.
func (p *pe) init() {
	p.refreshTopology()
	p.rebuild()
	p.haloExchange()
	p.computeForces()
	p.returnForces()
	if p.cfg.Verify || p.cfg.Guard != nil {
		p.initN = p.c.AllreduceInt64(int64(p.set.Len()), comm.SumI)
	}
	// Drain the step-0 accumulation so the first step's phase sample covers
	// only work inside its own wall-clock window.
	p.tm.TakeSample()
}

// oneStep advances this PE by time step number step (1-based, monotonic
// across stepwise batches). Every section between t0 and the stats census
// is attributed to one metrics phase, so the phase breakdown sums to the
// whole-step wall time; the census gather itself and the Verify
// collectives run after the wall snapshot and stay outside the taxonomy.
func (p *pe) oneStep(step int) {
	if s := p.cfg.Sabotage; s != nil && s.Kind == supervise.SabotagePanic && s.TryFire(step, p.c.Rank()) {
		panic(fmt.Sprintf("core: rank %d: injected sabotage panic at step %d", p.c.Rank(), step))
	}
	t0 := time.Now()
	p.moved, p.movedBytes = 0, 0
	if p.dec != nil {
		p.balanceStep()
	}
	ti := p.tm.Start()
	integrator.HalfKick(&p.set, p.cfg.Dt)
	integrator.Drift(&p.set, p.cfg.Dt, p.cfg.Grid.Box)
	p.tm.Stop(metrics.PhaseIntegrate, ti)
	tm := p.tm.Start()
	p.refreshTopology()
	p.migrate()
	p.rebuild()
	p.tm.Stop(metrics.PhaseMigrate, tm)
	th := p.tm.Start()
	p.haloExchange()
	p.tm.Stop(metrics.PhaseHalo, th)
	p.computeForces()
	th = p.tm.Start()
	p.returnForces()
	p.tm.Stop(metrics.PhaseHalo, th)
	ti = p.tm.Start()
	integrator.HalfKick(&p.set, p.cfg.Dt)
	p.tm.Stop(metrics.PhaseIntegrate, ti)
	if p.cfg.RescaleEvery > 0 && step%p.cfg.RescaleEvery == 0 {
		tc := p.tm.Start()
		p.rescale()
		p.tm.Stop(metrics.PhaseCollective, tc)
	}
	// NaN sabotage corrupts a velocity right before the census so the
	// finite guard (not a downstream binning panic) is what catches it.
	if s := p.cfg.Sabotage; s != nil && s.Kind == supervise.SabotageNaN &&
		s.TryFire(step, p.c.Rank()) && p.set.Len() > 0 {
		p.set.Vel[0].X = math.NaN()
	}
	p.collectStats(step, time.Since(t0).Seconds())
	if p.cfg.Verify {
		p.verifyStep(step)
	}
}

// runStepwise executes the simulation in driver-commanded batches: each
// value received on cmd is a batch size to advance by (cmdFinish ends the
// run, cmdSnapshot serializes this PE's shard into snap); after each
// command the PE counts itself off left, and the last local rank to finish
// reports on ack (one wake-up of the driver per command) before all go
// idle. All ranks receive the same command sequence, so the collectives
// inside a batch stay aligned. Step numbering continues from the restore
// point (step0 = 0 on a fresh start).
func (p *pe) runStepwise(cmd <-chan int, ack chan<- struct{}, left *atomic.Int32, res *Result, snap []checkpoint.Frame) {
	defer p.cl.Close()
	p.init()
	step := p.step0
	for n := range cmd {
		if n == cmdSnapshot {
			p.snapshot(snap)
		} else if n < 0 {
			break
		} else {
			for i := 0; i < n; i++ {
				step++
				p.oneStep(step)
			}
			// Deliver anything the fault layer held back before going idle:
			// a message held across the ack would strand a peer still
			// receiving inside the batch, deadlocking the world (peers ack
			// only once their own protocol drains).
			p.c.FlushFaults()
		}
		if left.Add(-1) == 0 {
			ack <- struct{}{}
		}
	}
	p.gatherFinal(res)
}

// snapshot serializes this PE's shard — particle arrays in live order plus
// the hosted-column set — into its slot of the shared frame slice. The ack
// that follows is the happens-before edge to the driver's read. A PE with
// communication still pending at a batch boundary is an engine bug: the
// per-step protocols all drain what they send.
func (p *pe) snapshot(snap []checkpoint.Frame) {
	if err := p.c.Quiesced(); err != nil {
		panic(fmt.Sprintf("core: rank %d snapshot: %v", p.c.Rank(), err))
	}
	var cols []int // ownership under cfg.Decomp is static: nothing to record
	if p.lg != nil {
		cols = p.lg.HostedColumns()
	}
	checkpoint.CaptureFrame(&snap[p.c.Rank()], p.c.Rank(), &p.set, cols)
}

// verifyStep asserts the DESIGN.md section 6 protocol invariants at the end
// of a step: no more columns moved by this PE than the balancer's declared
// per-epoch bound, the per-ledger permanent-cell invariants, the global
// single-host partition over all columns, and particle-count conservation.
// Violations panic, which chaos runs surface as failures instead of
// silently corrupt physics.
func (p *pe) verifyStep(step int) {
	maxMoves := 0
	if p.cfg.Balancer != nil {
		maxMoves = p.cfg.Balancer.MaxMoves()
	}
	if p.moved > maxMoves {
		panic(fmt.Sprintf("core: rank %d step %d moved %d columns (max %d)", p.c.Rank(), step, p.moved, maxMoves))
	}
	if err := p.lg.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("core: rank %d step %d: %v", p.c.Rank(), step, err))
	}
	hosts := p.c.Gather(p.lg.HostedColumns())
	n := p.c.AllreduceInt64(int64(p.set.Len()), comm.SumI)
	if n != p.initN {
		panic(fmt.Sprintf("core: step %d: particle count %d, want %d (conservation broken)", step, n, p.initN))
	}
	if p.c.Rank() != 0 {
		return
	}
	count := make(map[int]int, p.layout.NumColumns())
	for rank, a := range hosts {
		for _, col := range a.([]int) {
			if count[col]++; count[col] > 1 {
				panic(fmt.Sprintf("core: step %d: column %d hosted by multiple PEs (second: rank %d)", step, col, rank))
			}
		}
	}
	if len(count) != p.layout.NumColumns() {
		panic(fmt.Sprintf("core: step %d: only %d of %d columns hosted", step, len(count), p.layout.NumColumns()))
	}
}

// loadCensus is the per-rank payload of a global-scope balancer epoch: the
// PE's load plus its hosted-column occupancy census.
type loadCensus struct {
	Load float64
	Cols []int
	Pop  []int
}

// observe assembles this epoch's balance.Observation. Neighbor-scope
// balancers read the paper's protocol step 1 — the neighbors' last-step
// loads — off the force returns that closed that step (returnForces), so the
// epoch costs no message of its own; global-scope balancers use one
// allgather carrying every PE's load and column census.
func (p *pe) observe() balance.Observation {
	obs := balance.Observation{Self: p.lastWork}

	if p.cfg.Balancer.Scope() == balance.ScopeGlobal {
		mine := loadCensus{Load: p.lastWork, Cols: p.lg.HostedColumns()}
		mine.Pop = make([]int, len(mine.Cols))
		for i, col := range mine.Cols {
			mine.Pop[i] = p.colPop[col]
		}
		all := p.c.Allgather(mine)
		peLoad := make([]float64, len(all))
		colLoad := make([]float64, p.layout.NumColumns())
		for r, a := range all {
			cen := a.(loadCensus)
			peLoad[r] = cen.Load
			for i, col := range cen.Cols {
				colLoad[col] = float64(cen.Pop[i])
			}
		}
		obs.PELoad = peLoad
		for k, pos := range p.off8 {
			obs.Neighbor[k] = peLoad[p.nbs[pos]]
		}
		obs.ColLoad = func(col int) float64 { return colLoad[col] }
		return obs
	}

	for k, pos := range p.off8 {
		obs.Neighbor[k] = p.nbLoad[pos]
	}
	obs.ColLoad = p.colLoad
	return obs
}

// balanceStep runs one balancer epoch: observe loads, let the strategy
// decide, broadcast and apply the decisions, then execute the particle
// payload transfers. The wire protocol is the permanent-cell one
// generalized to a decision *list* per PE (still exactly one decision
// message per neighbor per epoch), so every strategy inherits the
// 8-neighbor exchange and its invariants.
func (p *pe) balanceStep() {
	td := p.tm.Start()
	obs := p.observe()

	// Decide. The strategy may emit several moves, bounded by MaxMoves;
	// the ledger validates each against the permanent-cell contract when
	// applied, so an out-of-contract balancer is a protocol panic, not
	// silent corruption.
	ds := p.dec.Decide(p.lg, obs)
	if maxMoves := p.cfg.Balancer.MaxMoves(); len(ds) > maxMoves {
		panic(fmt.Sprintf("core: rank %d: balancer %q emitted %d decisions (max %d)",
			p.c.Rank(), p.cfg.Balancer.Name(), len(ds), maxMoves))
	}

	// Broadcast my decisions; apply everyone's.
	for _, nb := range p.nbs {
		p.send(metrics.PhaseDLBDecide, nb, tagDecision, ds, 0)
	}
	for _, d := range ds {
		if err := p.lg.Apply(p.c.Rank(), d); err != nil {
			panic(fmt.Sprintf("core: rank %d self-apply: %v", p.c.Rank(), err))
		}
	}
	// Any applied decision, a neighbor's included, starts a new ownership
	// epoch: a column passing between two neighbors leaves this PE's cells
	// alone and still changes who it trades them with.
	p.dirty = p.dirty || len(ds) > 0
	for k, nb := range p.nbs {
		nds := p.c.Recv(nb, tagDecision).([]dlb.Decision)
		p.nbDecisions[k] = nds
		p.dirty = p.dirty || len(nds) > 0
		for _, nd := range nds {
			if err := p.lg.Apply(nb, nd); err != nil {
				panic(fmt.Sprintf("core: rank %d applying decision of %d: %v", p.c.Rank(), nb, err))
			}
		}
	}

	p.tm.Stop(metrics.PhaseDLBDecide, td)

	// Payload transfers: my moved columns' particles leave; columns moved
	// to me arrive. Unlike migration (which runs before the forces it
	// affects are computed), the balancer move happens before the first
	// half kick — the kick that consumes the forces evaluated at the end of
	// the previous step — so the payload must carry each particle's current
	// force. Dropping it would kick transferred particles with zero force,
	// which injects net momentum into the system on every move step (the
	// momentum-conservation invariant test catches exactly this).
	tt := p.tm.Start()
	for _, d := range ds {
		p.moved++
		out := p.extractColumn(d.Col)
		size := int64(len(out.Ps)) * 72
		p.movedBytes += size
		p.send(metrics.PhaseDLBTransfer, d.Dest, tagTransfer, out, size)
	}
	// Per-(source, tag) FIFO ordering matches the sender's loop order, so
	// multiple inbound transfers from one neighbor arrive in its decision
	// order.
	for k, nb := range p.nbs {
		for _, nd := range p.nbDecisions[k] {
			if nd.Dest != p.c.Rank() {
				continue
			}
			in := p.c.Recv(nb, tagTransfer).(colTransfer)
			for k, one := range in.Ps {
				idx := p.set.AddOne(one)
				p.set.Frc[idx] = in.Frc[k]
			}
		}
	}
	p.tm.Stop(metrics.PhaseDLBTransfer, tt)
}

// colTransfer is the DLB column-move payload: the particles plus the
// forces from the last evaluation, which the first half kick of the move
// step still needs (particle.One deliberately omits forces — every other
// transfer happens at points where they are about to be recomputed).
// On the TCP transport it crosses process boundaries through the codec in
// wire.go.
type colTransfer struct {
	Ps  []particle.One
	Frc []vec.V
}

// extractColumn removes and returns (sorted by ID) the particles currently
// in column col, together with their last-step forces.
func (p *pe) extractColumn(col int) colTransfer {
	g := p.cfg.Grid
	loc := g.Locator()
	var out colTransfer
	for i := 0; i < p.set.Len(); {
		if g.ColumnOf(loc.Cell(p.set.Pos[i])) == col {
			out.Ps = append(out.Ps, p.set.Extract(i))
			out.Frc = append(out.Frc, p.set.Frc[i])
			p.set.RemoveSwap(i)
			continue
		}
		i++
	}
	sort.Sort(byID(out))
	return out
}

// byID sorts a colTransfer's parallel slices by particle ID.
type byID colTransfer

func (s byID) Len() int           { return len(s.Ps) }
func (s byID) Less(a, b int) bool { return s.Ps[a].ID < s.Ps[b].ID }
func (s byID) Swap(a, b int) {
	s.Ps[a], s.Ps[b] = s.Ps[b], s.Ps[a]
	s.Frc[a], s.Frc[b] = s.Frc[b], s.Frc[a]
}

// refreshTopology rebuilds what depends on the ownership map alone — the
// kernel's hosted topology and the halo / migration plan derived from it —
// when a balancer epoch changed the map (or nothing was built yet). It runs
// before migrate, which already routes by the new owners.
func (p *pe) refreshTopology() {
	if !p.dirty {
		return
	}
	p.cells = p.own.hostedCells(p.cells[:0])
	p.cl.SetHosted(p.cells)
	p.plan.rebuild(p.c.Rank(), p.own, p.cl)
	p.dirty = false
}

// migrate sends particles whose cell is hosted by another PE to that host.
// One drift moves a particle at most into a neighboring cell — a hosted cell
// or a ghost cell, whose host is always a neighbor rank (on the ledger path,
// the permanent-cell closure invariant); anything farther means the time
// step is too large for the cell size.
func (p *pe) migrate() {
	loc := p.cfg.Grid.Locator()
	out := p.plan.out
	for k := range out {
		out[k] = out[k][:0]
	}
	for i := 0; i < p.set.Len(); {
		cell := loc.Cell(p.set.Pos[i])
		k := p.plan.cellNb[cell]
		if k == nbSelf {
			i++
			continue
		}
		if k == nbUnknown {
			panic(fmt.Sprintf("core: rank %d migrate: particle %d in cell %d, beyond the cells bordering this domain (time step too large for cell size?)",
				p.c.Rank(), p.set.ID[i], cell))
		}
		out[k] = append(out[k], p.set.Extract(i))
		p.set.RemoveSwap(i)
	}
	for k, nb := range p.nbs {
		msg := out[k]
		slices.SortFunc(msg, func(a, b particle.One) int { return cmp.Compare(a.ID, b.ID) })
		p.send(metrics.PhaseMigrate, nb, tagMigrate, msg, int64(len(msg))*48)
	}
	for _, nb := range p.nbs {
		in := p.c.Recv(nb, tagMigrate).([]particle.One)
		for _, one := range in {
			p.set.AddOne(one)
		}
	}
}

// rebuild re-bins the particles into the flat cell lists and, for the
// balancer, recomputes the per-column census.
func (p *pe) rebuild() {
	g := p.cfg.Grid
	if bad := p.cl.Bin(p.set.Pos); bad >= 0 {
		panic(fmt.Sprintf("core: rank %d holds particle %d in unhosted cell %d",
			p.c.Rank(), p.set.ID[bad], g.CellOf(p.set.Pos[bad])))
	}
	if p.dec != nil {
		clear(p.colPop)
		for s := 0; s < p.cl.NumHosted(); s++ {
			p.colPop[g.ColumnOf(p.cl.SlotCell(s))] += p.cl.SlotLen(s)
		}
	}
}

// haloExchange sends every neighbor the positions of the hosted cells it
// imports and stages the replies — one message per neighbor each way, no
// request: both sides know the cell lists from the plan, and a reply that
// departs from it is a panic (see plan.stage), never a silently empty cell.
func (p *pe) haloExchange() {
	for k, nb := range p.nbs {
		reply, bytes := p.plan.pack(k, p.cl, p.set.Pos)
		p.send(metrics.PhaseHalo, nb, tagHalo, reply, bytes)
	}
	p.cl.ClearGhosts()
	for k, nb := range p.nbs {
		p.plan.stage(p.c.Rank(), nb, k, p.c.Recv(nb, tagHalo).([]cellBlock), p.cl)
	}
	p.cl.SealGhosts()
}

// computeForces evaluates the short-range forces of the pairs this PE owns
// via the shared kernel and records this step's load under both metrics (the
// work is the candidate census, not what was evaluated here).
func (p *pe) computeForces() {
	p.set.ZeroForces()
	t0 := time.Now()
	potE, _, pairs := p.cl.Compute(p.cfg.Pair, &p.set)
	potE += kernel.ExternalForces(p.cfg.Ext, &p.set)
	p.potE = potE
	p.lastWall = time.Since(t0).Seconds()
	p.lastWork = float64(pairs)
	p.tm.Add(metrics.PhaseForce, p.lastWall)
}

// returnForces sends every neighbor the forces computeForces put on the
// cells imported from it, with this PE's load, and adds what the neighbors
// computed for the cells hosted here, in neighbor, cell, particle order. A
// return that departs from the halo reply it answers is a panic (see
// plan.addReturn).
func (p *pe) returnForces() {
	for k, nb := range p.nbs {
		ret, bytes := p.plan.packReturn(k, p.cl, p.lastWork)
		p.send(metrics.PhaseHalo, nb, tagForce, ret, bytes)
	}
	for k, nb := range p.nbs {
		ret := p.c.Recv(nb, tagForce).(forceReturn)
		p.plan.addReturn(p.c.Rank(), nb, k, ret.Cells, p.cl, p.set.Frc)
		p.nbLoad[k] = ret.Load
	}
}

// rescale applies global velocity rescaling to Tref.
func (p *pe) rescale() {
	ke := p.c.AllreduceFloat64(p.set.KineticEnergy(), comm.Sum)
	n := p.c.AllreduceInt64(int64(p.set.Len()), comm.SumI)
	integrator.Rescale(&p.set, integrator.RescaleFactor(ke, int(n), p.cfg.Tref))
}

// collectStats gathers the per-PE census and, on rank 0, folds it into the
// step's record and hands that to Config.OnStep. The phase sample is taken (and the timer reset) every step so
// a sample never spans steps; on skipped steps it is simply dropped, like
// the rest of the per-step snapshot quantities.
func (p *pe) collectStats(step int, stepWall float64) {
	sample := p.tm.TakeSample()
	if step%p.cfg.StatsEvery != 0 {
		return
	}
	if p.cfg.Guard != nil {
		p.guardFinite(step)
	}
	empty := 0
	for s := 0; s < p.cl.NumHosted(); s++ {
		if p.cl.SlotLen(s) == 0 {
			empty++
		}
	}
	rec := peRecord{
		Work:       p.lastWork,
		Wall:       p.lastWall,
		Step:       stepWall,
		Cells:      p.cl.NumHosted(),
		Empty:      empty,
		Moved:      p.moved,
		MovedBytes: p.movedBytes,
		Ghosts:     len(p.cl.GhostCells()),
		PotE:       p.potE,
		KinE:       p.set.KineticEnergy(),
		N:          p.set.Len(),
		Phases:     sample,
	}
	all := p.c.Gather(rec)
	if p.c.Rank() != 0 {
		return
	}
	st := StepStats{Step: step, WorkMin: -1, WallMin: -1, Balancer: p.cfg.BalancerName()}
	pes := make([]conc.PE, len(all))
	var totalN int
	for i, a := range all {
		r := a.(peRecord)
		st.WorkMax = max(st.WorkMax, r.Work)
		st.WallMax = max(st.WallMax, r.Wall)
		st.StepWallMax = max(st.StepWallMax, r.Step)
		if st.WorkMin < 0 || r.Work < st.WorkMin {
			st.WorkMin = r.Work
		}
		if st.WallMin < 0 || r.Wall < st.WallMin {
			st.WallMin = r.Wall
		}
		st.WorkAve += r.Work
		st.WallAve += r.Wall
		st.StepWallAve += r.Step
		st.Moved += r.Moved
		st.MovedBytes += r.MovedBytes
		st.GhostCellsMax = max(st.GhostCellsMax, r.Ghosts)
		st.TotalEnergy += r.PotE + r.KinE
		totalN += r.N
		pes[i] = conc.PE{Cells: r.Cells, Empty: r.Empty}
		st.Phases.Fold(r.Phases)
	}
	st.WorkAve /= float64(len(all))
	st.WallAve /= float64(len(all))
	st.StepWallAve /= float64(len(all))
	st.Phases.Finalize(len(all))
	if totalN > 0 {
		var ke float64
		for _, a := range all {
			ke += a.(peRecord).KinE
		}
		st.Temperature = 2 * ke / (3 * float64(totalN))
	}
	st.Conc = conc.Compute(pes)
	// Transport traffic as seen by this process; on a multi-process run
	// the coordinator replaces these with the global per-process sums.
	ts := p.c.TransportStats()
	st.SentFrames, st.SentBytes = ts.Frames, ts.Bytes
	if p.cfg.Guard != nil {
		p.guardGlobal(step, st.TotalEnergy, totalN)
	}
	if p.cfg.OnStep != nil {
		p.cfg.OnStep(st)
	}
}

// guardFinite is the per-rank physics guard: every particle this PE holds
// must have finite position and velocity. It runs at the stats cadence,
// before the census is gathered, so a violation prevents the corrupt step
// from ever reaching the trace or a checkpoint. The panic value is the
// typed violation itself; the engine trap passes it through unchanged.
func (p *pe) guardFinite(step int) {
	for i := range p.set.Pos {
		if !p.set.Pos[i].IsFinite() || !p.set.Vel[i].IsFinite() {
			panic(&supervise.GuardViolation{
				Rank: p.c.Rank(), Step: step, Check: "finite",
				Detail: fmt.Sprintf("particle %d pos=%v vel=%v", p.set.ID[i], p.set.Pos[i], p.set.Vel[i]),
			})
		}
	}
}

// guardGlobal runs the rank-0 physics guards over the folded census:
// particle-count conservation and the relative energy-drift ceiling
// (anchored at this incarnation's first census).
func (p *pe) guardGlobal(step int, energy float64, totalN int) {
	// A NaN would slip past the drift comparison below (NaN > x is false).
	if math.IsNaN(energy) || math.IsInf(energy, 0) {
		panic(&supervise.GuardViolation{
			Rank: 0, Step: step, Check: "finite",
			Detail: fmt.Sprintf("total energy %g", energy),
		})
	}
	if totalN != int(p.initN) {
		panic(&supervise.GuardViolation{
			Rank: 0, Step: step, Check: "conservation",
			Detail: fmt.Sprintf("global particle count %d, want %d", totalN, p.initN),
		})
	}
	drift := p.cfg.Guard.Drift()
	if drift <= 0 {
		return
	}
	if !p.guardE0Set {
		p.guardE0, p.guardE0Set = energy, true
		return
	}
	if math.Abs(energy-p.guardE0) > drift*math.Max(1, math.Abs(p.guardE0)) {
		panic(&supervise.GuardViolation{
			Rank: 0, Step: step, Check: "energy-drift",
			Detail: fmt.Sprintf("total energy %g drifted from %g (ceiling %g relative)", energy, p.guardE0, drift),
		})
	}
}

// gatherFinal assembles the global final state on rank 0: ranks send
// their particles in live order, and rank 0 sorts the gathered whole once
// by ID.
func (p *pe) gatherFinal(res *Result) {
	mine := make([]particle.One, p.set.Len())
	for i := range mine {
		mine[i] = particle.One{ID: p.set.ID[i], Pos: p.set.Pos[i], Vel: p.set.Vel[i]}
	}
	all := p.c.Gather(mine)
	if p.c.Rank() != 0 {
		return
	}
	total := 0
	for _, a := range all {
		total += len(a.([]particle.One))
	}
	ones := make([]particle.One, 0, total)
	for _, a := range all {
		ones = append(ones, a.([]particle.One)...)
	}
	slices.SortFunc(ones, func(a, b particle.One) int { return cmp.Compare(a.ID, b.ID) })
	final := &particle.Set{}
	final.Grow(total)
	for _, one := range ones {
		final.AddOne(one)
	}
	res.Final = final
}
