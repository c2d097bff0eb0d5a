package permcell

import (
	"time"

	"permcell/internal/comm"
	"permcell/internal/core"
	"permcell/internal/distrib"
	"permcell/internal/supervise"
)

// FaultPlan re-exports the deterministic communication fault-injection
// plan of the chaos layer (see internal/comm): latency jitter, bounded
// reordering and scripted PE stalls, all drawn from seeded RNG streams so
// faulty runs replay bit for bit.
type FaultPlan = comm.FaultPlan

// Stall is one scripted PE stall inside a FaultPlan.
type Stall = comm.Stall

// DeadlockError is returned when the watchdog detects a communication
// stall; it carries a per-rank state dump with goroutine stacks.
type DeadlockError = comm.DeadlockError

// Supervision types, re-exported from internal/supervise (see DESIGN.md
// section 10 "Supervision and recovery").
type (
	// SupervisorPolicy configures WithSupervisor: retry budget, backoff
	// growth, physics-guard tuning and an optional event sink.
	SupervisorPolicy = supervise.Policy
	// SupervisorReport is the structured supervision outcome: the event log
	// plus failure and recovery counters.
	SupervisorReport = supervise.Report
	// SupervisorEvent is one entry of the supervision log.
	SupervisorEvent = supervise.Event
	// GuardConfig tunes the runtime physics guards.
	GuardConfig = supervise.GuardConfig
	// RankFailure is the typed error for a crashed PE goroutine.
	RankFailure = supervise.RankFailure
	// GuardViolation is the typed error for a failed physics guard.
	GuardViolation = supervise.GuardViolation
	// RetryBudgetError is returned when the supervisor's retry budget is
	// exhausted; the run degrades to a partial Result alongside it.
	RetryBudgetError = supervise.RetryBudgetError
	// Sabotage scripts the one-shot injected fault for chaos-testing the
	// recovery path (WithSabotage; DESIGN.md "Fault injection").
	Sabotage = supervise.Sabotage
)

// Sabotage kinds: panic and nan fail one rank, on either transport; the
// worker kinds fail the tcp worker process hosting the rank.
const (
	SabotagePanic         = supervise.SabotagePanic
	SabotageNaN           = supervise.SabotageNaN
	SabotageWorkerExit    = supervise.SabotageWorkerExit
	SabotageWorkerStall   = supervise.SabotageWorkerStall
	SabotageWorkerGarbage = supervise.SabotageWorkerGarbage
)

// Distributed failure types, re-exported from internal/distrib (see
// DESIGN.md section 14 "Distributed failure model and recovery").
type (
	// WorkerFailure is the typed error for a failed coordinator<->worker
	// link on the tcp transport: process exit, heartbeat timeout, frame
	// corruption or protocol violation. Under WithSupervisor it heals by
	// checkpoint rollback; unsupervised it surfaces from Step.
	WorkerFailure = distrib.WorkerFailure
	// WorkerFailureKind classifies a WorkerFailure.
	WorkerFailureKind = distrib.FailureKind
)

// WorkerFailure kinds.
const (
	WorkerExited           = distrib.FailExited
	WorkerHeartbeatTimeout = distrib.FailHeartbeat
	WorkerFrameDecode      = distrib.FailFrameDecode
	WorkerProtocolError    = distrib.FailProtocol
)

// Worker-recovery policies for SupervisorPolicy.WorkerRecovery: respawn
// the failed worker at the same process count, or rescale onto the
// survivors.
const (
	RecoverRespawn = supervise.RecoverRespawn
	RecoverRescale = supervise.RecoverRescale
)

// Options collects the run parameters beyond the paper coordinates
// (m, P, rho). Construct it only through Option values passed to New,
// NewSerial, NewStatic or Run; the zero value of every field selects the
// documented default.
type Options struct {
	id          Spec // the identity options' fields; see identity
	balancer    Balancer
	balancerSet bool // WithBalancer was given, nil or not
	shards      int
	rt          core.Runtime // metrics, fault plan, watchdog, sabotage; no guard
	onStep      func(StepStats)
	discard     bool
	ckptEvery   int
	ckptDir     string
	supervisor  *supervise.Policy
	transport   Transport
}

// Transport selects where the parallel engine's PE ranks live. The zero
// value (or Kind "chan") is the in-process reference transport: all ranks
// are goroutines of this process exchanging messages over channels. Kind
// "tcp" hosts the ranks in worker processes connected to an in-process
// coordinator over loopback TCP (length-prefixed frames with fixed-layout
// binary payloads through a star topology; see internal/distrib). Both
// transports honor the same delivery contract, so a given seed produces
// bit-identical step traces on either — the transport changes where ranks
// run, never what they compute.
type Transport struct {
	// Kind is "" or "chan" for in-process, "tcp" for multi-process.
	Kind string
	// Procs is the tcp worker-process count, 1..P; ranks are dealt in
	// contiguous blocks. 0 defaults to one process per rank.
	Procs int
	// Worker is the mdrank binary to exec per tcp worker. Empty hosts
	// the workers as goroutines of this process, still speaking real
	// TCP over loopback.
	Worker string
	// Addr is the tcp coordinator listen address (default "127.0.0.1:0").
	Addr string
	// HeartbeatEvery and HeartbeatMisses set the liveness window on every
	// coordinator<->worker link: a link with no frame for
	// HeartbeatEvery x HeartbeatMisses is declared dead and surfaces as a
	// *WorkerFailure instead of hanging the run. Values <= 0 select the
	// defaults (1s x 5).
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
}

// Transport kinds.
const (
	TransportChan = "chan"
	TransportTCP  = "tcp"
)

// Option mutates an Options.
type Option func(*Options)

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithBalancer selects the load-balancing strategy the parallel engine
// drives at the DLB cadence: PermanentCell (the paper's method), SFC or
// Diffusive. nil, like the option's absence, runs static DDM. The
// balancer's parameters — the hysteresis among them — are part of the run
// identity and are validated at engine construction. Ignored by the serial
// and static engines. Restore checks it, nil included, against the
// checkpoint's balancer.
func WithBalancer(b Balancer) Option { return func(o *Options) { o.balancer, o.balancerSet = b, true } }

// WithWells adds n harmonic attractor sites of strength k to drive
// condensation (the experiments' accelerated-physics substitution; see
// DESIGN.md). n <= 1 with k > 0 places a single central well.
func WithWells(n int, k float64) Option {
	return func(o *Options) { o.id.Wells, o.id.WellK = n, k }
}

// WithShards is what is left of the retired intra-rank shards: every PE
// computes its own forces in one summation order, and its pair search runs
// on every core it is given without moving a bit. Construction accepts 0
// and 1, which change nothing, and fails on any other value.
//
// Deprecated: it stays only because bench/ still passes 1. The next change
// allowed to edit bench/ — the measurement change ROADMAP lists first —
// deletes it.
func WithShards(n int) Option { return func(o *Options) { o.shards = n } }

// WithSeed seeds the initial condition (and the fault plan derivations).
// The default is 1, and seed 0 selects it.
func WithSeed(seed uint64) Option { return func(o *Options) { o.id.Seed = seed } }

// WithDt overrides the integration time step. Zero keeps the default of
// 0.005 reduced time units; PaperTimeStep selects the paper's literal 1e-4.
func WithDt(dt float64) Option { return func(o *Options) { o.id.Dt = dt } }

// WithStatsEvery thins the per-step statistics to every k-th step
// (default 1; the global concentration census costs one small allgather).
// Values below 1 select the default.
func WithStatsEvery(k int) Option { return func(o *Options) { o.id.StatsEvery = k } }

// WithMetrics enables the per-phase observability layer: every step's wall
// time is attributed to the phase taxonomy (force, halo, migrate, DLB
// decide/transfer, integrate, collectives) and reduced across PEs into
// StepStats.Phases, together with per-phase message and byte counts. Off
// (the default), the engines carry a nil timer and the hot path pays one
// pointer test per phase boundary; see DESIGN.md "Observability".
func WithMetrics() Option { return func(o *Options) { o.rt.Metrics = true } }

// WithOnStep streams each step's statistics to fn as the run progresses.
// For the parallel engines fn runs on rank 0's goroutine and must not call
// back into the engine.
func WithOnStep(fn func(StepStats)) Option { return func(o *Options) { o.onStep = fn } }

// WithDiscardStats drops per-step records after the OnStep hook has seen
// them, keeping long streaming runs O(1) in memory.
func WithDiscardStats() Option { return func(o *Options) { o.discard = true } }

// WithFaultPlan runs all communication under the given deterministic
// fault-injection plan. On New's column ledger it also verifies the
// protocol invariants (DESIGN.md section 6) after every step, on either
// transport. New and Restore reject a plan FaultPlan.Validate refuses for
// the run's rank count. Serial engines ignore it.
func WithFaultPlan(plan FaultPlan) Option {
	return func(o *Options) { o.rt.Faults = &plan }
}

// WithWatchdog arms the deadlock watchdog: a communication stall longer
// than d returns a *DeadlockError instead of hanging. Serial engines
// ignore it.
func WithWatchdog(d time.Duration) Option { return func(o *Options) { o.rt.Watchdog = d } }

// WithSupervisor runs the engine under the self-healing supervisor: PE
// panics, physics-guard violations, watchdog deadlocks and (on tcp) worker
// failures roll the run back to the latest valid checkpoint (falling back
// to the retained previous one when the latest is suspect) and resume with
// exponential backoff, up to p.MaxRetries attempts — during a Step, and
// during the snapshot of a cadence or explicit checkpoint alike. When the
// budget is exhausted the run degrades to a partial Result plus a
// *RetryBudgetError carrying the structured failure report. Requires
// WithCheckpoint (the rollback targets); an anchor checkpoint is written at
// construction so a rollback target exists before the first cadence
// boundary. The replay after a rollback writes no checkpoints, and a
// checkpoint that fails to write is returned from its Step without ending
// the run, as on an unsupervised engine. Replayed steps are suppressed from
// Stats and the OnStep stream, so a recovered run's trace is bit-identical
// to the uninterrupted one's.
func WithSupervisor(p SupervisorPolicy) Option {
	return func(o *Options) { pp := p; o.supervisor = &pp }
}

// WithSabotage injects the run's one scripted fault, for chaos-testing the
// recovery path: a PE panic or a NaN velocity at an absolute (step, rank) on
// either transport, or — on tcp — the exit, stall or garbage frame of the
// worker hosting the rank, before the batch containing the step. The script
// is validated at construction (Sabotage.Validate). It fires exactly once
// and s is spent when it fires, not when an engine is built around it: a
// replay after a rollback converges to the golden trace, and an incarnation
// that ends before the step leaves s armed for the Restore handed the same
// pointer. Serial engines ignore it.
func WithSabotage(s *Sabotage) Option { return func(o *Options) { o.rt.Sabotage = s } }

// WithTransport selects the parallel engine's transport (see Transport).
// The serial and static engines support only the in-process transport.
// On the tcp transport WithOnStep runs on the coordinator's Step path
// instead of rank 0's goroutine. WithSupervisor composes with the tcp
// transport: worker failures (see WorkerFailure) join panics, guard
// violations and deadlocks as recoverable classes, healed by rollback plus
// respawn or rescale (SupervisorPolicy.WorkerRecovery).
func WithTransport(t Transport) Option { return func(o *Options) { o.transport = t } }

// WithCheckpoint writes a coordinated checkpoint into dir every `every`
// time steps (counted in absolute simulation steps, so a restored run keeps
// the original cadence). Step calls spanning a multiple of every pause at
// the boundary, snapshot, write, and continue — the trace is unaffected.
// dir keeps a latest/previous pair, written atomically, so a crash mid-write
// never loses the run. every <= 0 disables the automatic cadence but still
// configures dir for explicit CheckpointNow calls. A failed write surfaces
// as the Step error, on every engine kind after the boundary step's record
// is emitted; the engine stays usable.
func WithCheckpoint(every int, dir string) Option {
	return func(o *Options) { o.ckptEvery, o.ckptDir = every, dir }
}
