// Package distrib runs the parallel engine across OS processes: a
// coordinator (inside mdrun, or any facade caller using the tcp
// transport) listens on loopback TCP, spawns worker processes
// (cmd/mdrank) or goroutine-hosted workers, deals each a contiguous
// block of ranks, and drives their core.NewPartial engines in lockstep over
// the stepwise protocol. Rank-to-rank messages travel as length-prefixed
// gob frames (internal/transport) through a star topology: every worker
// holds one connection to the coordinator, which forwards data frames by
// header only — payloads are never decoded in transit.
//
// Determinism contract: the per-(src,tag) FIFO delivery order is
// preserved end to end (sender goroutine order -> connection write mutex
// -> per-connection router -> single reader inject), and the fault
// layer's per-link RNG streams are placement-independent, so the same
// seed produces bit-identical StepRecord traces on the in-process and
// TCP transports — enforced by the cross-transport golden test.
package distrib

import (
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"permcell/internal/balance"
	"permcell/internal/checkpoint"
	"permcell/internal/comm"
	"permcell/internal/core"
	"permcell/internal/experiments"
	"permcell/internal/particle"
	"permcell/internal/supervise"
	"permcell/internal/workload"
)

// WireSpec is the run configuration a coordinator ships to each worker.
// It carries only scalars plus the optional restore state: the worker
// reconstructs the system deterministically through experiments.RunSpec
// exactly as the facade does in-process, so both transports build
// bit-identical initial conditions from the same seed.
type WireSpec struct {
	// Paper coordinates + run identity (experiments.RunSpec scalars).
	M, P       int
	Rho        float64
	Balancer   string // balance.Encode form; "none" selects static DDM
	Seed       uint64
	WellK      float64
	Wells      int
	StatsEvery int
	Shards     int
	Metrics    bool
	Dt         float64

	// Engine knobs threaded through core.Config.
	Verify   bool
	InboxCap int
	Watchdog time.Duration
	Faults   *comm.FaultPlan
	Guard    *supervise.GuardConfig

	// Liveness parameters, mirrored from Config so the worker arms the
	// same heartbeat cadence and read window as the coordinator.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int

	// Chaos, when non-nil, is this worker's deterministic failure
	// injection (the coordinator ships it only to the target proc).
	Chaos *WorkerChaos

	// Restore, when non-nil, resumes from a distributed snapshot. Every
	// worker receives the full state: rebuilding the global column->host
	// map (and validating the partition) needs all frames, and the local
	// PEs take their own frames from it.
	Restore *checkpoint.EngineState

	// Proc is this worker's index; Ranks the block of ranks it hosts.
	Proc  int
	Ranks []int
}

// buildConfig reconstructs the engine configuration and system on the
// worker. OnStep and DiscardStats stay unset: step records accumulate in
// the rank-0 process's Result and are shipped to the coordinator, which
// owns the streaming hooks.
func (s *WireSpec) buildConfig() (core.Config, workload.System, error) {
	b, err := balance.Decode(s.Balancer)
	if err != nil {
		return core.Config{}, workload.System{}, fmt.Errorf("distrib: %w", err)
	}
	rs := experiments.RunSpec{
		M: s.M, P: s.P, Rho: s.Rho, Balancer: b,
		Seed: s.Seed, Dt: s.Dt,
		Wells: s.Wells, WellK: s.WellK,
		StatsEvery: s.StatsEvery, Shards: s.Shards, Metrics: s.Metrics,
	}
	cfg, sys, _, err := rs.Build()
	if err != nil {
		return core.Config{}, workload.System{}, fmt.Errorf("distrib: %w", err)
	}
	cfg.Verify = s.Verify
	cfg.InboxCap = s.InboxCap
	cfg.Watchdog = s.Watchdog
	cfg.Faults = s.Faults
	cfg.Guard = s.Guard
	cfg.Restore = s.Restore
	return cfg, sys, nil
}

// StepAck is a worker's reply to a Step command (and, with zero stats,
// the ready signal after engine construction). Supervised failure classes
// (guard violations, rank panics, deadlocks) cross the boundary typed via
// Failure so the coordinator-side supervisor classifies worker-internal
// failures exactly like in-process ones; anything else flattens to Err.
type StepAck struct {
	Proc      int
	Stats     []core.StepStats // new records since the last ack (rank-0 proc only)
	Transport comm.TransportStats
	Msgs      int64
	Bytes     int64
	Failure   *WireFailure
	Err       string
}

// WireFailure carries a supervised failure class across the process
// boundary. Class selects which typed error the coordinator rebuilds;
// only that class's fields are meaningful.
type WireFailure struct {
	Class string // "guard" | "rank" | "deadlock"

	// guard (supervise.GuardViolation)
	Rank   int
	Step   int
	Check  string
	Detail string

	// rank (supervise.RankFailure; Rank shared with guard)
	Value string
	Stack string

	// deadlock (comm.DeadlockError; per-rank states stay worker-side,
	// the stacks and timeout carry the diagnosis)
	Timeout time.Duration
	Stacks  string
}

// wireFailure flattens a worker-side engine error into its wire form, or
// nil for error classes without one (the caller falls back to Err).
func wireFailure(err error) *WireFailure {
	var gv *supervise.GuardViolation
	var rf *supervise.RankFailure
	var de *comm.DeadlockError
	switch {
	case errors.As(err, &gv):
		return &WireFailure{Class: "guard", Rank: gv.Rank, Step: gv.Step, Check: gv.Check, Detail: gv.Detail}
	case errors.As(err, &rf):
		return &WireFailure{Class: "rank", Rank: rf.Rank, Value: rf.Value, Stack: rf.Stack}
	case errors.As(err, &de):
		return &WireFailure{Class: "deadlock", Timeout: de.Timeout, Stacks: de.Stacks}
	}
	return nil
}

// rebuild reconstructs the typed error on the coordinator side.
func (w *WireFailure) rebuild(proc int) error {
	switch w.Class {
	case "guard":
		return &supervise.GuardViolation{Rank: w.Rank, Step: w.Step, Check: w.Check, Detail: w.Detail}
	case "rank":
		return &supervise.RankFailure{Rank: w.Rank, Value: w.Value, Stack: w.Stack}
	case "deadlock":
		return &comm.DeadlockError{Timeout: w.Timeout, Stacks: w.Stacks}
	default:
		return fmt.Errorf("distrib: worker %d: unknown failure class %q", proc, w.Class)
	}
}

// SnapAck carries one worker's checkpoint frames and its share of the
// cumulative comm counters.
type SnapAck struct {
	Proc   int
	Frames []checkpoint.Frame
	Msgs   int64
	Bytes  int64
	Err    string
}

// ResultAck is the final handshake: the rank-0 process carries the
// gathered Final set, every process its comm counters and fault stats.
// FaultEvents are not gathered across processes (the per-event log is a
// single-process debugging aid; the counters are exact either way).
type ResultAck struct {
	Proc   int
	Final  *particle.Set
	Msgs   int64
	Bytes  int64
	Faults comm.FaultStats
	Err    string
}

func init() {
	gob.Register(WireSpec{})
	gob.Register(StepAck{})
	gob.Register(SnapAck{})
	gob.Register(ResultAck{})
}

// errString flattens an error for the wire.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// RanksOf deals P ranks to W processes in contiguous blocks: process i
// hosts [i*P/W, (i+1)*P/W). Blocks (not strides) keep torus-neighbor
// ranks co-resident where possible, which turns most traffic into
// in-process channel delivery.
func RanksOf(p, w, i int) []int {
	lo, hi := i*p/w, (i+1)*p/w
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}
