// Package balance holds the online load-balancing strategies the parallel
// engine drives every time step: one Balancer interface, the paper's
// permanent-cell protocol (PermanentCell) and two alternatives (SFC,
// Diffusive) behind it, and the codec that carries a balancer's identity
// through CLI flags and checkpoint metadata. A balancer observes per-PE
// costs and proposes column ownership moves; the engine executes them
// through the shared ledger/colTransfer machinery (forces included). Every
// proposed move must lie in the ledger's legal move space — an owner lends
// a movable at-home column to one of its up-left neighbors, a borrower
// returns a column to its owner — which is what keeps the 8-neighbor
// communication pattern and the C' = m^2+3(m-1)^2 hosting bound intact for
// every strategy. dlb.Ledger.Apply re-validates each decision at run time,
// so an out-of-contract balancer fails loudly instead of corrupting the
// halo protocol.
package balance

import (
	"fmt"

	"permcell/internal/dlb"
)

// Scope declares what a balancer needs to observe each epoch, which
// determines the communication the engine performs on its behalf.
type Scope int

const (
	// ScopeNeighbors: the balancer sees its own load and the 8 torus
	// neighbors' loads (the paper's protocol step 1; they arrive on the
	// force returns that close a step, at no message of their own).
	ScopeNeighbors Scope = iota
	// ScopeGlobal: the balancer additionally sees every PE's load and the
	// global per-column load census (one allgather per epoch).
	ScopeGlobal
)

// Observation is one epoch's load picture, assembled by the engine.
type Observation struct {
	// Self is this PE's last force-computation load: its pair-evaluation
	// count, which is deterministic.
	Self float64
	// Neighbor holds the 8 torus neighbors' loads in topology.Offsets8
	// order.
	Neighbor [8]float64
	// PELoad is every PE's load indexed by rank. Nil under ScopeNeighbors.
	PELoad []float64
	// ColLoad reports the current load of a column (its particle count).
	// Under ScopeNeighbors it covers only locally hosted columns (others
	// report 0); under ScopeGlobal it covers every column.
	ColLoad func(col int) float64
}

// Decider is one PE's per-rank strategy state. Decide inspects the ledger
// (without mutating it) and returns the ownership moves this PE makes this
// epoch — at most Balancer.MaxMoves of them, each legal under the
// permanent-cell contract. Decisions must be a pure function of (ledger
// state, observation) so that identical runs replay bit-identically.
type Decider interface {
	Decide(lg *dlb.Ledger, obs Observation) []dlb.Decision
}

// Balancer is a pluggable column-ownership balancing strategy.
type Balancer interface {
	// Name identifies the strategy ("permcell", "sfc", "diffusive"). It is
	// recorded in StepStats, trace headers and checkpoint Meta; a
	// checkpoint refuses to resume under a different name.
	Name() string
	// Scope declares the observation the strategy needs.
	Scope() Scope
	// MaxMoves bounds the decisions one PE may emit per epoch; the engine
	// verifies it.
	MaxMoves() int
	// Validate rejects bad parameters and layouts the strategy cannot
	// serve, before any PE starts.
	Validate(l dlb.Layout) error
	// NewDecider builds rank's per-PE strategy state for layout l.
	NewDecider(l dlb.Layout, rank int) Decider
}

// upLeftContains reports whether dest is in the up-left set of rank.
func upLeftContains(l dlb.Layout, rank, dest int) bool {
	for _, r := range l.UpLeftRanks(rank) {
		if r == dest {
			return true
		}
	}
	return false
}

// validateCommon checks the parameters shared by every balancer config.
func validateCommon(name string, hysteresis float64, maxMoves int) error {
	if hysteresis < 0 {
		return fmt.Errorf("balance: %s: hysteresis must be >= 0, got %g", name, hysteresis)
	}
	if maxMoves < 0 {
		return fmt.Errorf("balance: %s: max moves must be >= 0, got %d", name, maxMoves)
	}
	return nil
}
