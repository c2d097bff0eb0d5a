package permcell

// The pluggable load-balancing API. WithBalancer(PermanentCell(...)) selects
// the paper's permanent-cell scheme, and WithBalancer is the one way to
// select any strategy. All strategies
// execute their column moves through the same ledger/transfer machinery
// (forces carried with the payload), so the 8-neighbor communication
// pattern, the C' hosting bound, conservation and momentum invariants hold
// regardless of which balancer decides; see DESIGN.md section 11.

import "permcell/internal/balance"

// Balancer is a pluggable column-ownership load-balancing strategy driven
// by the parallel engine at the DLB cadence. Construct one with
// PermanentCell, SFC or Diffusive and pass it to WithBalancer. The
// balancer's identity travels with the run: StepStats.Balancer, trace/run
// headers and checkpoint metadata all record it, and a checkpoint refuses
// to resume under a different balancer.
type Balancer = balance.Balancer

// Pick selects which candidate column the permanent-cell balancer hands
// over when several are eligible.
type Pick = balance.Pick

// The balancers' parameter types are the balancers themselves, and each
// constructor below returns its argument as a Balancer.
type (
	// PermanentCellConfig parameterizes the paper's permanent-cell
	// balancer: Hysteresis is the relative load gap a neighbor must trail
	// by before a column moves (0 = paper-literal: any strictly faster
	// neighbor triggers a move), Pick selects among candidate columns
	// (default PickMostLoaded).
	PermanentCellConfig = balance.PermanentCell
	// SFCConfig parameterizes the space-filling-curve balancer: Hysteresis
	// is the relative load surplus required before a move fires (0 = any
	// strict improvement), Moves bounds the columns one PE sheds per epoch
	// (0 = default 1).
	SFCConfig = balance.SFC
	// DiffusiveConfig parameterizes the diffusive balancer: Hysteresis is
	// the relative load gap a neighbor must trail by before any flow is
	// demanded toward it (0 = any gradient), Moves bounds the columns one
	// PE sheds per epoch (0 = default 1).
	DiffusiveConfig = balance.Diffusive
)

// PermanentCell returns the paper's permanent-cell balancer (Section 2.3):
// each epoch a PE compares loads with its 8 torus neighbors and hands at
// most one column toward the fastest one, following the three-case
// redistribution protocol. This is the reference implementation; select it
// with WithBalancer(PermanentCell(PermanentCellConfig{Hysteresis: h})).
func PermanentCell(cfg PermanentCellConfig) Balancer { return cfg }

// SFC returns a space-filling-curve repartitioner (Stijnman & Bisseling's
// ORB-over-a-curve idiom): permanent-cell columns are linearized in Morton
// order, the curve is cut into P near-equal-load segments each epoch, and
// columns migrate toward their ideal segment — within the permanent-cell
// legal move space, so the 8-neighbor exchange pattern is preserved.
func SFC(cfg SFCConfig) Balancer { return cfg }

// Diffusive returns a nearest-neighbor diffusion balancer (Eibl & Rüde's
// DIFF idiom): each PE sheds load only to its 8 torus neighbors,
// proportionally to the pairwise cost gradient, realized with legal
// permanent-cell moves.
func Diffusive(cfg DiffusiveConfig) Balancer { return cfg }

// BalancerByName parses a balancer spec: a bare name ("permcell", "sfc",
// "diffusive", "none") with default parameters, or a parameterized form
// like "permcell(h=0.1)" or "sfc(h=0,moves=2)". "none" returns nil (static
// DDM). This is the format CLI flags and checkpoint metadata use.
func BalancerByName(spec string) (Balancer, error) {
	return balance.Decode(spec)
}

// BalancerName returns the identity recorded in run headers for b: its
// name, or "none" for nil.
func BalancerName(b Balancer) string {
	if b == nil {
		return "none"
	}
	return b.Name()
}

// BalancerSpec returns the canonical parameterized spec for b ("none" for
// nil) — the string BalancerByName parses back and checkpoint metadata
// records, e.g. "permcell(h=0.1,pick=0)".
func BalancerSpec(b Balancer) string { return balance.Encode(b) }
