package probequorum

import (
	"context"

	"probequorum/internal/quorum"
	"probequorum/internal/rw"
)

// Read/write planner abstractions, re-exported from internal/rw. A
// read/write quorum system pairs a read role with a write role whose
// duality — every read quorum intersects every write quorum — is
// checked mask-natively; a Strategy is a probability distribution over
// each role's quorums, and the optimizer solves the capacity LP for the
// load-optimal one under a Workload. See DESIGN.md, "Read/write
// planner".
type (
	// ReadWriteSystem is a System with distinct read and write roles.
	// Every System evaluates as one via AsReadWrite (self-pairing).
	ReadWriteSystem = rw.ReadWrite
	// ReadWritePair is the concrete read/write pair: built by NewGrid,
	// NewReadOneWriteAll, NewReadWritePair, or the "rw:", "rowa:" and
	// "grid:" spec forms.
	ReadWritePair = rw.Pair
	// Strategy is a distribution over read quorums and write quorums —
	// what a deployment executes per operation.
	Strategy = rw.Strategy
	// Workload is the traffic model a strategy is measured against: read
	// fraction and per-node read/write capacities (quoracle's model).
	Workload = rw.Workload
	// StrategyOptions configures strategy optimization: the workload plus
	// the resilience requirement F.
	StrategyOptions = rw.Options
	// ExactResilience is the capability of systems that know their crash
	// resilience in closed form; Resilience dispatches on it.
	ExactResilience = quorum.ExactResilience
)

// NewGrid returns the grid read/write pair over r x c elements: reads
// are full rows, writes are one-element-per-row transversals, so every
// read meets every write in the written row entry it shares.
func NewGrid(r, c int) (*ReadWritePair, error) { return rw.Grid(r, c) }

// NewReadOneWriteAll returns the read-one/write-all pair over n
// elements: any single node serves a read, every write updates all n.
func NewReadOneWriteAll(n int) (*ReadWritePair, error) { return rw.ReadOneWriteAll(n) }

// NewReadWritePair builds a pair from explicit read and write quorum
// lists (each an antichain of nonempty sets), validating read/write
// duality mask-natively: for every write quorum W, the complement of W
// must contain no read quorum.
func NewReadWritePair(name string, n int, reads, writes []*Set) (*ReadWritePair, error) {
	return rw.NewExplicitPair(name, n, reads, writes)
}

// SelfPair wraps a single-role system as a read/write pair whose two
// roles coincide — how classic coteries enter the planner.
func SelfPair(sys System) *ReadWritePair { return rw.FromSingle(sys) }

// AsReadWrite returns the read/write view of a system: the system
// itself when it already is one, a self-pair otherwise.
func AsReadWrite(sys System) ReadWriteSystem { return rw.As(sys) }

// CheckDuality verifies that every read quorum intersects every write
// quorum, mask-natively: each write quorum's complement is tested for
// containing a read quorum through the wide-mask engine. A violation
// names the offending write quorum.
func CheckDuality(reads, writes System) error { return rw.CheckDuality(reads, writes) }

// OptimizeStrategy computes a load-optimal strategy for the system's
// read/write pair under the options — an exact LP solve of the capacity
// program (see Strategy and DESIGN.md). Evaluation sessions memoize
// optimized strategies per (system, options); prefer
// Evaluator.OptimalStrategy in serving paths.
func OptimizeStrategy(sys System, opts StrategyOptions) (*Strategy, error) {
	return rw.Optimize(sys, opts)
}

// UniformStrategy returns the uniform-distribution baseline strategy
// over each role's (f-resilient) minimal quorums.
func UniformStrategy(sys System, opts StrategyOptions) (*Strategy, error) {
	return rw.Uniform(sys, opts)
}

// NaorWoolLowerBound returns the Naor-Wool load lower bound
// max(1/c, c/n) of a single-role system with minimal quorum size c: no
// strategy beats it under unit capacities.
func NaorWoolLowerBound(sys System) float64 { return rw.LowerBound(sys) }

// ResilientQuorums returns the minimal f-resilient quorums of the
// system: sets that still contain a quorum after ANY f of their
// elements fail (small universes; see rw.MaxResilientUniverse).
func ResilientQuorums(ctx context.Context, sys System, f int) ([]*Set, error) {
	return rw.ResilientQuorums(ctx, sys, f)
}

// Resilience returns the crash resilience of the system's read/write
// pair: the largest f such that any f failures leave both a live read
// and a live write quorum, through the default session's cache.
func Resilience(sys System) (int, error) {
	return defaultEvaluator.ResilienceCtx(context.Background(), sys)
}

// OptimalStrategy is StrategyCtx on a background context.
func (e *Evaluator) OptimalStrategy(sys System, opts StrategyOptions) (*Strategy, error) {
	return e.StrategyCtx(context.Background(), sys, opts)
}

// StrategyCtx returns the load-optimal strategy of the system's
// read/write pair under opts, memoized per (system, options key) —
// optimized strategies are expensive artifacts (quorum or f-resilient
// enumeration plus an LP solve), so a session computes each workload
// point once and every later query on the same spec hits the memo. The
// build is single-flighted: concurrent cold queries for one (system,
// options) share one solve, and a cancelled leader hands it to the
// surviving followers. Cancellation caches nothing.
func (e *Evaluator) StrategyCtx(ctx context.Context, sys System, opts StrategyOptions) (*Strategy, error) {
	return artifact(ctx, e, sys, artifactKey{kind: artifactStrategy, opts: opts.Key()}, func(ctx context.Context) (*Strategy, error) {
		return rw.OptimizeCtx(ctx, sys, opts)
	})
}

// ResilienceCtx returns the crash resilience of the system's read/write
// pair, memoized per system and single-flighted like every session
// artifact. Pairs with closed-form role resiliences answer at any
// universe size; the generic witness-table scan is bounded by
// quorum.MaxTableUniverse.
func (e *Evaluator) ResilienceCtx(ctx context.Context, sys System) (int, error) {
	return artifact(ctx, e, sys, artifactKey{kind: artifactResilience}, func(ctx context.Context) (int, error) {
		return rw.Resilience(ctx, sys)
	})
}
