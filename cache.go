package probequorum

import (
	"context"
	"errors"

	"probequorum/internal/approx"
	"probequorum/internal/spec"
	"probequorum/internal/store"
)

// EngineVersion keys persistent artifact records to the DP/LP engines
// that produced them. Bump it whenever a change could alter any exact
// artifact bit (a DP tie-break, a table layout, an LP pivot rule):
// records written under a different version silently miss, so an
// upgraded fleet recomputes instead of trusting stale bits. Version 2
// stops the DPs on a red transversal, not a red quorum: the pc and ppc
// records of rowa:, grid: and dominated systems changed.
const EngineVersion uint32 = 2

// ArtifactStore is the persistent, process-shared artifact tier below a
// session's in-memory memos: witness tables, exact PC/PPC values,
// availability polynomial coefficients, optimized strategies and
// resilience values, on disk, keyed by canonical spec and
// EngineVersion. Any number of evaluators — in one process or many —
// may share one store directory; see internal/store for the integrity
// protocol that makes that safe.
type ArtifactStore = store.Store

// ArtifactStoreStats is the ArtifactStore's snapshot: per-kind on-disk
// footprint plus lifetime hit/miss/corruption/write counters.
type ArtifactStoreStats = store.Stats

// ApproxCache is the approximate-answer tier: exact measure values at
// sampled parameter points, served at nearby parameters within a
// query's declared Tolerance and tagged with a guaranteed error bound.
// Queries without a tolerance never touch it.
type ApproxCache = approx.Cache

// ApproxCacheStats is the ApproxCache's snapshot.
type ApproxCacheStats = approx.Stats

// OpenArtifactStore opens (creating if absent) a persistent artifact
// store over dir at the current EngineVersion.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	return store.Open(dir, EngineVersion)
}

// NewApproxCache returns an empty approximate-answer cache.
func NewApproxCache() *ApproxCache { return approx.New() }

// WithStore attaches a persistent artifact store to the session: every
// single-flight artifact build consults it before computing (memo →
// approx → store → compute) and persists successful computes back, so a
// restarted or scaled-out fleet sharing the directory warms instantly
// and bit-identically.
func WithStore(s *ArtifactStore) EvaluatorOption {
	return func(e *Evaluator) { e.artifacts = s }
}

// WithApprox attaches an approximate-answer cache: parametric exact
// measures (PPC, availability) computed by this session feed it, and
// queries that declare a positive Tolerance may be answered from it at
// nearby parameters, always carrying the achieved error bound. Queries
// with Tolerance zero never touch it — their answers stay bit-identical
// with or without the cache.
func WithApprox(c *ApproxCache) EvaluatorOption {
	return func(e *Evaluator) { e.approx = c }
}

// ArtifactStore returns the session's persistent store, or nil.
func (e *Evaluator) ArtifactStore() *ArtifactStore { return e.artifacts }

// Approx returns the session's approximate-answer cache, or nil.
func (e *Evaluator) Approx() *ApproxCache { return e.approx }

// WarmStore precomputes and persists the named systems' core artifacts
// (witness table, PC, and PPC plus availability at the given ps) into
// the session's store, so a later process starts warm. It is the engine
// of `quorumctl cache warm`. Systems or measures out of a construction's
// exact reach are skipped, not errors; the first infrastructure error
// (store write failure aside — those are counted, not fatal) aborts.
func (e *Evaluator) WarmStore(specs []string, ps []float64) error {
	for _, sp := range specs {
		sys, err := spec.Parse(sp)
		if err != nil {
			return err
		}
		if _, err := e.ProbeComplexity(sys); err != nil && !outOfExactReach(err) {
			return err
		}
		for _, p := range ps {
			if _, err := e.AverageProbeComplexity(sys, p); err != nil && !outOfExactReach(err) {
				return err
			}
			if _, err := e.AvailabilityCtx(context.Background(), sys, p); err != nil && !outOfExactReach(err) {
				return err
			}
		}
	}
	return nil
}

// outOfExactReach reports whether an error means "this construction has
// no exact answer for this measure" — a per-system condition warming
// skips, not a failure of the warm run.
func outOfExactReach(err error) bool {
	var be *BoundError
	var bu *BudgetError
	var ue *UnsupportedError
	return errors.As(err, &be) || errors.As(err, &bu) || errors.As(err, &ue)
}
