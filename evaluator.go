package probequorum

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"

	"probequorum/internal/approx"
	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/sim"
	"probequorum/internal/spec"
	"probequorum/internal/stats"
	"probequorum/internal/store"
	"probequorum/internal/strategy"
)

// evaluatorMaxSystems bounds the number of systems an Evaluator caches;
// beyond it the oldest entry is evicted. A WitnessTable holds 2^n bits,
// so the bound keeps long-lived sessions serving many ad-hoc systems from
// accumulating tables without limit.
const evaluatorMaxSystems = 64

// Evaluator is a measurement session: it memoizes per-system derived
// artifacts — the wide mask view, the dense WitnessTable, the
// availability failure-count polynomial, the exact PC and PPC_p values,
// optimized strategies and resilience — so repeated measures on the
// same system hit a cache instead of recomputing, which is the serving
// pattern the library is grown for.
//
// An Evaluator is safe for concurrent use. Systems are cached by
// interface identity, so callers should reuse the same System value
// across calls; systems of non-comparable dynamic types are evaluated
// correctly but never cached.
type Evaluator struct {
	trials      int
	seed        uint64
	parallelism int

	mu      sync.Mutex
	entries map[System]*evalEntry
	order   []System // insertion order, for eviction

	// specs maps canonical spec strings to their built System values, so
	// Queries naming the same construction — across one batch or across
	// requests of a long-lived server — share one artifact cache entry.
	specs     map[string]System
	specOrder []string // insertion order, for eviction

	// statsMu guards the single-flight accounting (see Stats).
	statsMu       sync.Mutex
	buildCount    map[string]uint64
	coalesceCount map[string]uint64
	hitCount      map[string]uint64
	missCount     map[string]uint64

	// artifacts is the persistent on-disk tier below the session memos
	// (nil: memory only) and near the approximate-answer cache (nil:
	// every answer exact). Both are optional, configured at construction
	// (see WithStore and WithApprox in cache.go), and consulted in the
	// fixed order memo → approx → store → compute.
	artifacts *store.Store
	approx    *approx.Cache
}

// evalEntry is the per-system cache. Its mutex guards the memo and the
// in-flight build registry only — it is never held while an expensive
// artifact builds; concurrent cold queries coalesce onto one detached
// single-flight build instead (see artifact).
type evalEntry struct {
	mu sync.Mutex

	// builds registers the in-flight single-flight artifact builds and
	// memo the completed ones, both by artifact key.
	builds map[artifactKey]*buildCall
	memo   map[artifactKey]outcome

	wide    WideMaskSystem
	wideErr error
	wideOK  bool

	// shared keys the system in the tiers shared across sessions, ""
	// when it has no canonical spec; set once, on first use.
	shared     string
	sharedOnce sync.Once
}

// sharedSpec returns the spec that keys sys in the tiers shared across
// sessions and processes (the store and the approximate cache), or ""
// when sys has none. Only a spec the registry rebuilds to an equal spec
// qualifies (spec.Canonical): a display spec such as an Explicit's
// "explicit:<name>" can name two different systems, and a record keyed
// by it would answer for the wrong one.
func (ent *evalEntry) sharedSpec(sys System) string {
	ent.sharedOnce.Do(func() { ent.shared, _ = spec.Canonical(sys) })
	return ent.shared
}

// EvaluatorOption configures an Evaluator.
type EvaluatorOption func(*Evaluator)

// WithTrials sets the Monte Carlo trial count used by
// EstimateAverageProbes (default 10000).
func WithTrials(trials int) EvaluatorOption {
	return func(e *Evaluator) { e.trials = trials }
}

// WithSeed sets the Monte Carlo PRNG seed (default 1). Estimates are
// reproducible for a fixed (trials, seed), independent of parallelism.
func WithSeed(seed uint64) EvaluatorOption {
	return func(e *Evaluator) { e.seed = seed }
}

// WithParallelism caps the worker goroutines of Monte Carlo estimation
// (default 0: GOMAXPROCS). Results are bit-identical for every setting.
func WithParallelism(workers int) EvaluatorOption {
	return func(e *Evaluator) { e.parallelism = workers }
}

// NewEvaluator returns a measurement session with the given options.
func NewEvaluator(opts ...EvaluatorOption) *Evaluator {
	e := &Evaluator{trials: 10000, seed: 1, entries: map[System]*evalEntry{}, specs: map[string]System{}}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// defaultEvaluator backs the package-level measure functions, so plain
// façade calls share one cache per process.
var defaultEvaluator = NewEvaluator()

// entry returns the per-system cache, creating (and, over capacity,
// evicting) as needed. Systems of non-comparable dynamic types cannot be
// map keys; they get a throwaway entry.
func (e *Evaluator) entry(sys System) *evalEntry {
	if sys == nil || !reflect.TypeOf(sys).Comparable() {
		return &evalEntry{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.entries[sys]; ok {
		return ent
	}
	if len(e.order) >= evaluatorMaxSystems {
		oldest := e.order[0]
		e.order = e.order[1:]
		delete(e.entries, oldest)
	}
	ent := &evalEntry{}
	e.entries[sys] = ent
	e.order = append(e.order, sys)
	return ent
}

// WideMaskView returns the cached wide word-level view of the system (the
// system itself when it implements WideMaskSystem natively, an
// enumeration adapter under the quorum.EnumerationBudget guard
// otherwise).
func (e *Evaluator) WideMaskView(sys System) (WideMaskSystem, error) {
	ent := e.entry(sys)
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if !ent.wideOK {
		ent.wide, ent.wideErr = quorum.WideMasked(sys)
		ent.wideOK = true
	}
	return ent.wide, ent.wideErr
}

// WitnessTable returns the cached dense characteristic-function table of
// the system (n <= 26).
func (e *Evaluator) WitnessTable(sys System) (*quorum.WitnessTable, error) {
	return e.WitnessTableCtx(context.Background(), sys)
}

// WitnessTableCtx is WitnessTable honoring cancellation, with the build
// single-flighted: any number of concurrent cold callers share exactly
// one build, and a caller whose ctx dies leaves the build to the rest.
func (e *Evaluator) WitnessTableCtx(ctx context.Context, sys System) (*quorum.WitnessTable, error) {
	return artifact(ctx, e, sys, artifactKey{kind: artifactTable}, func(ctx context.Context) (*quorum.WitnessTable, error) {
		return quorum.BuildWitnessTableCtx(ctx, sys)
	})
}

// isCtxErr distinguishes cancellation from permanent failures: the cache
// records only the latter, so an aborted build leaves the entry clean
// for the next caller.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Availability returns F_p(S). Systems with the ExactAvailability
// capability answer from their closed form; for others the session
// derives an availability polynomial from a witness table once — one
// coefficient per green count — and every later p is a Horner-style
// O(n) evaluation instead of a fresh 2^n enumeration. Only the n+1
// counts are memoized and persisted: the table they come from is built
// for the derivation and dropped with it. For systems with
// neither a closed form nor a table-sized universe exact availability
// does not exist, and this error-less form panics with the actionable
// bound error; use AvailabilityCtx to handle it gracefully.
func (e *Evaluator) Availability(sys System, p float64) float64 {
	// The background context is never done, so the only possible error is
	// the permanent exact-availability bound.
	v, err := e.AvailabilityCtx(context.Background(), sys, p)
	if err != nil {
		panic(err)
	}
	return v
}

// AvailabilityCtx is Availability honoring cancellation of the one-time
// polynomial derivation; a done ctx returns ctx.Err(). Closed-form
// systems never consult the context.
func (e *Evaluator) AvailabilityCtx(ctx context.Context, sys System, p float64) (float64, error) {
	if ea, ok := sys.(ExactAvailability); ok {
		return ea.AvailabilityIID(p), nil
	}
	// counts[g] is the number of g-element green sets containing no
	// quorum: the availability polynomial F_p = sum_g counts[g] q^g
	// p^(n-g).
	counts, err := artifact(ctx, e, sys, artifactKey{kind: artifactAvailPoly}, func(ctx context.Context) ([]float64, error) {
		table, err := quorum.BuildWitnessTableCtx(ctx, sys)
		if err != nil {
			return nil, err
		}
		return failCountsOf(ctx, table)
	})
	if err != nil {
		if isCtxErr(err) {
			return 0, err
		}
		// No table (universe too large) and no closed form: exact
		// availability is out of reach, so answer with the actionable
		// bound error instead of the enumeration panic of old.
		return 0, e.boundify(fmt.Errorf("exact availability of %s needs a witness table: %w", sys.Name(), err), sys)
	}
	n := sys.Size()
	q := 1 - p
	total := 0.0
	for g := 0; g <= n; g++ {
		if counts[g] != 0 {
			total += counts[g] * math.Pow(q, float64(g)) * math.Pow(p, float64(n-g))
		}
	}
	if total < 0 {
		return 0, nil
	}
	if total > 1 {
		return 1, nil
	}
	return total, nil
}

// failCountsOf tallies, per green count, the subsets without a quorum,
// checking ctx periodically along the 2^n scan.
func failCountsOf(ctx context.Context, table *quorum.WitnessTable) ([]float64, error) {
	n := table.Size()
	counts := make([]float64, n+1)
	for mask := uint64(0); mask < bitset.Pow2(n); mask++ {
		if mask&0xFFFF == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !table.Contains(mask) {
			counts[bits.OnesCount64(mask)]++
		}
	}
	return counts, nil
}

// ExpectedProbes returns the exact expected probe count of the system's
// deterministic strategy under IID(p) failures, via the ExactExpectation
// capability.
func (e *Evaluator) ExpectedProbes(sys System, p float64) (float64, error) {
	if ee, ok := sys.(ExactExpectation); ok {
		return ee.ExpectedProbesIID(p), nil
	}
	return 0, &UnsupportedError{What: "closed-form expected probes", Name: sys.Name(), Hint: "ExactExpectation"}
}

// ProbeComplexity returns the exact worst-case probe complexity PC(S),
// memoized and sharing the session's witness table.
func (e *Evaluator) ProbeComplexity(sys System) (int, error) {
	return e.ProbeComplexityCtx(context.Background(), sys)
}

// ProbeComplexityCtx is ProbeComplexity honoring cancellation of the
// minimax DP; an aborted solve returns ctx.Err() and caches nothing.
// The solve (and the table build under it) is single-flighted: N
// concurrent cold queries for PC(S) run one build, and a cancelled
// leader hands the build to the waiting followers. The DP bound is
// checked first, synchronously, so no deadline can turn it into a
// timeout.
func (e *Evaluator) ProbeComplexityCtx(ctx context.Context, sys System) (int, error) {
	if err := strategy.CheckUniverse(sys.Size()); err != nil {
		return 0, err
	}
	return artifact(ctx, e, sys, artifactKey{kind: artifactPC}, func(ctx context.Context) (int, error) {
		table, err := e.WitnessTableCtx(ctx, sys)
		if err != nil {
			return 0, err
		}
		return strategy.OptimalPCWithTableCtx(ctx, sys, table)
	})
}

// AverageProbeComplexity returns the exact probabilistic probe complexity
// PPC_p(S), memoized per (system, p) and sharing the session's witness
// table across distinct p.
func (e *Evaluator) AverageProbeComplexity(sys System, p float64) (float64, error) {
	return e.AverageProbeComplexityCtx(context.Background(), sys, p)
}

// AverageProbeComplexityCtx is AverageProbeComplexity honoring
// cancellation of the expectimax DP; an aborted solve returns ctx.Err()
// and caches nothing. The DP bound is checked first, as in
// ProbeComplexityCtx.
func (e *Evaluator) AverageProbeComplexityCtx(ctx context.Context, sys System, p float64) (float64, error) {
	if err := strategy.CheckUniverse(sys.Size()); err != nil {
		return 0, err
	}
	return artifact(ctx, e, sys, artifactKey{kind: artifactPPC, p: p}, func(ctx context.Context) (float64, error) {
		table, err := e.WitnessTableCtx(ctx, sys)
		if err != nil {
			return 0, err
		}
		return strategy.OptimalPPCWithTableCtx(ctx, sys, table, p)
	})
}

// OptimalStrategyTree materializes a worst-case-optimal probe strategy
// tree, sharing the session's witness table.
func (e *Evaluator) OptimalStrategyTree(sys System) (*StrategyNode, error) {
	return e.OptimalStrategyTreeCtx(context.Background(), sys)
}

// OptimalStrategyTreeCtx is OptimalStrategyTree honoring cancellation
// across the solve and the tree descent.
func (e *Evaluator) OptimalStrategyTreeCtx(ctx context.Context, sys System) (*StrategyNode, error) {
	if err := strategy.CheckUniverse(sys.Size()); err != nil {
		return nil, err
	}
	table, err := e.WitnessTableCtx(ctx, sys)
	if err != nil {
		return nil, err
	}
	return strategy.BuildOptimalPCWithTableCtx(ctx, sys, table)
}

// measuresAvailable lists the wire measure names that still work for sys
// at its size: the exact DPs up to strategy.MaxUniverse, the
// table-derived availability up to quorum.MaxTableUniverse (or the
// closed form at any size), the closed-form expectation, and Monte Carlo
// estimation whenever a probing strategy dispatches.
func measuresAvailable(sys System) []string {
	n := sys.Size()
	var out []string
	if n <= strategy.MaxUniverse {
		out = append(out, string(MeasurePC), string(MeasurePPC), string(MeasureTree))
	}
	if _, ok := sys.(ExactAvailability); ok || n <= quorum.MaxTableUniverse {
		out = append(out, string(MeasureAvailability))
	}
	if _, ok := sys.(ExactExpectation); ok {
		out = append(out, string(MeasureExpected))
	}
	if core.Resolve(sys, false) != nil {
		// The temporal engine schedules the same strategies the Monte
		// Carlo estimator runs, so the timed measures track it.
		out = append(out, string(MeasureEstimate),
			string(MeasureTimedTTQ), string(MeasureTimedReach), string(MeasureTimedInFlight))
	}
	if n <= quorum.MaxTableUniverse {
		out = append(out, string(MeasureLoad), string(MeasureCapacity))
	}
	if hasExactResilience(sys) || n <= quorum.MaxTableUniverse {
		out = append(out, string(MeasureResilience))
	}
	return out
}

// hasExactResilience reports whether both roles of the system's
// read/write view answer resilience in closed form (at any size).
func hasExactResilience(sys System) bool {
	rwv := rw.As(sys)
	_, rok := rwv.ReadRole().(quorum.ExactResilience)
	_, wok := rwv.WriteRole().(quorum.ExactResilience)
	return rok && wok
}

// boundify makes a bound error actionable: when err wraps a
// quorum.BoundError that does not yet name alternatives, the returned
// error's bound error lists the measures still available for sys. Other
// errors pass through unchanged.
func (e *Evaluator) boundify(err error, sys System) error {
	var be *quorum.BoundError
	if err == nil || !errors.As(err, &be) || len(be.Available) > 0 {
		return err
	}
	filled := &quorum.BoundError{Op: be.Op, N: be.N, Max: be.Max, Available: measuresAvailable(sys)}
	return joinBound{msg: err.Error(), bound: filled}
}

// joinBound keeps the original error text as context while exposing the
// filled-in BoundError to errors.As/Is chains.
type joinBound struct {
	msg   string
	bound *quorum.BoundError
}

func (j joinBound) Error() string { return j.msg + helpSuffix(j.bound) }
func (j joinBound) Unwrap() error { return j.bound }

// helpSuffix renders the still-available hint once (the wrapped bound
// error's own text is already inside msg, without alternatives).
func helpSuffix(be *quorum.BoundError) string {
	if len(be.Available) == 0 {
		return ""
	}
	return fmt.Sprintf("; still available at n = %d: %s", be.N, strings.Join(be.Available, ", "))
}

// EstimateAverageProbes estimates by simulation the average probes of the
// system's FindWitness strategy under IID(p) failures with the session's
// trials, seed and parallelism, returning the mean and the 95% confidence
// half-interval. The summary is bit-identical across parallelism
// settings.
func (e *Evaluator) EstimateAverageProbes(sys System, p float64) (mean, halfCI float64, err error) {
	return e.estimateCtx(context.Background(), sys, p, e.trials, e.seed)
}

// EstimateAverageProbesCtx is EstimateAverageProbes honoring
// cancellation of the trial loop; a done ctx aborts between trial chunks
// with ctx.Err().
func (e *Evaluator) EstimateAverageProbesCtx(ctx context.Context, sys System, p float64) (mean, halfCI float64, err error) {
	return e.estimateCtx(ctx, sys, p, e.trials, e.seed)
}

// estimateCtx is the fixed-budget Monte Carlo path with explicit trials
// and seed (Queries override the session's settings per request).
func (e *Evaluator) estimateCtx(ctx context.Context, sys System, p float64, trials int, seed uint64) (mean, half float64, err error) {
	s, err := e.estimateAdaptiveCtx(ctx, sys, p, trials, seed, nil)
	if err != nil {
		return 0, 0, err
	}
	return s.Mean, halfCI(s), nil
}

// halfCI is the 95% confidence half-interval of a summary.
func halfCI(s stats.Summary) float64 {
	lo, hi := s.CI95()
	return (hi - lo) / 2
}

// estimateAdaptiveCtx is the single Monte Carlo trial loop behind every
// estimate: fixed-budget runs pass a nil observer, streaming and
// tolerance-driven runs observe the in-order accumulation checkpoints
// (sim.Chunk) and may stop early. Every system runs on per-worker words
// oracles: the coloring and the probe log live in a few n/64-word
// buffers reused across every trial, and the rng is the worker's one
// generator, which sim reseeds per trial (valid only during the trial
// call), so a trial allocates nothing. Systems with the wide probing
// capability (all built-in constructions) run their words strategy,
// which assembles its witness in the oracle's arena with no per-probe
// heap allocation at any universe size (Probe_Maj probes a word at a
// time); any other system runs its
// FindWitness strategy against the same oracle. Both forms probe the
// same elements as FindWitness on a bitset oracle, and IIDWordsInto
// draws the same colorings as IIDInto, so summaries are bit-identical
// to a bitset trial loop (pinned by TestWideEstimateBitIdentical). A
// trial that panics fails the estimate with a *PanicError.
func (e *Evaluator) estimateAdaptiveCtx(ctx context.Context, sys System, p float64, maxTrials int, seed uint64, observe func(sim.Chunk) bool) (stats.Summary, error) {
	n := sys.Size()
	var trial func(rng *rand.Rand, o *probe.WordsOracle) float64
	if wp, ok := sys.(probe.WordsProber); ok {
		trial = func(rng *rand.Rand, o *probe.WordsOracle) float64 {
			coloring.IIDWordsInto(o.RedWords(), n, p, rng)
			o.Reset()
			wp.ProbeWitnessWords(o)
			return float64(o.Probes())
		}
	} else {
		run := core.Resolve(sys, false)
		if run == nil {
			return stats.Summary{}, &UnsupportedError{What: "strategy", Name: sys.Name(), Hint: "Prober or Finder"}
		}
		trial = func(rng *rand.Rand, o *probe.WordsOracle) float64 {
			coloring.IIDWordsInto(o.RedWords(), n, p, rng)
			o.Reset()
			run(o, nil)
			return float64(o.Probes())
		}
	}
	s, err := sim.EstimateAdaptiveCtx(ctx, maxTrials, seed, e.parallelism,
		func() *probe.WordsOracle { return probe.NewWordsOracle(n) }, trial, observe)
	return s, trialPanic("estimate trial", err)
}

// trialPanic maps a Monte Carlo trial panic to a *PanicError; other
// errors pass through unchanged.
func trialPanic(op string, err error) error {
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		return &PanicError{Op: op, Value: pe.Value}
	}
	return err
}

// estimateAvailabilityCtx Monte Carlo-estimates the failure probability
// F_p(S) as the mean of the no-live-quorum indicator over seeded IID
// colorings, with the harness's usual deterministic 95% CI — the
// graceful-degradation fallback when the exact availability polynomial
// cannot be derived inside a query's deadline budget. It needs a wide
// mask view (native on every built-in construction, an enumeration
// adapter within budget otherwise).
func (e *Evaluator) estimateAvailabilityCtx(ctx context.Context, sys System, p float64, trials int, seed uint64) (stats.Summary, error) {
	ws, err := e.WideMaskView(sys)
	if err != nil {
		return stats.Summary{}, err
	}
	n := sys.Size()
	type buffers struct{ red, green []uint64 }
	s, err := sim.EstimateAdaptiveCtx(ctx, trials, seed, e.parallelism,
		func() *buffers {
			w := quorum.WordCount(n)
			return &buffers{red: make([]uint64, w), green: make([]uint64, w)}
		},
		func(rng *rand.Rand, b *buffers) float64 {
			coloring.IIDWordsInto(b.red, n, p, rng)
			quorum.ComplementWordsInto(b.green, b.red, n)
			if ws.ContainsQuorumWords(b.green) {
				return 0
			}
			return 1
		}, nil)
	return s, trialPanic("availability trial", err)
}

// resolve maps a query to its System and canonical spec string. Systems
// given by value are used as-is; specs go through the construction
// registry with the built value cached by canonical spec, so every query
// naming the same construction shares one artifact cache entry.
func (e *Evaluator) resolve(q Query) (System, string, error) {
	if q.System != nil {
		s, _ := SpecOf(q.System)
		return q.System, s, nil
	}
	sys, err := spec.Parse(q.Spec)
	if err != nil {
		return nil, "", err
	}
	canonical, ok := SpecOf(sys)
	if !ok {
		// Not canonicalizable: evaluate without spec-level sharing.
		return sys, q.Spec, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, hit := e.specs[canonical]; hit {
		return cached, canonical, nil
	}
	if len(e.specOrder) >= evaluatorMaxSystems {
		oldest := e.specOrder[0]
		e.specOrder = e.specOrder[1:]
		delete(e.specs, oldest)
	}
	e.specs[canonical] = sys
	e.specOrder = append(e.specOrder, canonical)
	return sys, canonical, nil
}

// Do executes one Query against the session's caches: it is a fold of
// the Stream cells into one Result — the single evaluation path. The
// returned error is non-nil when the query is invalid, the spec does not
// parse, a requested measure fails, or ctx is done — cancellation
// surfaces as ctx.Err() (possibly wrapped) and leaves every cache
// consistent: later calls recompute as if the cancelled call never
// happened.
func (e *Evaluator) Do(ctx context.Context, q Query) (*Result, error) {
	results, err := FoldCells(e.Stream(ctx, q), 1)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// DoBatch executes the queries in parallel over the session's shared
// caches, fanning out across min(parallelism, len(queries)) workers
// (session parallelism 0 meaning GOMAXPROCS): it is a fold of the
// StreamBatch cells into per-query Results. It returns one Result per
// query in order; a query that fails for its own reasons yields a Result
// with Error set and does not disturb its batch mates. Cancelling ctx
// aborts the whole batch promptly with ctx.Err() and nil results.
func (e *Evaluator) DoBatch(ctx context.Context, queries []Query) ([]*Result, error) {
	return FoldCells(e.StreamBatch(ctx, queries), len(queries))
}
