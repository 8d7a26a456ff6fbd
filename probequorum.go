// Package probequorum is a library for building, probing and measuring
// quorum systems under processor failures, reproducing Hassin & Peleg,
// "Average probe complexity in quorum systems" (PODC 2001 / JCSS 2006).
//
// A quorum system is a family of pairwise intersecting subsets of a
// universe of processors. When processors fail, a client must find a
// witness before acting: either a live (green) quorum or — for a
// nondominated coterie — a failed (red) quorum proving that no live
// quorum exists. This package provides:
//
//   - the classic nondominated coterie constructions: Majority, Wheel,
//     Crumbling Walls (with Triang), the Tree system and the Hierarchical
//     Quorum System (HQS);
//   - the paper's probing algorithms for the probabilistic failure model
//     and the randomized worst-case model, behind FindWitness and
//     FindWitnessRandomized;
//   - exact measures: availability F_p, worst-case probe complexity PC,
//     probabilistic probe complexity PPC_p (exact for small universes),
//     and expected probe counts of the built-in strategies;
//   - a query-oriented evaluation API: a Query names a system, a measure
//     set and a p grid; Evaluator.Do and Evaluator.DoBatch execute
//     queries with context cancellation against cached per-system
//     artifacts and answer with JSON-stable Results — the same path
//     cmd/probeserved serves over HTTP and the client package consumes;
//   - a simulated fail-stop cluster with quorum-replicated registers and
//     quorum-based mutual exclusion built on witness search.
//
// See DESIGN.md for the system inventory and the Query API, and
// EXPERIMENTS.md for the reproduction of every table and figure of the
// paper.
package probequorum

import (
	"fmt"
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/cluster"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/render"
	"probequorum/internal/spec"
	"probequorum/internal/strategy"
	"probequorum/internal/systems"
)

// Core abstractions, re-exported from the internal packages.
type (
	// System is a quorum system over the universe {0, ..., Size()-1}.
	System = quorum.System
	// WideMaskSystem is the fast membership capability: the
	// characteristic function evaluated on a []uint64 word mask (one word
	// for universes of up to 64 elements), scaling every hot path to
	// universes of up to 4096 elements. All built-in constructions
	// implement it natively at every size.
	WideMaskSystem = quorum.WideMaskSystem
	// BoundError is the typed error of every engine bound: it names the
	// operation, the bound, the requested size and — when raised through
	// the Evaluator — the measures still available at that size.
	BoundError = quorum.BoundError
	// BudgetError reports a refused enumeration-based mask adaptation
	// (see quorum.EnumerationBudget).
	BudgetError = quorum.BudgetError
	// Finder locates quorums inside an allowed element set.
	Finder = quorum.Finder
	// Prober is the capability of systems that carry their own
	// deterministic witness-search strategy; FindWitness dispatches on it.
	Prober = probe.Prober
	// RandomizedProber is the capability of systems with their own
	// randomized worst-case strategy; FindWitnessRandomized dispatches on
	// it.
	RandomizedProber = probe.RandomizedProber
	// WordsProber is the wide-universe probing capability: the same
	// deterministic strategy probing a word-buffer oracle with no
	// per-probe allocation; the estimate measure dispatches on it.
	WordsProber = probe.WordsProber
	// ExactExpectation is the capability of systems with a closed-form
	// expected probe count under IID(p); ExpectedProbes dispatches on it.
	ExactExpectation = quorum.ExactExpectation
	// ExactAvailability is the capability of systems with a closed-form
	// failure probability F_p; Availability dispatches on it.
	ExactAvailability = quorum.ExactAvailability
	// Renderer is the capability of systems that draw their own ASCII
	// layout; RenderSystem dispatches on it.
	Renderer = quorum.Renderer
	// Specced is the capability of systems that report a canonical spec
	// string (see Parse).
	Specced = quorum.Specced
	// WitnessTable is the dense 2^n-bit characteristic function of a
	// system, the artifact Evaluator sessions cache across measures.
	WitnessTable = quorum.WitnessTable
	// Set is a set of universe elements.
	Set = bitset.Set
	// Color is the probed state of an element: Green (live) or Red
	// (failed).
	Color = coloring.Color
	// Coloring is a full failure pattern.
	Coloring = coloring.Coloring
	// Witness is a monochromatic quorum: the output of a probe strategy.
	Witness = probe.Witness
	// Oracle reveals element colors one probe at a time.
	Oracle = probe.Oracle
	// WordsOracle is the wide-universe oracle: coloring, probe log and
	// witness scratch all live in reusable word buffers.
	WordsOracle = probe.WordsOracle
	// WordsWitness is a monochromatic quorum as a wide mask, aliasing
	// oracle arena memory until the next Reset.
	WordsWitness = probe.WordsWitness
	// StrategyNode is a node of an explicit probe strategy (decision)
	// tree.
	StrategyNode = strategy.Node

	// Majority is the majority system over an odd universe.
	Majority = systems.Maj
	// Wheel is the hub-and-rim system.
	Wheel = systems.Wheel
	// CrumblingWall is the (n1, ..., nk)-CW family, including Triang.
	CrumblingWall = systems.CW
	// TreeSystem is the binary-tree coterie of Agrawal & El-Abbadi.
	TreeSystem = systems.Tree
	// HQS is Kumar's hierarchical quorum system.
	HQS = systems.HQS
	// Vote is a weighted-voting system (Thomas-style), generalizing
	// Majority and subsuming the Wheel.
	Vote = systems.Vote
	// RecMaj is the recursive m-ary majority system; RecMaj(3, h) is the
	// HQS.
	RecMaj = systems.RecMaj
	// ExplicitSystem is a quorum system given by an explicit list of
	// minimal quorums — the natural representation for ad-hoc systems.
	ExplicitSystem = quorum.Explicit

	// Cluster is a simulated set of fail-stop processors.
	Cluster = cluster.Cluster
	// Register is a quorum-replicated read/write register.
	Register = cluster.Register
	// DistMutex is quorum-based distributed mutual exclusion.
	DistMutex = cluster.Mutex
)

// Element colors.
const (
	Green = coloring.Green
	Red   = coloring.Red
)

// Cluster operation errors.
var (
	ErrNoLiveQuorum = cluster.ErrNoLiveQuorum
	ErrContended    = cluster.ErrContended
)

// NewMajority returns the majority system over n (odd) elements.
func NewMajority(n int) (*Majority, error) { return systems.NewMaj(n) }

// NewWheel returns the wheel system over n >= 3 elements.
func NewWheel(n int) (*Wheel, error) { return systems.NewWheel(n) }

// NewCrumblingWall returns the (widths[0], ..., widths[k-1])-CW system.
func NewCrumblingWall(widths []int) (*CrumblingWall, error) { return systems.NewCW(widths) }

// NewTriang returns the Triang system with k rows (row i has width i).
func NewTriang(k int) (*CrumblingWall, error) { return systems.NewTriang(k) }

// NewTree returns the tree system over a complete binary tree of the given
// height.
func NewTree(height int) (*TreeSystem, error) { return systems.NewTree(height) }

// NewHQS returns the hierarchical quorum system of the given height.
func NewHQS(height int) (*HQS, error) { return systems.NewHQS(height) }

// NewVote returns the weighted-voting system for the given positive
// weights (odd total).
func NewVote(weights []int) (*Vote, error) { return systems.NewVote(weights) }

// NewRecMaj returns the recursive m-ary majority system of the given
// height (m odd).
func NewRecMaj(m, height int) (*RecMaj, error) { return systems.NewRecMaj(m, height) }

// NewExplicit builds a system over n elements from an explicit list of
// minimal quorums (validated for intersection and minimality). Explicit
// systems take the generic probing and availability fallbacks; they
// cannot be rebuilt through Parse.
func NewExplicit(name string, n int, quorums []*Set) (*ExplicitSystem, error) {
	return quorum.NewExplicit(name, n, quorums)
}

// Parse builds a system from a declarative spec string: "maj:13",
// "wheel:8", "cw:1,3,2", "triang:5", "tree:3", "hqs:2",
// "vote:3,1,1,1,1" or "recmaj:3x2". Constructions registered through
// RegisterSpec parse the same way. Explicit systems cannot be rebuilt
// from a string, so "explicit:..." returns a descriptive error. Every
// built-in round-trips: Parse(s).(Specced).Spec() is the canonical form
// of s.
func Parse(s string) (System, error) { return spec.Parse(s) }

// MustParse is Parse for statically known specs; it panics on error.
func MustParse(s string) System { return spec.MustParse(s) }

// SpecOf returns the canonical spec string of the system via the Specced
// capability, and whether the system has one.
func SpecOf(sys System) (string, bool) { return spec.Of(sys) }

// SpecNames returns the registered construction names in sorted order.
func SpecNames() []string { return spec.Names() }

// RegisterSpec adds a construction to the spec registry under the given
// name, making it buildable through Parse ("name:args"). It panics on
// duplicate or malformed names and on a nil builder.
func RegisterSpec(name string, build func(arg string) (System, error)) {
	if build == nil {
		// Check here: the wrapping closure below would otherwise hide the
		// nil from spec.Register's guard until Parse time.
		panic(fmt.Sprintf("probequorum: nil spec builder for %q", name))
	}
	spec.Register(name, func(arg string) (quorum.System, error) { return build(arg) })
}

// Compose builds the coterie composition of an outer system with one inner
// system per outer element; composing nondominated coteries yields a
// nondominated coterie. The HQS is Compose(Maj3, [Maj3, Maj3, Maj3])
// applied recursively.
func Compose(outer System, inner []System) (System, error) {
	return quorum.NewComposite(outer, inner)
}

// AsWideMaskSystem returns a wide word-level view of the system: the
// system itself when it implements WideMaskSystem natively (every
// built-in construction, at every size), or a cached-enumeration adapter
// under the quorum.EnumerationBudget guard. It fails with a BoundError
// above 4096 elements.
func AsWideMaskSystem(sys System) (WideMaskSystem, error) { return quorum.WideMasked(sys) }

// MaskOfSet packs a set into a word mask (universes of at most 64
// elements).
func MaskOfSet(s *Set) uint64 { return quorum.MaskOf(s) }

// SetFromMask unpacks a word mask into a set over an n-element universe.
func SetFromMask(n int, mask uint64) *Set { return quorum.SetOfMask(n, mask) }

// NewSet returns an empty element set with capacity n.
func NewSet(n int) *Set { return bitset.New(n) }

// SetOf returns an element set of capacity n holding the given elements.
func SetOf(n int, elems ...int) *Set { return bitset.FromSlice(n, elems) }

// AllGreen returns an all-live coloring of n elements.
func AllGreen(n int) *Coloring { return coloring.New(n) }

// ColoringFromReds returns a coloring with exactly the listed elements
// failed.
func ColoringFromReds(n int, reds []int) *Coloring { return coloring.FromReds(n, reds) }

// IIDColoring draws a coloring where each element fails independently with
// probability p.
func IIDColoring(n int, p float64, rng *rand.Rand) *Coloring { return coloring.IID(n, p, rng) }

// IIDColoringWordsInto redraws a wide red mask in place under IID(p),
// consuming the same PRNG stream as IIDColoring (one Uint64 per element,
// red iff rng.Float64() would be below p); pair it with a WordsOracle's
// RedWords buffer in wide trial loops.
func IIDColoringWordsInto(dst []uint64, n int, p float64, rng *rand.Rand) {
	coloring.IIDWordsInto(dst, n, p, rng)
}

// NewOracle returns a probing oracle answering from the coloring, counting
// distinct probed elements.
func NewOracle(col *Coloring) Oracle { return probe.NewOracle(col) }

// VerifyWitness checks a witness against the system and true coloring.
func VerifyWitness(sys System, w Witness, col *Coloring) error {
	return probe.Verify(sys, w, col, nil)
}

// FindWitness locates a witness through the Prober capability — every
// built-in construction implements it with the paper's deterministic
// strategy (Probe_Maj, Probe_CW, Probe_Tree, Probe_HQS, the hub-first
// wheel scan, the weighted and m-ary majority scans) — falling back to a
// sequential scan for other systems that implement Finder. The scan stops
// on a green quorum or on a red set that meets every quorum, so it is
// right for any system: a read/write pair (rowa:, grid:, rw:) is searched
// as its read role, and a dominated family gets a red transversal where
// it holds no red quorum.
func FindWitness(sys System, o Oracle) (Witness, error) {
	if run := core.Resolve(sys, false); run != nil {
		return run(o, nil), nil
	}
	return Witness{}, &UnsupportedError{What: "strategy", Name: sys.Name(), Hint: "Prober or Finder"}
}

// FindWitnessRandomized locates a witness through the RandomizedProber
// capability — every built-in construction implements it with the
// paper's randomized worst-case strategy (R_Probe_Maj, R_Probe_CW,
// R_Probe_Tree, IR_Probe_HQS and their wheel/vote/recursive-majority
// counterparts) — falling back to a random scan for Finder systems.
func FindWitnessRandomized(sys System, o Oracle, rng *rand.Rand) (Witness, error) {
	if run := core.Resolve(sys, true); run != nil {
		return run(o, rng), nil
	}
	return Witness{}, &UnsupportedError{What: "strategy", Name: sys.Name(), Hint: "RandomizedProber or Finder"}
}

// NewWordsOracle returns a wide-universe oracle over an all-green
// coloring of n elements; redraw its RedWords buffer (for example with
// an IID draw) and Reset it between trials.
func NewWordsOracle(n int) *WordsOracle { return probe.NewWordsOracle(n) }

// FindWitnessWords locates a witness through the WordsProber capability
// (implemented by every built-in construction): the same strategy as
// FindWitness, probing the words oracle with no per-probe allocation.
// The witness aliases oracle arena memory until the next Reset.
func FindWitnessWords(sys System, o *WordsOracle) (WordsWitness, error) {
	if wp, ok := sys.(WordsProber); ok {
		return wp.ProbeWitnessWords(o), nil
	}
	return WordsWitness{}, &UnsupportedError{What: "wide strategy", Name: sys.Name(), Hint: "WordsProber"}
}

// FindWitnessWordsRandomized is FindWitnessRandomized on a words
// oracle: the same strategy, probes and rng draws, with the witness
// copied into the oracle's arena (valid until the next Reset).
func FindWitnessWordsRandomized(sys System, o *WordsOracle, rng *rand.Rand) (WordsWitness, error) {
	w, err := FindWitnessRandomized(sys, o, rng)
	if err != nil {
		return WordsWitness{}, err
	}
	words := o.AcquireWords()
	for i := range words {
		words[i] = w.Set.Word(i)
	}
	return WordsWitness{Color: w.Color, Words: words}, nil
}

// Availability returns F_p(S): the probability that no live quorum exists
// when every element fails independently with probability p. Systems with
// the ExactAvailability capability (all built-ins) answer from their
// closed form; others are enumerated through the default session, which
// caches an availability polynomial per system (small universes only) —
// beyond the table bound with no closed form it panics with the
// actionable BoundError (use Evaluator.AvailabilityCtx for an error
// instead).
func Availability(sys System, p float64) float64 {
	return defaultEvaluator.Availability(sys, p)
}

// ExpectedProbes returns the exact expected probe count of the strategy
// used by FindWitness under IID(p) failures, through the
// ExactExpectation capability (implemented by all built-ins).
func ExpectedProbes(sys System, p float64) (float64, error) {
	return defaultEvaluator.ExpectedProbes(sys, p)
}

// EstimateAverageProbes estimates by simulation the average probes of the
// FindWitness strategy under IID(p) failures, returning the mean and the
// 95% confidence half-interval. Trials run in parallel with each worker
// reusing one coloring and one oracle; the summary is bit-identical to the
// sequential loop for the same (trials, seed). Sessions configure the
// same estimate with WithTrials/WithSeed/WithParallelism options.
func EstimateAverageProbes(sys System, p float64, trials int, seed uint64) (mean, halfCI float64, err error) {
	return NewEvaluator(WithTrials(trials), WithSeed(seed)).EstimateAverageProbes(sys, p)
}

// ProbeComplexity returns the exact deterministic worst-case probe
// complexity PC(S) for small universes (the paper's evasiveness measure),
// memoized by the default session.
func ProbeComplexity(sys System) (int, error) { return defaultEvaluator.ProbeComplexity(sys) }

// AverageProbeComplexity returns the exact probabilistic probe complexity
// PPC_p(S) — the optimal expected probes over all adaptive strategies —
// for small universes. Results and the underlying WitnessTable are
// memoized by the default session; dedicated sessions (NewEvaluator)
// isolate their own caches.
func AverageProbeComplexity(sys System, p float64) (float64, error) {
	return defaultEvaluator.AverageProbeComplexity(sys, p)
}

// OptimalStrategyTree materializes a worst-case-optimal probe strategy
// tree for small universes, sharing the default session's witness table.
func OptimalStrategyTree(sys System) (*StrategyNode, error) {
	return defaultEvaluator.OptimalStrategyTree(sys)
}

// RenderStrategyTree draws a probe strategy tree as ASCII art in the
// paper's Fig. 4 notation.
func RenderStrategyTree(nd *StrategyNode) string { return render.StrategyTree(nd) }

// RenderSystem draws the system layout as ASCII art, bracketing the
// elements of highlight (which may be nil), through the Renderer
// capability (implemented by all seven built-in constructions).
func RenderSystem(sys System, highlight *Set) (string, error) {
	if r, ok := sys.(Renderer); ok {
		return r.RenderASCII(highlight), nil
	}
	return "", &UnsupportedError{What: "renderer", Name: sys.Name(), Hint: "Renderer"}
}

// CheckNondominated verifies by exhaustive enumeration (small universes)
// that the system is a nondominated coterie.
func CheckNondominated(sys System) error { return quorum.CheckND(sys) }

// NewCluster returns a simulated cluster of n live fail-stop processors.
func NewCluster(n int) *Cluster { return cluster.New(n) }

// NewRegister returns a quorum-replicated register over the cluster using
// the system's FindWitness strategy for quorum discovery.
func NewRegister(c *Cluster, sys System) (*Register, error) {
	search, err := clusterSearch(sys)
	if err != nil {
		return nil, err
	}
	return cluster.NewRegister(c, sys, search)
}

// NewDistMutex returns a quorum-based mutex over the cluster using the
// system's FindWitness strategy for quorum discovery.
func NewDistMutex(c *Cluster, sys System) (*DistMutex, error) {
	search, err := clusterSearch(sys)
	if err != nil {
		return nil, err
	}
	return cluster.NewMutex(c, sys, search)
}

func clusterSearch(sys System) (func(o probe.Oracle) probe.Witness, error) {
	// Validate the dispatch once so operations cannot fail on strategy
	// lookup later.
	if _, err := FindWitness(sys, probe.NewOracle(coloring.New(sys.Size()))); err != nil {
		return nil, err
	}
	return func(o probe.Oracle) probe.Witness {
		w, err := FindWitness(sys, o)
		if err != nil {
			panic(err) // unreachable: dispatch validated in the constructor
		}
		return w
	}, nil
}
