// Package strategy computes exact probe complexities of quorum systems by
// dynamic programming over probe strategy trees (the decision trees of
// §2.3 of the paper).
//
// A knowledge state is the pair (greens, reds) of sets of elements probed
// so far with each outcome. A strategy may stop exactly when one of the
// two sets contains a quorum — for a nondominated coterie this is both
// necessary and sufficient for holding a witness. Over this state space
// the package computes:
//
//   - PC(S):     worst-case optimal probes (minimax; Lemma 2.2 evasiveness),
//   - PPC_p(S):  probabilistic-model optimal expected probes (expectimax),
//   - Yao bounds: the optimal deterministic expected probes against an
//     explicit input distribution, which by Yao's principle [20] lower
//     bounds the randomized probe complexity PCR(S).
//
// All computations are exponential in n and guarded for small universes;
// they exist to reproduce the paper's exact results (Fig. 4, Lemma 2.2,
// Theorems 3.9, 4.2, 4.6, 4.8) on verifiable instances.
//
// The dynamic programs run on the mask-native engine: knowledge states are
// uint64 element masks, the witness predicate is a precomputed 2^n-bit
// table (quorum.WitnessTable) so every "does this side hold a quorum?"
// check is one word-indexed bit test, and the memo is a dense
// base-3-indexed slice filled by parallel root-level branch expansion.
// The pre-engine map-based dynamic programs are retained in legacy.go as
// reference implementations for cross-validation and benchmarking.
package strategy

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
)

// MaxUniverse bounds the universe size accepted by the exact dynamic
// programs (the state space is 3^n). The mask-native engine raised it from
// the legacy bound of 16: the memo is always a dense base-3-indexed slice,
// whose 3^18 * 4 bytes ~ 1.5 GiB worst case replaces the multi-gigabyte,
// pointer-chasing map the legacy programs would need at this size.
const MaxUniverse = 18

// maxFloat64States bounds the full-precision PPC memo: universes with 3^n
// at most this many states (n <= 16) memoize float64 values; n = 17 and 18
// drop to float32 cells (~1e-7 relative error against exponentially more
// memory), which is far below any tolerance used at those sizes. It is a
// variable only so tests can force the float32 path on small universes.
var maxFloat64States = uint64(1) << 26

// parallelRootMin is the smallest universe for which the root-level branch
// expansion is spread across goroutines; below it the whole DP is cheaper
// than the goroutine handoff.
const parallelRootMin = 10

// engine carries the shared mask-native evaluation context: the universe,
// the dense witness predicate and the base-3 place values of each element.
// stop is the cancellation flag of the owning solve: the DP recursions
// poll it (one uncontended atomic load per state) and unwind with garbage
// values that the cancelled solver discards wholesale.
type engine struct {
	n       int
	full    uint64 // mask of the whole universe
	witness *quorum.WitnessTable
	pow3    [MaxUniverse]uint64 // pow3[e] = 3^e, the base-3 place value of element e
	stop    atomic.Bool
}

func newEngine(sys quorum.System) (*engine, error) {
	return newEngineWith(context.Background(), sys, nil)
}

// newEngineWith builds the evaluation context around a prebuilt witness
// table (nil to build one here, honoring ctx). Reusing a table across
// measures is the Evaluator session's cache hit: the 2^n-subset
// evaluation happens once per system instead of once per call.
func newEngineWith(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (*engine, error) {
	n := sys.Size()
	if n > MaxUniverse {
		return nil, &quorum.BoundError{Op: "strategy: exact probe-complexity DP", N: n, Max: MaxUniverse}
	}
	if table == nil {
		var err error
		table, err = quorum.BuildWitnessTableCtx(ctx, sys)
		if err != nil {
			return nil, err
		}
	} else if table.Size() != n {
		return nil, fmt.Errorf("strategy: witness table over %d elements does not match system over %d", table.Size(), n)
	}
	e := &engine{n: n, full: quorum.FullMask(n), witness: table}
	p := uint64(1)
	for i := 0; i < n; i++ {
		e.pow3[i] = p
		p *= 3
	}
	return e, nil
}

// watch arms the engine's stop flag from ctx, returning a release
// function for the watcher. The DPs poll the flag instead of ctx.Err()
// because a pointer-chasing context check per recursion step would
// dominate the hot loop.
func (e *engine) watch(ctx context.Context) (release func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	cancel := context.AfterFunc(ctx, func() { e.stop.Store(true) })
	return func() { cancel() }
}

// holdsWitness reports whether the mask's elements contain a quorum: one
// bit test against the precomputed table.
func (e *engine) holdsWitness(mask uint64) bool { return e.witness.Contains(mask) }

// states returns 3^n, the size of the knowledge state space.
func (e *engine) states() uint64 {
	if e.n == 0 {
		return 1
	}
	return 3 * e.pow3[e.n-1]
}

// key packs a knowledge state into one word for sparse memos (YaoBound's
// state space is pruned to the distribution support, so a map wins there).
func key(greens, reds uint64) uint64 { return greens<<MaxUniverse | reds }

// parallelExpand evaluates child, once per (element, outcome) pair of the
// root state, across GOMAXPROCS goroutines. The memo is shared and every
// state value is a pure function of the state, so concurrent duplication
// is harmless and the results are deterministic.
func (e *engine) parallelExpand(child func(elem int, red bool)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > 2*e.n {
		workers = 2 * e.n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= 2*e.n {
					return
				}
				child(t/2, t%2 == 1)
			}
		}()
	}
	wg.Wait()
}

// ppcSolver is the expectimax DP for PPC_p. The dense base-3-indexed memo
// stores the bit pattern of the state value — float64 cells up to
// maxFloat64States, float32 cells above. Zero means unset, which is sound
// because every memoized state needs at least one probe (witness states
// return early and are never stored). Cells are accessed atomically so
// parallel root expansion can share the table; every state value is a
// pure function of the state, so concurrent recomputation is benign and
// the result is deterministic.
type ppcSolver struct {
	eng  *engine
	p, q float64
	d64  []uint64
	d32  []uint32
}

func newPPCSolver(ctx context.Context, sys quorum.System, table *quorum.WitnessTable, p float64) (*ppcSolver, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("strategy: probability %v out of [0,1]", p)
	}
	eng, err := newEngineWith(ctx, sys, table)
	if err != nil {
		return nil, err
	}
	s := &ppcSolver{eng: eng, p: p, q: 1 - p}
	if n := eng.states(); n <= maxFloat64States {
		s.d64 = make([]uint64, n)
	} else {
		s.d32 = make([]uint32, n)
	}
	return s, nil
}

// value returns the optimal expected probes from the knowledge state
// (greens, reds); idx is the state's base-3 index, maintained
// incrementally along the recursion.
func (s *ppcSolver) value(greens, reds, idx uint64) float64 {
	e := s.eng
	if e.stop.Load() {
		// Cancelled: unwind immediately. The value is garbage, but the
		// whole solve is discarded, so nothing downstream reads it.
		return 0
	}
	if e.holdsWitness(greens) || e.holdsWitness(reds) {
		return 0
	}
	if s.d64 != nil {
		if b := atomic.LoadUint64(&s.d64[idx]); b != 0 {
			return math.Float64frombits(b)
		}
	} else if b := atomic.LoadUint32(&s.d32[idx]); b != 0 {
		return float64(math.Float32frombits(b))
	}
	best := float64(e.n + 1)
	for rest := e.full &^ (greens | reds); rest != 0; rest &= rest - 1 {
		el := bits.TrailingZeros64(rest)
		bit := bitset.Bit(el)
		p3 := e.pow3[el]
		v := 1 + s.q*s.value(greens|bit, reds, idx+p3) + s.p*s.value(greens, reds|bit, idx+2*p3)
		if v < best {
			best = v
		}
	}
	if s.d64 != nil {
		atomic.StoreUint64(&s.d64[idx], math.Float64bits(best))
	} else {
		atomic.StoreUint32(&s.d32[idx], math.Float32bits(float32(best)))
		// Return the rounded value so callers and later memo hits agree.
		best = float64(float32(best))
	}
	return best
}

// solve computes the root value, expanding the root's branches in
// parallel for universes big enough to amortize the goroutine handoff.
// A done ctx makes the recursion unwind promptly; the partial memo is
// then discarded and ctx.Err() returned.
func (s *ppcSolver) solve(ctx context.Context) (float64, error) {
	e := s.eng
	defer e.watch(ctx)()
	if e.n >= parallelRootMin {
		e.parallelExpand(func(el int, red bool) {
			bit := bitset.Bit(el)
			if red {
				s.value(0, bit, 2*e.pow3[el])
			} else {
				s.value(bit, 0, e.pow3[el])
			}
		})
	}
	v := s.value(0, 0, 0)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return v, nil
}

// OptimalPPC returns the probabilistic-model probe complexity PPC_p(S):
// the minimal expected probes over all probe strategy trees when every
// element independently fails (is red) with probability p.
func OptimalPPC(sys quorum.System, p float64) (float64, error) {
	return OptimalPPCWithTableCtx(context.Background(), sys, nil, p)
}

// OptimalPPCWithTableCtx is OptimalPPC running against a prebuilt witness
// table for the system (nil to build one), letting sessions amortize the
// table across repeated measures, and honoring cancellation: the
// expectimax recursion polls the context's cancellation flag and a done
// ctx aborts the solve promptly with ctx.Err().
func OptimalPPCWithTableCtx(ctx context.Context, sys quorum.System, table *quorum.WitnessTable, p float64) (float64, error) {
	s, err := newPPCSolver(ctx, sys, table, p)
	if err != nil {
		return 0, err
	}
	return s.solve(ctx)
}

// pcSolver is the minimax DP for PC. Like ppcSolver, zero marks an unset
// dense cell (every stored state needs at least one probe); PC values fit
// int32 with room to spare.
type pcSolver struct {
	eng   *engine
	dense []int32
}

func newPCSolver(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (*pcSolver, error) {
	eng, err := newEngineWith(ctx, sys, table)
	if err != nil {
		return nil, err
	}
	return &pcSolver{eng: eng, dense: make([]int32, eng.states())}, nil
}

func (s *pcSolver) value(greens, reds, idx uint64) int {
	e := s.eng
	if e.stop.Load() {
		// Cancelled: unwind immediately (see ppcSolver.value).
		return 0
	}
	if e.holdsWitness(greens) || e.holdsWitness(reds) {
		return 0
	}
	if v := atomic.LoadInt32(&s.dense[idx]); v != 0 {
		return int(v)
	}
	best := e.n + 1
	for rest := e.full &^ (greens | reds); rest != 0; rest &= rest - 1 {
		el := bits.TrailingZeros64(rest)
		bit := bitset.Bit(el)
		p3 := e.pow3[el]
		g := s.value(greens|bit, reds, idx+p3)
		r := s.value(greens, reds|bit, idx+2*p3)
		if r > g {
			g = r
		}
		if g+1 < best {
			best = g + 1
		}
	}
	atomic.StoreInt32(&s.dense[idx], int32(best))
	return best
}

func (s *pcSolver) solve(ctx context.Context) (int, error) {
	e := s.eng
	defer e.watch(ctx)()
	if e.n >= parallelRootMin {
		e.parallelExpand(func(el int, red bool) {
			bit := bitset.Bit(el)
			if red {
				s.value(0, bit, 2*e.pow3[el])
			} else {
				s.value(bit, 0, e.pow3[el])
			}
		})
	}
	v := s.value(0, 0, 0)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return v, nil
}

// OptimalPC returns the deterministic worst-case probe complexity PC(S):
// the depth of the best probe strategy tree. By Lemma 2.2, Maj, Wheel, CW
// and Tree are evasive (PC = n).
func OptimalPC(sys quorum.System) (int, error) {
	return OptimalPCWithTableCtx(context.Background(), sys, nil)
}

// OptimalPCWithTableCtx is OptimalPC running against a prebuilt witness
// table for the system (nil to build one), honoring cancellation: the
// minimax recursion polls the context's cancellation flag and a done ctx
// aborts the solve promptly with ctx.Err().
func OptimalPCWithTableCtx(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (int, error) {
	s, err := newPCSolver(ctx, sys, table)
	if err != nil {
		return 0, err
	}
	return s.solve(ctx)
}

// Node is a probe strategy tree node (the decision trees of Fig. 4).
// Internal nodes probe Element and branch on the outcome; leaves declare
// the witness color.
type Node struct {
	// Element is the probed element at an internal node, or -1 at a leaf.
	Element int
	// Leaf is the declared witness color at a leaf node.
	Leaf coloring.Color
	// OnGreen and OnRed are the children followed on each probe outcome.
	OnGreen, OnRed *Node
}

// IsLeaf reports whether the node declares a witness.
func (nd *Node) IsLeaf() bool { return nd.Element < 0 }

// Depth returns the maximal number of probes on any root-to-leaf path.
func (nd *Node) Depth() int {
	if nd.IsLeaf() {
		return 0
	}
	g, r := nd.OnGreen.Depth(), nd.OnRed.Depth()
	if r > g {
		g = r
	}
	return 1 + g
}

// ExpectedDepth returns the expected number of probes when every element
// is independently red with probability p.
func (nd *Node) ExpectedDepth(p float64) float64 {
	if nd.IsLeaf() {
		return 0
	}
	return 1 + (1-p)*nd.OnGreen.ExpectedDepth(p) + p*nd.OnRed.ExpectedDepth(p)
}

// Leaves returns the number of leaves of the tree.
func (nd *Node) Leaves() int {
	if nd.IsLeaf() {
		return 1
	}
	return nd.OnGreen.Leaves() + nd.OnRed.Leaves()
}

// Execute follows the strategy against the coloring, returning the leaf
// color and the number of probes performed.
func (nd *Node) Execute(col *coloring.Coloring) (coloring.Color, int) {
	probes := 0
	cur := nd
	for !cur.IsLeaf() {
		probes++
		if col.IsRed(cur.Element) {
			cur = cur.OnRed
		} else {
			cur = cur.OnGreen
		}
	}
	return cur.Leaf, probes
}

// BuildOptimalPC materializes an optimal worst-case probe strategy tree,
// breaking ties toward the lowest-index element (reproducing the natural
// Fig. 4 tree for Maj3). The solver is run once; the descent then only
// reads memoized values.
func BuildOptimalPC(sys quorum.System) (*Node, error) {
	return BuildOptimalPCWithTableCtx(context.Background(), sys, nil)
}

// BuildOptimalPCWithTableCtx is BuildOptimalPC running against a prebuilt
// witness table for the system (nil to build one), honoring cancellation
// across both the solve and the tree descent.
func BuildOptimalPCWithTableCtx(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (*Node, error) {
	s, err := newPCSolver(ctx, sys, table)
	if err != nil {
		return nil, err
	}
	if _, err := s.solve(ctx); err != nil {
		return nil, err
	}
	e := s.eng
	defer e.watch(ctx)()
	var build func(greens, reds, idx uint64) *Node
	build = func(greens, reds, idx uint64) *Node {
		if e.stop.Load() {
			return nil // cancelled: the caller reports ctx.Err()
		}
		if e.holdsWitness(greens) {
			return &Node{Element: -1, Leaf: coloring.Green}
		}
		if e.holdsWitness(reds) {
			return &Node{Element: -1, Leaf: coloring.Red}
		}
		target := s.value(greens, reds, idx)
		for rest := e.full &^ (greens | reds); rest != 0; rest &= rest - 1 {
			el := bits.TrailingZeros64(rest)
			bit := bitset.Bit(el)
			p3 := e.pow3[el]
			g := s.value(greens|bit, reds, idx+p3)
			r := s.value(greens, reds|bit, idx+2*p3)
			if r > g {
				g = r
			}
			if g+1 == target {
				return &Node{
					Element: el,
					OnGreen: build(greens|bit, reds, idx+p3),
					OnRed:   build(greens, reds|bit, idx+2*p3),
				}
			}
		}
		if e.stop.Load() {
			return nil // cancellation made the memoized values unusable
		}
		panic("strategy: no element achieves the memoized PC value")
	}
	root := build(0, 0, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return root, nil
}

// BuildOptimalPPC materializes a probe strategy tree attaining the optimal
// probabilistic-model expected probes at failure probability p, breaking
// ties toward the lowest-index element.
func BuildOptimalPPC(sys quorum.System, p float64) (*Node, error) {
	ctx := context.Background()
	s, err := newPPCSolver(ctx, sys, nil, p)
	if err != nil {
		return nil, err
	}
	if _, err := s.solve(ctx); err != nil {
		return nil, err
	}
	e := s.eng
	// The float32 memo rounds the stored target (~1e-7 relative), so the
	// recomputed float64 candidate of even the optimal element can exceed
	// it; widen the acceptance window to the memo's rounding error.
	tolerance := func(target float64) float64 {
		if s.d32 != nil {
			return 1e-6 * (target + 1)
		}
		return 1e-12
	}
	var build func(greens, reds, idx uint64) *Node
	build = func(greens, reds, idx uint64) *Node {
		if e.holdsWitness(greens) {
			return &Node{Element: -1, Leaf: coloring.Green}
		}
		if e.holdsWitness(reds) {
			return &Node{Element: -1, Leaf: coloring.Red}
		}
		target := s.value(greens, reds, idx)
		eps := tolerance(target)
		for rest := e.full &^ (greens | reds); rest != 0; rest &= rest - 1 {
			el := bits.TrailingZeros64(rest)
			bit := bitset.Bit(el)
			p3 := e.pow3[el]
			v := 1 + s.q*s.value(greens|bit, reds, idx+p3) + s.p*s.value(greens, reds|bit, idx+2*p3)
			if v <= target+eps {
				return &Node{
					Element: el,
					OnGreen: build(greens|bit, reds, idx+p3),
					OnRed:   build(greens, reds|bit, idx+2*p3),
				}
			}
		}
		panic("strategy: no element achieves the memoized PPC value")
	}
	return build(0, 0, 0), nil
}

// Validate checks that the strategy tree is a correct witness-finding
// strategy for the system: complete (both children at internal nodes, no
// repeated probes on a path) and sound (at every leaf, the elements probed
// with the declared color contain a quorum).
func Validate(sys quorum.System, root *Node) error {
	e, err := newEngine(sys)
	if err != nil {
		return err
	}
	var walk func(nd *Node, greens, reds uint64) error
	walk = func(nd *Node, greens, reds uint64) error {
		if nd == nil {
			return fmt.Errorf("strategy: missing child node")
		}
		if nd.IsLeaf() {
			mask := greens
			if nd.Leaf == coloring.Red {
				mask = reds
			}
			if !e.holdsWitness(mask) {
				return fmt.Errorf("strategy: leaf declares %s but probed %s elements contain no quorum", nd.Leaf, nd.Leaf)
			}
			return nil
		}
		if nd.Element >= e.n {
			return fmt.Errorf("strategy: element %d out of universe [0,%d)", nd.Element, e.n)
		}
		bit := bitset.Bit(nd.Element)
		if (greens|reds)&bit != 0 {
			return fmt.Errorf("strategy: element %d probed twice on a path", nd.Element)
		}
		if err := walk(nd.OnGreen, greens|bit, reds); err != nil {
			return err
		}
		return walk(nd.OnRed, greens, reds|bit)
	}
	return walk(root, 0, 0)
}

// YaoBound returns the expected probe count of the best deterministic
// strategy against the explicit input distribution dist. By Yao's
// principle this lower-bounds the randomized probe complexity PCR(S).
// The distribution weights must be nonnegative; they are normalized
// internally.
func YaoBound(sys quorum.System, dist []coloring.Weighted) (float64, error) {
	e, err := newEngine(sys)
	if err != nil {
		return 0, err
	}
	if len(dist) == 0 {
		return 0, fmt.Errorf("strategy: empty distribution")
	}
	// Precompute red masks of the support.
	type item struct {
		reds   uint64
		weight float64
	}
	items := make([]item, len(dist))
	total := 0.0
	for i, w := range dist {
		if w.Coloring.Size() != e.n {
			return 0, fmt.Errorf("strategy: distribution coloring %d has size %d, want %d", i, w.Coloring.Size(), e.n)
		}
		items[i] = item{reds: quorum.MaskOf(w.Coloring.RedSet()), weight: w.Weight}
		total += w.Weight
	}
	if total <= 0 {
		return 0, fmt.Errorf("strategy: distribution has zero total weight")
	}
	for i := range items {
		items[i].weight /= total
	}

	// The support reaching a state is a function of the state (the
	// colorings consistent with its outcomes), so memoizing by state alone
	// is sound.
	memo := make(map[uint64]float64)
	var value func(greens, reds uint64, support []item, mass float64) float64
	value = func(greens, reds uint64, support []item, mass float64) float64 {
		if e.holdsWitness(greens) || e.holdsWitness(reds) {
			return 0
		}
		if v, ok := memo[key(greens, reds)]; ok {
			return v
		}
		best := float64(e.n + 1)
		for rest := e.full &^ (greens | reds); rest != 0; rest &= rest - 1 {
			el := bits.TrailingZeros64(rest)
			bit := bitset.Bit(el)
			var greenItems, redItems []item
			var greenMass, redMass float64
			for _, it := range support {
				if it.reds&bit != 0 {
					redItems = append(redItems, it)
					redMass += it.weight
				} else {
					greenItems = append(greenItems, it)
					greenMass += it.weight
				}
			}
			v := 1.0
			if greenMass > 0 {
				v += greenMass / mass * value(greens|bit, reds, greenItems, greenMass)
			}
			if redMass > 0 {
				v += redMass / mass * value(greens, reds|bit, redItems, redMass)
			}
			if v < best {
				best = v
			}
		}
		memo[key(greens, reds)] = best
		return best
	}
	return value(0, 0, items, 1.0), nil
}
