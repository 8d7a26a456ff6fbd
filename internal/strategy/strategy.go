// Package strategy computes exact probe complexities of quorum systems by
// dynamic programming over probe strategy trees (the decision trees of
// §2.3 of the paper).
//
// A knowledge state is the pair (greens, reds) of sets of elements probed
// so far with each outcome. A strategy may stop exactly when the state
// holds a witness: the greens contain a quorum, or the reds meet every
// quorum, that is, the elements not known red contain none. For a
// nondominated coterie the second test is the paper's "the reds contain a
// quorum" (Lemma 2.1), and it is right for every other system too. Over
// this state space the package computes:
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
// PC, PPC and their strategy trees run on one engine over the symmetry
// classes of the system's witness table (quorum.WitnessTable.Classes):
// elements that can be swapped without changing which sets hold a quorum
// are interchangeable, so a knowledge state only needs, per class, how
// many elements were probed green and how many red — the count states of
// the paper's grid walk (Lemma 2.4) and urn lemmas (2.8, 2.9). The stop
// test reads a small table indexed by the greens' or non-reds' counts,
// the memo is a dense slice over the packed count states, and each class
// with an unprobed element is one branch. Symmetric knowledge states
// share one value, computed by the same floating-point expression over
// the same child values, so the answers are bit-identical to a DP over
// all 3^n element states; with every class a singleton the engine is
// that DP, state for state. YaoBound and Validate walk element masks
// against the table directly.
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
// programs. It is checked on n alone, before any witness table exists, so
// it must cover a system without symmetry: all 3^n knowledge states, whose
// dense memo reaches 3^18 * 4 bytes ~ 1.5 GiB. Symmetric systems solve far
// fewer states (Maj(17) has 171, Wheel(18) 513), but only the table shows
// how few.
const MaxUniverse = 18

// CheckUniverse returns the exact dynamic programs' BoundError for an
// n-element universe, or nil when n is within MaxUniverse. Callers that
// build a witness table for a DP check it first, so an out-of-reach
// system never pays for a table.
func CheckUniverse(n int) error {
	if n > MaxUniverse {
		return &quorum.BoundError{Op: "strategy: exact probe-complexity DP", N: n, Max: MaxUniverse}
	}
	return nil
}

// maxFloat64States bounds the full-precision PPC memo: universes with 3^n
// at most this many element states (n <= 16) memoize float64 values;
// n = 17 and 18 drop to float32 cells (~1e-7 relative error against
// exponentially more memory), which is far below any tolerance used at
// those sizes. The rule stays keyed to 3^n, not to the class state count,
// so a symmetric system at n = 17-18 keeps the rounding its stored ppc
// records were computed with. It is a variable only so tests can force
// the float32 path on small universes.
var maxFloat64States = uint64(1) << 26

// parallelRootStates is the smallest state count for which the root-level
// branch expansion is spread across goroutines (3^10, the work of a
// 10-element system without symmetry); below it the whole DP is cheaper
// than the goroutine handoff.
const parallelRootStates = 59049

// singletonClasses makes the engine ignore the table's symmetry and run
// one class per element, the plain DP over all 3^n element states. It is
// a variable only so tests can compare the two partitions.
var singletonClasses = false

// state is a knowledge state over the classes: the probed elements, the
// count-vector indices of the greens and of the reds, and the state's
// memo index. Per class the (greens, reds) pair with t = greens + reds
// probed is packed triangularly as t(t+1)/2 + reds, so probing one more
// element of the class adds t+1 to its digit on green and t+2 on red; a
// singleton class has digits 0, 1 (green) and 2 (red), the base-3 place
// of the element. The engine probes a class's elements lowest first, so
// the probed elements of a class are always its t lowest and the element
// probed next fixes t: each element carries its own steps.
type state struct {
	probed, greens, reds, idx uint64
}

// step is what probing one element adds to a knowledge state.
type step struct {
	class      uint64 // the element's class
	count      uint64 // the class's place value in a count-vector index
	green, red uint64 // the state-index steps on either outcome
}

// engine carries the shared evaluation context of the class DPs: the
// partition, the stop table and the size of the state space. stop is the
// cancellation flag of the owning solve: the DP recursions poll it (one
// uncontended atomic load per state) and unwind with garbage values that
// the cancelled solver discards wholesale.
type engine struct {
	n      int
	full   uint64            // mask of the whole universe
	step   [MaxUniverse]step // the steps of each element
	holds  []uint64          // bit v: count vector v holds a quorum
	last   uint64            // index of the full count vector (the class sizes)
	states uint64            // number of knowledge states
	stop   atomic.Bool
}

// witnessTable checks the DP bound and returns the system's witness table:
// the prebuilt one after a size check, or one built here honoring ctx.
func witnessTable(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (*quorum.WitnessTable, error) {
	n := sys.Size()
	if err := CheckUniverse(n); err != nil {
		return nil, err
	}
	if table == nil {
		return quorum.BuildWitnessTableCtx(ctx, sys)
	}
	if table.Size() != n {
		return nil, fmt.Errorf("strategy: witness table over %d elements does not match system over %d", table.Size(), n)
	}
	return table, nil
}

// newEngine lays out the class state space of the system around a
// prebuilt witness table (nil to build one here, honoring ctx). Reusing a
// table across measures is the Evaluator session's cache hit: the
// 2^n-subset evaluation and the class derivation happen once per system
// instead of once per call.
func newEngine(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (*engine, error) {
	table, err := witnessTable(ctx, sys, table)
	if err != nil {
		return nil, err
	}
	n := table.Size()
	parts := table.Classes()
	if singletonClasses {
		parts = make([]uint64, n)
		for el := range parts {
			parts[el] = bitset.Bit(el)
		}
	}
	e := &engine{n: n, full: quorum.FullMask(n), states: 1}
	vectors := uint64(1)
	for _, m := range parts {
		size, t := uint64(bits.OnesCount64(m)), uint64(0)
		for rest := m; rest != 0; rest &= rest - 1 {
			green := (t + 1) * e.states
			e.step[bits.TrailingZeros64(rest)] = step{class: m, count: vectors, green: green, red: green + e.states}
			t++
		}
		e.states *= (size + 1) * (size + 2) / 2
		vectors *= size + 1
	}
	e.last = vectors - 1
	// Each count vector is looked up on one set with those counts, the
	// lowest elements of each class; by symmetry any other would answer
	// the same. The odometer steps the counts like digits, adding a
	// class's next element or clearing the class and carrying.
	e.holds = make([]uint64, (vectors+63)/64)
	var set uint64
	for v := uint64(0); v < vectors; v++ {
		if table.Contains(set) {
			e.holds[v>>6] |= bitset.Bit(int(v))
		}
		for _, m := range parts {
			if free := m &^ set; free != 0 {
				set |= free & -free
				break
			}
			set &^= m
		}
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

// settled is the DPs' one stop test: it reports whether the knowledge
// state holds a witness, and of which color — the greens hold a quorum,
// or the non-reds hold none. Each side is one bit test against the
// count-vector table; the non-reds' count vector is last - reds.
func (e *engine) settled(st state) (coloring.Color, bool) {
	if e.holds[st.greens>>6]&bitset.Bit(int(st.greens)) != 0 {
		return coloring.Green, true
	}
	if rest := e.last - st.reds; e.holds[rest>>6]&bitset.Bit(int(rest)) == 0 {
		return coloring.Red, true
	}
	return 0, false
}

// children returns the knowledge states after probing el green and red;
// el must be the lowest unprobed element of its class.
func (e *engine) children(st state, el int) (green, red state) {
	s := &e.step[el]
	probed := st.probed | bitset.Bit(el)
	return state{probed, st.greens + s.count, st.reds, st.idx + s.green},
		state{probed, st.greens, st.reds + s.count, st.idx + s.red}
}

// solve computes the root value of a DP whose recursion is value,
// expanding the root's branches in parallel when the state space is big
// enough to amortize the goroutine handoff. The memo is shared and every
// state value is a pure function of the state, so concurrent duplication
// is harmless and the result is deterministic. A done ctx makes the
// recursion unwind promptly; the partial memo is then discarded and
// ctx.Err() returned.
func solve[T any](ctx context.Context, e *engine, value func(state) T) (T, error) {
	defer e.watch(ctx)()
	if e.states >= parallelRootStates {
		// One task per root branch and outcome.
		var roots []state
		for rest := e.full; rest != 0; {
			el := bits.TrailingZeros64(rest)
			rest &^= e.step[el].class
			green, red := e.children(state{}, el)
			roots = append(roots, green, red)
		}
		workers := min(runtime.GOMAXPROCS(0), len(roots))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := int(next.Add(1)) - 1; t < len(roots); t = int(next.Add(1)) - 1 {
					value(roots[t])
				}
			}()
		}
		wg.Wait()
	}
	v := value(state{})
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// ppcSolver is the expectimax DP for PPC_p. The dense memo over the class
// states stores the bit pattern of the state value — float64 cells while
// 3^n is at most maxFloat64States, float32 cells above. Zero means unset,
// which is sound because every memoized state needs at least one probe
// (settled states return early and are never stored). Cells are accessed
// atomically so parallel root expansion can share the table.
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
	eng, err := newEngine(ctx, sys, table)
	if err != nil {
		return nil, err
	}
	s := &ppcSolver{eng: eng, p: p, q: 1 - p}
	if pow3(eng.n) <= maxFloat64States {
		s.d64 = make([]uint64, eng.states)
	} else {
		s.d32 = make([]uint32, eng.states)
	}
	return s, nil
}

// pow3 returns 3^n, the number of element knowledge states.
func pow3(n int) uint64 {
	p := uint64(1)
	for ; n > 0; n-- {
		p *= 3
	}
	return p
}

// value returns the optimal expected probes from the knowledge state.
func (s *ppcSolver) value(st state) float64 {
	e := s.eng
	if e.stop.Load() {
		// Cancelled: unwind immediately. The value is garbage, but the
		// whole solve is discarded, so nothing downstream reads it.
		return 0
	}
	if _, done := e.settled(st); done {
		return 0
	}
	if s.d64 != nil {
		if b := atomic.LoadUint64(&s.d64[st.idx]); b != 0 {
			return math.Float64frombits(b)
		}
	} else if b := atomic.LoadUint32(&s.d32[st.idx]); b != 0 {
		return float64(math.Float32frombits(b))
	}
	// One branch per class with an unprobed element, through its lowest
	// one: probing any other gives a symmetric state of the same value.
	best := float64(e.n + 1)
	for rest := e.full &^ st.probed; rest != 0; {
		// The children are built inline, as in children: returning them
		// from a call makes this loop measurably slower.
		el := bits.TrailingZeros64(rest)
		c := &e.step[el]
		rest &^= c.class
		probed := st.probed | bitset.Bit(el)
		v := 1 + s.q*s.value(state{probed, st.greens + c.count, st.reds, st.idx + c.green}) +
			s.p*s.value(state{probed, st.greens, st.reds + c.count, st.idx + c.red})
		if v < best {
			best = v
		}
	}
	if s.d64 != nil {
		atomic.StoreUint64(&s.d64[st.idx], math.Float64bits(best))
	} else {
		atomic.StoreUint32(&s.d32[st.idx], math.Float32bits(float32(best)))
		// Return the rounded value so callers and later memo hits agree.
		best = float64(float32(best))
	}
	return best
}

// probe returns the expected probes from the knowledge state when el is
// probed next and the rest is played optimally.
func (s *ppcSolver) probe(st state, el int) float64 {
	green, red := s.eng.children(st, el)
	return 1 + s.q*s.value(green) + s.p*s.value(red)
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
	return solve(ctx, s.eng, s.value)
}

// pcSolver is the minimax DP for PC. Like ppcSolver, zero marks an unset
// memo cell (every stored state needs at least one probe); PC values fit
// int32 with room to spare.
type pcSolver struct {
	eng  *engine
	memo []int32
}

func newPCSolver(ctx context.Context, sys quorum.System, table *quorum.WitnessTable) (*pcSolver, error) {
	eng, err := newEngine(ctx, sys, table)
	if err != nil {
		return nil, err
	}
	return &pcSolver{eng: eng, memo: make([]int32, eng.states)}, nil
}

func (s *pcSolver) value(st state) int {
	e := s.eng
	if e.stop.Load() {
		// Cancelled: unwind immediately (see ppcSolver.value).
		return 0
	}
	if _, done := e.settled(st); done {
		return 0
	}
	if v := atomic.LoadInt32(&s.memo[st.idx]); v != 0 {
		return int(v)
	}
	best := e.n + 1
	for rest := e.full &^ st.probed; rest != 0; {
		el := bits.TrailingZeros64(rest)
		c := &e.step[el]
		rest &^= c.class
		probed := st.probed | bitset.Bit(el)
		g := s.value(state{probed, st.greens + c.count, st.reds, st.idx + c.green})
		r := s.value(state{probed, st.greens, st.reds + c.count, st.idx + c.red})
		best = min(best, 1+max(g, r))
	}
	atomic.StoreInt32(&s.memo[st.idx], int32(best))
	return best
}

// probe returns the worst-case probes from the knowledge state when el is
// probed next and the rest is played optimally.
func (s *pcSolver) probe(st state, el int) int {
	green, red := s.eng.children(st, el)
	return 1 + max(s.value(green), s.value(red))
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
	return solve(ctx, s.eng, s.value)
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
	if _, err := solve(ctx, s.eng, s.value); err != nil {
		return nil, err
	}
	e := s.eng
	defer e.watch(ctx)()
	root := descend(e, "PC", func(st state) func(el int) bool {
		target := s.value(st)
		return func(el int) bool { return s.probe(st, el) == target }
	})
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
	if _, err := solve(ctx, s.eng, s.value); err != nil {
		return nil, err
	}
	// The float32 memo rounds the stored target (~1e-7 relative), so the
	// recomputed float64 candidate of even the optimal element can exceed
	// it; widen the acceptance window to the memo's rounding error.
	tolerance := func(target float64) float64 {
		if s.d32 != nil {
			return 1e-6 * (target + 1)
		}
		return 1e-12
	}
	return descend(s.eng, "PPC", func(st state) func(el int) bool {
		target := s.value(st)
		eps := tolerance(target)
		return func(el int) bool { return s.probe(st, el) <= target+eps }
	}), nil
}

// descend builds the strategy tree from the solved memo. At each
// unsettled state it tries the lowest unprobed element of each class in
// index order and probes the first one optimal(st) accepts. Every other
// unprobed element leads to states symmetric to those of its class's
// lowest one, which comes earlier in index order, so the probed element
// is the lowest-index optimal one. It returns nil once the engine's stop
// flag is set; measure names the solved value in the panic of a state no
// element attains.
func descend(e *engine, measure string, optimal func(st state) func(el int) bool) *Node {
	var build func(st state) *Node
	build = func(st state) *Node {
		if e.stop.Load() {
			return nil // cancelled: the caller reports ctx.Err()
		}
		if color, done := e.settled(st); done {
			return &Node{Element: -1, Leaf: color}
		}
		accept := optimal(st)
		for rest := e.full &^ st.probed; rest != 0; {
			el := bits.TrailingZeros64(rest)
			rest &^= e.step[el].class
			if accept(el) {
				green, red := e.children(st, el)
				return &Node{Element: el, OnGreen: build(green), OnRed: build(red)}
			}
		}
		if e.stop.Load() {
			return nil // cancellation made the memoized values unusable
		}
		panic("strategy: no element achieves the memoized " + measure + " value")
	}
	return build(state{})
}

// Validate checks that the strategy tree is a correct witness-finding
// strategy for the system: complete (both children at internal nodes, no
// repeated probes on a path) and sound (at every green leaf the greens
// contain a quorum, and at every red leaf the reds meet every quorum).
func Validate(sys quorum.System, root *Node) error {
	table, err := witnessTable(context.Background(), sys, nil)
	if err != nil {
		return err
	}
	n := table.Size()
	full := quorum.FullMask(n)
	var walk func(nd *Node, greens, reds uint64) error
	walk = func(nd *Node, greens, reds uint64) error {
		if nd == nil {
			return fmt.Errorf("strategy: missing child node")
		}
		if nd.IsLeaf() {
			if nd.Leaf == coloring.Red && table.Contains(full&^reds) ||
				nd.Leaf != coloring.Red && !table.Contains(greens) {
				return fmt.Errorf("strategy: leaf declares %s but its probes do not prove it", nd.Leaf)
			}
			return nil
		}
		if nd.Element >= n {
			return fmt.Errorf("strategy: element %d out of universe [0,%d)", nd.Element, n)
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

// key packs a knowledge state into one word for sparse memos (YaoBound's
// state space is pruned to the distribution support, so a map wins there).
func key(greens, reds uint64) uint64 { return greens<<MaxUniverse | reds }

// YaoBound returns the expected probe count of the best deterministic
// strategy against the explicit input distribution dist, stopping where
// the DPs do. By Yao's principle this lower-bounds the randomized probe
// complexity PCR(S). The distribution weights must be nonnegative; they
// are normalized internally.
func YaoBound(sys quorum.System, dist []coloring.Weighted) (float64, error) {
	table, err := witnessTable(context.Background(), sys, nil)
	if err != nil {
		return 0, err
	}
	n := table.Size()
	full := quorum.FullMask(n)
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
		if w.Coloring.Size() != n {
			return 0, fmt.Errorf("strategy: distribution coloring %d has size %d, want %d", i, w.Coloring.Size(), n)
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
		if table.Contains(greens) || !table.Contains(full&^reds) {
			return 0
		}
		if v, ok := memo[key(greens, reds)]; ok {
			return v
		}
		best := float64(n + 1)
		for rest := full &^ (greens | reds); rest != 0; rest &= rest - 1 {
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
