package rw

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// Workload describes the traffic a strategy is evaluated against: the
// fraction of operations that are reads, and per-node read/write
// capacities (operations per unit time a node can serve in each role;
// nil means unit capacity everywhere). The induced load of node x under
// strategy sigma is
//
//	load(x) = fr * P[read quorum contains x] / read_capacity(x)
//	        + (1-fr) * P[write quorum contains x] / write_capacity(x)
//
// and the strategy's load is max_x load(x) — the utilization of the
// busiest node per unit of offered traffic, so 1/load is the system
// capacity, exactly the quoracle model.
type Workload struct {
	// ReadFraction is the fraction of operations that are reads, in
	// [0, 1].
	ReadFraction float64
	// ReadCapacity and WriteCapacity are per-node positive capacities
	// (length n), or nil for unit capacities.
	ReadCapacity  []float64
	WriteCapacity []float64
}

// Validate checks the workload against an n-element universe.
func (w Workload) Validate(n int) error {
	if !(w.ReadFraction >= 0 && w.ReadFraction <= 1) {
		return fmt.Errorf("rw: read fraction %v out of [0,1]", w.ReadFraction)
	}
	if err := validateCaps(w.ReadCapacity, n, "read"); err != nil {
		return err
	}
	return validateCaps(w.WriteCapacity, n, "write")
}

func validateCaps(caps []float64, n int, role string) error {
	if caps == nil {
		return nil
	}
	if len(caps) != n {
		return fmt.Errorf("rw: %d %s capacities for %d nodes", len(caps), role, n)
	}
	for i, c := range caps {
		if !(c > 0) || math.IsInf(c, 0) {
			return fmt.Errorf("rw: %s capacity of node %d is %v; want a positive finite value", role, i, c)
		}
	}
	return nil
}

func (w Workload) readCap(x int) float64 {
	if w.ReadCapacity == nil {
		return 1
	}
	return w.ReadCapacity[x]
}

func (w Workload) writeCap(x int) float64 {
	if w.WriteCapacity == nil {
		return 1
	}
	return w.WriteCapacity[x]
}

// Options configures strategy optimization: the workload to optimize
// for, and the resilience requirement F — when positive, the strategy's
// support is restricted to F-resilient quorums (sets that still contain
// a quorum after any F of their elements fail), so the strategy keeps
// its quorums live through F crashes.
type Options struct {
	Workload
	F int
}

// Key is the canonical cache key of the options — the memoization key
// of optimized strategies in an evaluation session.
func (o Options) Key() string {
	var b strings.Builder
	b.WriteString("fr=")
	b.WriteString(strconv.FormatFloat(o.ReadFraction, 'g', -1, 64))
	b.WriteString(";f=")
	b.WriteString(strconv.Itoa(o.F))
	writeCapsKey(&b, ";rc=", o.ReadCapacity)
	writeCapsKey(&b, ";wc=", o.WriteCapacity)
	return b.String()
}

func writeCapsKey(b *strings.Builder, prefix string, caps []float64) {
	b.WriteString(prefix)
	if caps == nil {
		b.WriteString("unit")
		return
	}
	for i, c := range caps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
}

// Strategy is a probability distribution over the read quorums and over
// the write quorums of a read/write system — what a deployment actually
// executes per operation. Single-role systems are represented as
// self-pairs, where both role distributions coincide.
type Strategy struct {
	n      int
	reads  []*bitset.Set
	readP  []float64
	writes []*bitset.Set
	writeP []float64
}

// NewStrategy builds a strategy from explicit role supports and aligned
// probabilities — the deserialization entry point of persisted optimizer
// results. The slices are adopted, not copied. Each probability vector
// must align with its support, hold finite non-negative values, and sum
// to 1 within float dust; every quorum must live in an n-element
// universe.
func NewStrategy(n int, reads []*bitset.Set, readP []float64, writes []*bitset.Set, writeP []float64) (*Strategy, error) {
	if err := validateRoleDist("read", n, reads, readP); err != nil {
		return nil, err
	}
	if err := validateRoleDist("write", n, writes, writeP); err != nil {
		return nil, err
	}
	return &Strategy{n: n, reads: reads, readP: readP, writes: writes, writeP: writeP}, nil
}

func validateRoleDist(role string, n int, qs []*bitset.Set, probs []float64) error {
	if len(qs) == 0 {
		return fmt.Errorf("rw: %s support is empty", role)
	}
	if len(qs) != len(probs) {
		return fmt.Errorf("rw: %d %s quorums against %d probabilities", len(qs), role, len(probs))
	}
	sum := 0.0
	for i, q := range qs {
		if q == nil || q.Len() != n {
			return fmt.Errorf("rw: %s quorum %d is not over an %d-element universe", role, i, n)
		}
		p := probs[i]
		if !(p >= 0) || math.IsInf(p, 0) {
			return fmt.Errorf("rw: %s probability %d is %v", role, i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("rw: %s probabilities sum to %v, want 1", role, sum)
	}
	return nil
}

// ReadQuorums returns the read support (not copied; do not mutate).
func (s *Strategy) ReadQuorums() []*bitset.Set { return s.reads }

// ReadProbs returns the read probabilities aligned with ReadQuorums.
func (s *Strategy) ReadProbs() []float64 { return s.readP }

// WriteQuorums returns the write support (not copied; do not mutate).
func (s *Strategy) WriteQuorums() []*bitset.Set { return s.writes }

// WriteProbs returns the write probabilities aligned with WriteQuorums.
func (s *Strategy) WriteProbs() []float64 { return s.writeP }

// NodeLoads returns the per-node load under the workload.
func (s *Strategy) NodeLoads(w Workload) ([]float64, error) {
	if err := w.Validate(s.n); err != nil {
		return nil, err
	}
	rl := make([]float64, s.n)
	wl := make([]float64, s.n)
	accumulate(rl, s.reads, s.readP)
	accumulate(wl, s.writes, s.writeP)
	loads := make([]float64, s.n)
	fr := w.ReadFraction
	for x := range loads {
		loads[x] = fr*rl[x]/w.readCap(x) + (1-fr)*wl[x]/w.writeCap(x)
	}
	return loads, nil
}

func accumulate(into []float64, qs []*bitset.Set, probs []float64) {
	for i, q := range qs {
		p := probs[i]
		if p == 0 {
			continue
		}
		q.ForEach(func(e int) bool {
			into[e] += p
			return true
		})
	}
}

// Load returns the maximum node load under the workload — the
// utilization of the busiest node per unit of offered traffic.
func (s *Strategy) Load(w Workload) (float64, error) {
	loads, err := s.NodeLoads(w)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// Capacity returns 1/Load — the peak throughput the strategy sustains
// under the workload before its busiest node saturates.
func (s *Strategy) Capacity(w Workload) (float64, error) {
	l, err := s.Load(w)
	if err != nil {
		return 0, err
	}
	if l <= 0 {
		return math.Inf(1), nil
	}
	return 1 / l, nil
}

// roleQuorums enumerates one role's strategy support: the minimal
// quorums, or the minimal f-resilient quorums when f > 0.
func roleQuorums(ctx context.Context, role quorum.System, f int) ([]*bitset.Set, error) {
	if f > 0 {
		return ResilientQuorums(ctx, role, f)
	}
	return quorum.EnumerateQuorums(role)
}

// Uniform returns the strategy that picks uniformly among each role's
// minimal quorums (f-resilient minimal quorums when opts.F > 0) — the
// baseline every optimizer run must beat or match.
func Uniform(sys quorum.System, opts Options) (*Strategy, error) {
	return UniformCtx(context.Background(), sys, opts)
}

// UniformCtx is Uniform honoring cancellation of the quorum (or
// f-resilient set) enumeration.
func UniformCtx(ctx context.Context, sys quorum.System, opts Options) (*Strategy, error) {
	if err := opts.Validate(sys.Size()); err != nil {
		return nil, err
	}
	rwv := As(sys)
	reads, writes, err := bothRoleQuorums(ctx, rwv, opts.F)
	if err != nil {
		return nil, err
	}
	return &Strategy{
		n:      sys.Size(),
		reads:  reads,
		readP:  uniformProbs(len(reads)),
		writes: writes,
		writeP: uniformProbs(len(writes)),
	}, nil
}

func bothRoleQuorums(ctx context.Context, rwv ReadWrite, f int) (reads, writes []*bitset.Set, err error) {
	reads, err = roleQuorums(ctx, rwv.ReadRole(), f)
	if err != nil {
		return nil, nil, fmt.Errorf("read role: %w", err)
	}
	if len(reads) == 0 {
		return nil, nil, fmt.Errorf("rw: read role of %s has no %s", rwv.Name(), supportName(f))
	}
	if sameRole(rwv.ReadRole(), rwv.WriteRole()) {
		writes = reads
	} else {
		writes, err = roleQuorums(ctx, rwv.WriteRole(), f)
		if err != nil {
			return nil, nil, fmt.Errorf("write role: %w", err)
		}
	}
	if len(writes) == 0 {
		return nil, nil, fmt.Errorf("rw: write role of %s has no %s", rwv.Name(), supportName(f))
	}
	return reads, writes, nil
}

// sameRole reports whether the two role views are one system, without
// tripping over non-comparable dynamic types.
func sameRole(a, b quorum.System) bool {
	if a == nil || b == nil {
		return a == b
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

func supportName(f int) string {
	if f > 0 {
		return fmt.Sprintf("%d-resilient quorums", f)
	}
	return "quorums"
}

func uniformProbs(k int) []float64 {
	probs := make([]float64, k)
	for i := range probs {
		probs[i] = 1 / float64(k)
	}
	return probs
}

// Optimize computes a load-optimal strategy for the system under the
// options: the distribution pair minimizing the maximum
// capacity-weighted node load at the given read fraction, over the
// (f-resilient) minimal quorums of both roles. The solver is exact — a
// primal simplex on the capacity LP
//
//	maximize  sum_R y_R            (the capacity)
//	s.t.      fr/rc(x) * sum_{R ∋ x} y_R
//	        + (1-fr)/wc(x) * sum_{W ∋ x} z_W <= 1   for every node x
//	          sum y = sum z,  y, z >= 0
//
// whose optimum C is the system capacity and whose normalized solution
// y/C, z/C is the optimal strategy, matching the Naor-Wool bound on
// single-role systems to float precision.
func Optimize(sys quorum.System, opts Options) (*Strategy, error) {
	return OptimizeCtx(context.Background(), sys, opts)
}

// OptimizeCtx is Optimize honoring cancellation of the enumeration and
// the simplex pivots.
func OptimizeCtx(ctx context.Context, sys quorum.System, opts Options) (*Strategy, error) {
	n := sys.Size()
	if err := opts.Validate(n); err != nil {
		return nil, err
	}
	rwv := As(sys)
	reads, writes, err := bothRoleQuorums(ctx, rwv, opts.F)
	if err != nil {
		return nil, err
	}
	nr, nw := len(reads), len(writes)
	cols := nr + nw
	fr := opts.ReadFraction
	// One row per node plus the two inequalities encoding sum y = sum z.
	A := make([][]float64, n+2)
	b := make([]float64, n+2)
	for x := 0; x < n; x++ {
		row := make([]float64, cols)
		rcoef := fr / opts.readCap(x)
		wcoef := (1 - fr) / opts.writeCap(x)
		for i, q := range reads {
			if q.Contains(x) {
				row[i] = rcoef
			}
		}
		for i, q := range writes {
			if q.Contains(x) {
				row[nr+i] = wcoef
			}
		}
		A[x] = row
		b[x] = 1
	}
	couple := make([]float64, cols)
	coupleNeg := make([]float64, cols)
	for i := 0; i < nr; i++ {
		couple[i], coupleNeg[i] = 1, -1
	}
	for i := nr; i < cols; i++ {
		couple[i], coupleNeg[i] = -1, 1
	}
	A[n], A[n+1] = couple, coupleNeg
	obj := make([]float64, cols)
	for i := 0; i < nr; i++ {
		obj[i] = 1
	}
	x, capacity, err := simplexMax(ctx, obj, A, b)
	if err != nil {
		return nil, fmt.Errorf("rw: optimizing %s: %w", sys.Name(), err)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("rw: optimizing %s: degenerate zero capacity", sys.Name())
	}
	s := &Strategy{
		n:      n,
		reads:  reads,
		readP:  normalizeProbs(x[:nr], capacity),
		writes: writes,
		writeP: normalizeProbs(x[nr:], capacity),
	}
	// The LP optimum can only match or beat the uniform baseline; keep
	// the guarantee airtight against float dust by comparing directly.
	u := &Strategy{n: n, reads: reads, readP: uniformProbs(nr), writes: writes, writeP: uniformProbs(nw)}
	sl, serr := s.Load(opts.Workload)
	ul, uerr := u.Load(opts.Workload)
	if serr == nil && uerr == nil && ul < sl {
		return u, nil
	}
	return s, nil
}

// normalizeProbs turns LP rates into a probability distribution, fixing
// the float drift so the probabilities sum to exactly 1.
func normalizeProbs(rates []float64, total float64) []float64 {
	probs := make([]float64, len(rates))
	sum := 0.0
	for i, r := range rates {
		p := r / total
		if p < 0 {
			p = 0
		}
		probs[i] = p
		sum += p
	}
	if sum > 0 {
		for i := range probs {
			probs[i] /= sum
		}
	}
	return probs
}

// LowerBound returns the Naor-Wool load lower bound max(1/c, c/n) of a
// single-role system with minimal quorum cardinality c: no strategy
// achieves a smaller maximum element load under unit capacities.
func LowerBound(sys quorum.System) float64 {
	c := float64(quorum.MinQuorumSize(sys))
	n := float64(sys.Size())
	return math.Max(1/c, c/n)
}
