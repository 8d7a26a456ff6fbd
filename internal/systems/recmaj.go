package systems

import (
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// RecMaj is the recursive majority quorum system: the universe is the set
// of n = m^h leaves of a complete m-ary tree (m odd) whose internal nodes
// are strict-majority gates. RecMaj(3, h) is exactly Kumar's HQS; larger
// arities are the natural generalization the paper's §3.4 machinery
// suggests, included here as an extension.
//
// Every quorum has the uniform size ((m+1)/2)^h.
type RecMaj struct {
	m int
	h int
	n int
}

var (
	_ quorum.System = (*RecMaj)(nil)
	_ quorum.Finder = (*RecMaj)(nil)
	_ quorum.Sized  = (*RecMaj)(nil)
)

// NewRecMaj returns the recursive m-ary majority system of the given
// height. m must be odd and at least 3 (self-dual gates compose to a
// nondominated coterie); height 0 is a single element.
func NewRecMaj(m, height int) (*RecMaj, error) {
	if m < 3 || m%2 == 0 {
		return nil, fmt.Errorf("systems: RecMaj requires odd arity >= 3, got %d", m)
	}
	if height < 0 {
		return nil, fmt.Errorf("systems: RecMaj height must be nonnegative, got %d", height)
	}
	n := 1
	for i := 0; i < height; i++ {
		if n > 1<<20/m {
			return nil, fmt.Errorf("systems: RecMaj(%d, %d) universe too large", m, height)
		}
		n *= m
	}
	return &RecMaj{m: m, h: height, n: n}, nil
}

// Name implements quorum.System.
func (r *RecMaj) Name() string { return fmt.Sprintf("RecMaj(m=%d,h=%d,n=%d)", r.m, r.h, r.n) }

// Size implements quorum.System.
func (r *RecMaj) Size() int { return r.n }

// Arity returns the gate fan-in m.
func (r *RecMaj) Arity() int { return r.m }

// Height returns the gate-tree height.
func (r *RecMaj) Height() int { return r.h }

// GateThreshold returns the per-gate majority threshold (m+1)/2.
func (r *RecMaj) GateThreshold() int { return (r.m + 1) / 2 }

// QuorumSize returns the uniform quorum cardinality ((m+1)/2)^h.
func (r *RecMaj) QuorumSize() int {
	c := 1
	for i := 0; i < r.h; i++ {
		c *= r.GateThreshold()
	}
	return c
}

// MinQuorumSize implements quorum.Sized.
func (r *RecMaj) MinQuorumSize() int { return r.QuorumSize() }

// MaxQuorumSize implements quorum.Sized.
func (r *RecMaj) MaxQuorumSize() int { return r.QuorumSize() }

// ContainsQuorum implements quorum.System.
func (r *RecMaj) ContainsQuorum(s *bitset.Set) bool {
	return r.eval(0, r.n, s)
}

func (r *RecMaj) eval(start, size int, s *bitset.Set) bool {
	if size == 1 {
		return s.Contains(start)
	}
	sub := size / r.m
	cnt := 0
	for i := 0; i < r.m; i++ {
		if r.eval(start+i*sub, sub, s) {
			cnt++
			if cnt == r.GateThreshold() {
				return true
			}
		}
	}
	return false
}

// Quorums implements quorum.System by minterm enumeration. It panics when
// the count explodes (arity 3 up to height 3, arity 5 up to height 1).
func (r *RecMaj) Quorums() []*bitset.Set {
	count := r.countQuorums()
	if count < 0 || count > 1<<18 {
		panic(fmt.Sprintf("systems: RecMaj.Quorums infeasible for %s", r.Name()))
	}
	return r.enumerate(0, r.n)
}

// countQuorums returns the number of minimal quorums, or -1 on overflow:
// q(h) = C(m, t) * q(h-1)^t with t = (m+1)/2.
func (r *RecMaj) countQuorums() int {
	t := r.GateThreshold()
	choose := binom(r.m, t)
	count := 1
	for i := 0; i < r.h; i++ {
		// count' = choose * count^t
		next := choose
		for j := 0; j < t; j++ {
			if next > 1<<30/maxInt(count, 1) {
				return -1
			}
			next *= count
		}
		count = next
	}
	return count
}

func binom(n, k int) int {
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (r *RecMaj) enumerate(start, size int) []*bitset.Set {
	if size == 1 {
		return []*bitset.Set{bitset.FromSlice(r.n, []int{start})}
	}
	sub := size / r.m
	children := make([][]*bitset.Set, r.m)
	for i := 0; i < r.m; i++ {
		children[i] = r.enumerate(start+i*sub, sub)
	}
	t := r.GateThreshold()
	var out []*bitset.Set
	idx := make([]int, t)
	var chooseChildren func(from, taken int, chosen []int)
	chooseChildren = func(from, taken int, chosen []int) {
		if taken == t {
			r.crossProduct(children, chosen, 0, bitset.New(r.n), &out)
			return
		}
		for c := from; c <= r.m-(t-taken); c++ {
			chosen[taken] = c
			chooseChildren(c+1, taken+1, chosen)
		}
	}
	chooseChildren(0, 0, idx)
	return out
}

// crossProduct unions one quorum from each chosen child subtree.
func (r *RecMaj) crossProduct(children [][]*bitset.Set, chosen []int, i int, acc *bitset.Set, out *[]*bitset.Set) {
	if i == len(chosen) {
		*out = append(*out, acc.Clone())
		return
	}
	for _, q := range children[chosen[i]] {
		saved := acc.Clone()
		acc.UnionWith(q)
		r.crossProduct(children, chosen, i+1, acc, out)
		acc.Clear()
		acc.UnionWith(saved)
	}
}

// ContainsQuorumWords implements quorum.WideMaskSystem: the m-ary
// majority gate recursion over leaf ranges with word-bit tests.
func (r *RecMaj) ContainsQuorumWords(words []uint64) bool {
	return r.evalWords(0, r.n, words)
}

func (r *RecMaj) evalWords(start, size int, words []uint64) bool {
	if size == 1 {
		return quorum.WordBit(words, start)
	}
	sub := size / r.m
	cnt := 0
	for i := 0; i < r.m; i++ {
		if r.evalWords(start+i*sub, sub, words) {
			cnt++
			if cnt == r.GateThreshold() {
				return true
			}
		}
	}
	return false
}

// FindQuorumWithin implements quorum.Finder.
func (r *RecMaj) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	q := r.find(0, r.n, allowed)
	return q, q != nil
}

func (r *RecMaj) find(start, size int, allowed *bitset.Set) *bitset.Set {
	if size == 1 {
		if allowed.Contains(start) {
			return bitset.FromSlice(r.n, []int{start})
		}
		return nil
	}
	sub := size / r.m
	t := r.GateThreshold()
	var ok []*bitset.Set
	for i := 0; i < r.m && len(ok) < t; i++ {
		if s := r.find(start+i*sub, sub, allowed); s != nil {
			ok = append(ok, s)
		}
	}
	if len(ok) < t {
		return nil
	}
	u := bitset.New(r.n)
	for _, s := range ok {
		u.UnionWith(s)
	}
	return u
}
