package systems

import (
	"fmt"
	"sort"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// HQS is the hierarchical quorum system of Kumar [8]: the universe is the
// set of n = 3^h leaves of a complete ternary tree whose internal nodes are
// 2-of-3 majority gates. The quorums are the minterms of the resulting
// monotone boolean function; all quorums have the uniform size 2^h.
//
// Subtrees are addressed by their half-open leaf range [start, start+size)
// with size a power of three.
type HQS struct {
	h int
	n int
}

var (
	_ quorum.System = (*HQS)(nil)
	_ quorum.Finder = (*HQS)(nil)
	_ quorum.Sized  = (*HQS)(nil)
)

// NewHQS returns the hierarchical quorum system of the given height
// (height 0 is a single element).
func NewHQS(height int) (*HQS, error) {
	if height < 0 || height > 16 {
		return nil, fmt.Errorf("systems: HQS height must be in [0,16], got %d", height)
	}
	n := 1
	for i := 0; i < height; i++ {
		n *= 3
	}
	return &HQS{h: height, n: n}, nil
}

// Name implements quorum.System.
func (q *HQS) Name() string { return fmt.Sprintf("HQS(h=%d,n=%d)", q.h, q.n) }

// Size implements quorum.System.
func (q *HQS) Size() int { return q.n }

// Height returns the gate-tree height.
func (q *HQS) Height() int { return q.h }

// QuorumSize returns the uniform quorum cardinality c = 2^h.
func (q *HQS) QuorumSize() int { return 1 << uint(q.h) }

// MinQuorumSize implements quorum.Sized.
func (q *HQS) MinQuorumSize() int { return q.QuorumSize() }

// MaxQuorumSize implements quorum.Sized.
func (q *HQS) MaxQuorumSize() int { return q.QuorumSize() }

// ContainsQuorum implements quorum.System: the 2-of-3 gate tree evaluates
// to true on the indicator of s.
func (q *HQS) ContainsQuorum(s *bitset.Set) bool {
	return q.eval(0, q.n, s)
}

func (q *HQS) eval(start, size int, s *bitset.Set) bool {
	if size == 1 {
		return s.Contains(start)
	}
	third := size / 3
	cnt := 0
	for i := 0; i < 3; i++ {
		if q.eval(start+i*third, third, s) {
			cnt++
			if cnt == 2 {
				return true
			}
		}
	}
	return false
}

// Quorums implements quorum.System by recursive minterm enumeration:
// 3^((3^h - 1)/2) minimal quorums. It panics for heights above 3.
func (q *HQS) Quorums() []*bitset.Set {
	if q.h > 3 {
		panic(fmt.Sprintf("systems: HQS.Quorums infeasible for height %d", q.h))
	}
	return q.enumerate(0, q.n)
}

func (q *HQS) enumerate(start, size int) []*bitset.Set {
	if size == 1 {
		return []*bitset.Set{bitset.FromSlice(q.n, []int{start})}
	}
	third := size / 3
	children := make([][]*bitset.Set, 3)
	for i := 0; i < 3; i++ {
		children[i] = q.enumerate(start+i*third, third)
	}
	var out []*bitset.Set
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			for _, qa := range children[a] {
				for _, qb := range children[b] {
					u := qa.Clone()
					u.UnionWith(qb)
					out = append(out, u)
				}
			}
		}
	}
	return out
}

// ContainsQuorumWords implements quorum.WideMaskSystem: the 2-of-3 gate
// recursion over leaf ranges with word-bit tests, valid at every height
// the universe bound admits.
func (q *HQS) ContainsQuorumWords(words []uint64) bool {
	return q.evalWords(0, q.n, words)
}

func (q *HQS) evalWords(start, size int, words []uint64) bool {
	if size == 1 {
		return quorum.WordBit(words, start)
	}
	third := size / 3
	cnt := 0
	for i := 0; i < 3; i++ {
		if q.evalWords(start+i*third, third, words) {
			cnt++
			if cnt == 2 {
				return true
			}
		}
	}
	return false
}

// FindQuorumWithin implements quorum.Finder.
func (q *HQS) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	s := q.find(0, q.n, allowed)
	return s, s != nil
}

func (q *HQS) find(start, size int, allowed *bitset.Set) *bitset.Set {
	if size == 1 {
		if allowed.Contains(start) {
			return bitset.FromSlice(q.n, []int{start})
		}
		return nil
	}
	third := size / 3
	var ok []*bitset.Set
	for i := 0; i < 3; i++ {
		if sub := q.find(start+i*third, third, allowed); sub != nil {
			ok = append(ok, sub)
		}
	}
	if len(ok) < 2 {
		return nil
	}
	// All quorums have uniform size, so any two suffice; keep the order
	// deterministic for reproducibility.
	sort.Slice(ok, func(i, j int) bool { return ok[i].Next(0) < ok[j].Next(0) })
	u := ok[0].Clone()
	u.UnionWith(ok[1])
	return u
}

// SubtreeSize returns the number of leaves of a subtree at depth d from the
// root (0 <= d <= Height()).
func (q *HQS) SubtreeSize(d int) int {
	size := q.n
	for i := 0; i < d; i++ {
		size /= 3
	}
	return size
}
