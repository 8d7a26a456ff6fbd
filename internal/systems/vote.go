package systems

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// Vote is a weighted-voting quorum system in the style of Thomas [18] and
// Garcia-Molina & Barbara [3]: element i carries weight w_i, and the
// quorums are the minimal sets whose total weight reaches a strict
// majority (W+1)/2 of the (odd) total W. With unit weights it is exactly
// the Maj system; with weights (n-2, 1, ..., 1) it is the Wheel.
type Vote struct {
	weights []int
	total   int

	// orderOnce/order cache the deterministic probe order (descending
	// weight, ties by index) so the hot trial loops do not re-sort per
	// witness search.
	orderOnce sync.Once
	order     []int
}

var (
	_ quorum.System = (*Vote)(nil)
	_ quorum.Finder = (*Vote)(nil)
)

// NewVote returns the weighted-voting system for the given positive
// weights. The total weight must be odd, which guarantees no ties and a
// nondominated coterie.
func NewVote(weights []int) (*Vote, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("systems: Vote requires at least one element")
	}
	total := 0
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("systems: Vote weight %d must be positive, got %d", i, w)
		}
		total += w
	}
	if total%2 == 0 {
		return nil, fmt.Errorf("systems: Vote requires odd total weight, got %d", total)
	}
	cp := make([]int, len(weights))
	copy(cp, weights)
	return &Vote{weights: cp, total: total}, nil
}

// Name implements quorum.System.
func (v *Vote) Name() string { return fmt.Sprintf("Vote(n=%d,W=%d)", len(v.weights), v.total) }

// Size implements quorum.System.
func (v *Vote) Size() int { return len(v.weights) }

// Weights returns a copy of the element weights.
func (v *Vote) Weights() []int {
	w := make([]int, len(v.weights))
	copy(w, v.weights)
	return w
}

// Threshold returns the majority weight (W+1)/2.
func (v *Vote) Threshold() int { return (v.total + 1) / 2 }

// Weight returns the total weight of the set.
func (v *Vote) Weight(s *bitset.Set) int {
	total := 0
	s.ForEach(func(e int) bool {
		total += v.weights[e]
		return true
	})
	return total
}

// ContainsQuorum implements quorum.System.
func (v *Vote) ContainsQuorum(s *bitset.Set) bool {
	return v.Weight(s) >= v.Threshold()
}

// Quorums implements quorum.System: the minimal majority-weight sets,
// enumerated by depth-first search. It panics for n > 25.
func (v *Vote) Quorums() []*bitset.Set {
	n := len(v.weights)
	if n > 25 {
		panic(fmt.Sprintf("systems: Vote.Quorums infeasible for n=%d", n))
	}
	t := v.Threshold()
	// suffix[i] is the total weight of elements i..n-1, for pruning.
	suffix := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + v.weights[i]
	}
	var out []*bitset.Set
	cur := bitset.New(n)
	var dfs func(i, weight, lightest int)
	dfs = func(i, weight, lightest int) {
		if weight >= t {
			// Minimal iff removing the lightest chosen element drops below
			// the threshold.
			if weight-lightest < t {
				out = append(out, cur.Clone())
			}
			return
		}
		if i == n || weight+suffix[i] < t {
			return
		}
		// Include i.
		cur.Add(i)
		nextLightest := lightest
		if v.weights[i] < nextLightest {
			nextLightest = v.weights[i]
		}
		dfs(i+1, weight+v.weights[i], nextLightest)
		cur.Remove(i)
		// Exclude i.
		dfs(i+1, weight, lightest)
	}
	dfs(0, 0, v.total+1)
	return out
}

// ContainsQuorumWords implements quorum.WideMaskSystem: a weighted scan
// over the set bits of every word, stopping at the bit that reaches the
// majority threshold.
func (v *Vote) ContainsQuorumWords(words []uint64) bool {
	t := v.Threshold()
	total := 0
	for i, w := range words {
		base := i * 64
		for ; w != 0; w &= w - 1 {
			total += v.weights[base+bits.TrailingZeros64(w)]
			if total >= t {
				return true
			}
		}
	}
	return false
}

// FindQuorumWithin implements quorum.Finder: greedily take the heaviest
// allowed elements until the threshold is reached, then drop redundant
// light elements to restore minimality.
func (v *Vote) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	t := v.Threshold()
	elems := allowed.Elements()
	sort.Slice(elems, func(i, j int) bool { return v.weights[elems[i]] > v.weights[elems[j]] })
	q := bitset.New(len(v.weights))
	weight := 0
	for _, e := range elems {
		q.Add(e)
		weight += v.weights[e]
		if weight >= t {
			break
		}
	}
	if weight < t {
		return nil, false
	}
	// Remove redundant elements, lightest first.
	for i := len(elems) - 1; i >= 0; i-- {
		e := elems[i]
		if q.Contains(e) && weight-v.weights[e] >= t {
			q.Remove(e)
			weight -= v.weights[e]
		}
	}
	return q, true
}
