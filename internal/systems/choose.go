package systems

import (
	"fmt"
	"math/bits"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// Choose is the k-of-n threshold family: its minimal quorums are exactly
// the k-element subsets of an n-element universe, so membership is a
// popcount. The majority system is Choose((n+1)/2 of n), which Maj
// embeds, and the two roles of read-one/write-all are Choose(1 of n) and
// Choose(n of n). The quorums of a Choose pairwise intersect only when
// 2k > n; as a read or write role it need not (ROWA reads do not).
type Choose struct {
	k, n int
}

var (
	_ quorum.System          = (*Choose)(nil)
	_ quorum.Finder          = (*Choose)(nil)
	_ quorum.Sized           = (*Choose)(nil)
	_ quorum.WideMaskSystem  = (*Choose)(nil)
	_ quorum.ExactResilience = (*Choose)(nil)
)

// NewChoose returns the family whose quorums are the k-subsets of
// {0..n-1}.
func NewChoose(k, n int) (*Choose, error) {
	if n < 1 || k < 1 || k > n {
		return nil, fmt.Errorf("systems: Choose needs 1 <= k <= n, got k=%d n=%d", k, n)
	}
	return &Choose{k: k, n: n}, nil
}

// Name implements quorum.System.
func (c *Choose) Name() string { return fmt.Sprintf("Choose(%d of %d)", c.k, c.n) }

// Size implements quorum.System.
func (c *Choose) Size() int { return c.n }

// Threshold returns the quorum cardinality k.
func (c *Choose) Threshold() int { return c.k }

// ContainsQuorum implements quorum.System.
func (c *Choose) ContainsQuorum(s *bitset.Set) bool { return s.Count() >= c.k }

// ContainsQuorumWords implements quorum.WideMaskSystem: the popcount of
// the words against the threshold, summed with no data-dependent exit. A
// one-word mask is one popcount and one compare, with no loop to keep
// state across the popcount's fallback call.
func (c *Choose) ContainsQuorumWords(words []uint64) bool {
	if len(words) == 1 {
		return bits.OnesCount64(words[0]) >= c.k
	}
	return quorum.PopcountWords(words) >= c.k
}

// Quorums implements quorum.System by enumerating the C(n, k) k-subsets
// in lexicographic order. It has no size guard of its own: Maj refuses
// n > 25, and read-one/write-all's roles list at most n subsets.
func (c *Choose) Quorums() []*bitset.Set {
	var out []*bitset.Set
	idx := make([]int, c.k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, bitset.FromSlice(c.n, idx))
		i := c.k - 1
		for i >= 0 && idx[i] == c.n-c.k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < c.k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// FindQuorumWithin implements quorum.Finder: the k lowest allowed
// elements.
func (c *Choose) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	if allowed.Count() < c.k {
		return nil, false
	}
	q := bitset.New(c.n)
	taken := 0
	allowed.ForEach(func(e int) bool {
		q.Add(e)
		taken++
		return taken < c.k
	})
	return q, true
}

// MinQuorumSize implements quorum.Sized.
func (c *Choose) MinQuorumSize() int { return c.k }

// MaxQuorumSize implements quorum.Sized.
func (c *Choose) MaxQuorumSize() int { return c.k }

// Resilience implements quorum.ExactResilience: n-k failures leave k
// live elements, a quorum, while n-k+1 leave none.
func (c *Choose) Resilience() int { return c.n - c.k }
