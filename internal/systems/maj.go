package systems

import (
	"fmt"
	"math/bits"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// Maj is the majority quorum system over an odd universe of n elements:
// the quorums are exactly the subsets of cardinality (n+1)/2.
type Maj struct {
	n int
}

var (
	_ quorum.System = (*Maj)(nil)
	_ quorum.Finder = (*Maj)(nil)
	_ quorum.Sized  = (*Maj)(nil)
)

// NewMaj returns the majority system over n elements. n must be odd and
// positive: with even n two disjoint half-sets would violate intersection.
func NewMaj(n int) (*Maj, error) {
	if n <= 0 || n%2 == 0 {
		return nil, fmt.Errorf("systems: Maj requires odd positive n, got %d", n)
	}
	return &Maj{n: n}, nil
}

// Name implements quorum.System.
func (m *Maj) Name() string { return fmt.Sprintf("Maj(%d)", m.n) }

// Size implements quorum.System.
func (m *Maj) Size() int { return m.n }

// Threshold returns the quorum cardinality (n+1)/2.
func (m *Maj) Threshold() int { return (m.n + 1) / 2 }

// ContainsQuorum implements quorum.System.
func (m *Maj) ContainsQuorum(s *bitset.Set) bool {
	return s.Count() >= m.Threshold()
}

// Resilience implements quorum.ExactResilience: any n - t failures
// leave exactly t = Threshold() live elements, which is still a quorum,
// while failing a full threshold can silence every quorum.
func (m *Maj) Resilience() int { return m.n - m.Threshold() }

// MinQuorumSize implements quorum.Sized.
func (m *Maj) MinQuorumSize() int { return m.Threshold() }

// MaxQuorumSize implements quorum.Sized.
func (m *Maj) MaxQuorumSize() int { return m.Threshold() }

// Quorums implements quorum.System by enumerating all (n choose (n+1)/2)
// subsets. It panics for n > 25 where enumeration is infeasible.
func (m *Maj) Quorums() []*bitset.Set {
	if m.n > 25 {
		panic(fmt.Sprintf("systems: Maj.Quorums infeasible for n=%d", m.n))
	}
	t := m.Threshold()
	var out []*bitset.Set
	idx := make([]int, t)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, bitset.FromSlice(m.n, idx))
		i := t - 1
		for i >= 0 && idx[i] == m.n-t+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < t; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// ContainsQuorumWords implements quorum.WideMaskSystem: the popcount of
// the words against the threshold, summed with no data-dependent exit. A
// one-word mask is one popcount and one compare, with no loop to keep
// state across the popcount's fallback call.
func (m *Maj) ContainsQuorumWords(words []uint64) bool {
	if len(words) == 1 {
		return bits.OnesCount64(words[0]) >= m.Threshold()
	}
	return quorum.PopcountWords(words) >= m.Threshold()
}

// FindQuorumWithin implements quorum.Finder: any Threshold() elements of
// allowed form a quorum.
func (m *Maj) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	t := m.Threshold()
	if allowed.Count() < t {
		return nil, false
	}
	q := bitset.New(m.n)
	taken := 0
	allowed.ForEach(func(e int) bool {
		q.Add(e)
		taken++
		return taken < t
	})
	return q, true
}
