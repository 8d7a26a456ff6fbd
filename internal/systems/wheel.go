package systems

import (
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// Wheel is the wheel system of [6]: element 0 is the hub, elements
// 1..n-1 form the rim. The quorums are {hub, r} for every rim element r,
// plus the full rim {1, ..., n-1}.
type Wheel struct {
	n int
}

var (
	_ quorum.System = (*Wheel)(nil)
	_ quorum.Finder = (*Wheel)(nil)
	_ quorum.Sized  = (*Wheel)(nil)
)

// NewWheel returns the wheel system over n >= 3 elements.
func NewWheel(n int) (*Wheel, error) {
	if n < 3 {
		return nil, fmt.Errorf("systems: Wheel requires n >= 3, got %d", n)
	}
	return &Wheel{n: n}, nil
}

// Name implements quorum.System.
func (w *Wheel) Name() string { return fmt.Sprintf("Wheel(%d)", w.n) }

// Size implements quorum.System.
func (w *Wheel) Size() int { return w.n }

// Hub returns the hub element index.
func (w *Wheel) Hub() int { return 0 }

// ContainsQuorum implements quorum.System.
func (w *Wheel) ContainsQuorum(s *bitset.Set) bool {
	if s.Contains(0) {
		return s.Count() >= 2 // hub plus any rim element
	}
	return s.Count() == w.n-1 // full rim
}

// MinQuorumSize implements quorum.Sized.
func (w *Wheel) MinQuorumSize() int { return 2 }

// MaxQuorumSize implements quorum.Sized.
func (w *Wheel) MaxQuorumSize() int { return w.n - 1 }

// Quorums implements quorum.System.
func (w *Wheel) Quorums() []*bitset.Set {
	out := make([]*bitset.Set, 0, w.n)
	for r := 1; r < w.n; r++ {
		out = append(out, bitset.FromSlice(w.n, []int{0, r}))
	}
	rim := bitset.New(w.n)
	rim.Fill()
	rim.Remove(0)
	out = append(out, rim)
	return out
}

// ContainsQuorumWords implements quorum.WideMaskSystem: the hub bit plus
// any rim bit, or a full-rim popcount.
func (w *Wheel) ContainsQuorumWords(words []uint64) bool {
	if words[0]&1 != 0 {
		if words[0]&^1 != 0 {
			return true // hub plus a rim element in the first word
		}
		for _, x := range words[1:] {
			if x != 0 {
				return true
			}
		}
		return false
	}
	return quorum.PopcountWords(words) == w.n-1 // full rim
}

// FindQuorumWithin implements quorum.Finder.
func (w *Wheel) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	if allowed.Contains(0) {
		if r := allowed.Next(1); r >= 0 {
			return bitset.FromSlice(w.n, []int{0, r}), true
		}
		return nil, false
	}
	if allowed.Count() == w.n-1 {
		return allowed.Clone(), true
	}
	return nil, false
}
