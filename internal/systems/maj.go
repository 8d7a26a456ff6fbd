package systems

import (
	"fmt"

	"probequorum/internal/bitset"
)

// Maj is the majority quorum system over an odd universe of n elements:
// the quorums are exactly the subsets of cardinality (n+1)/2, so it is
// the threshold family Choose((n+1)/2 of n), which it embeds. The
// embedded Choose supplies membership (bitset and words), enumeration,
// the finder, the threshold, the quorum sizes and the resilience. What
// belongs to Maj alone is its odd-n check, its name and spec, Probe_Maj
// (probing.go, probingwords.go, randomized.go), its closed forms
// (avail.go, expected.go) and its drawing (render.go).
type Maj struct {
	Choose
}

// NewMaj returns the majority system over n elements. n must be odd and
// positive: with even n two disjoint half-sets would violate intersection.
func NewMaj(n int) (*Maj, error) {
	if n <= 0 || n%2 == 0 {
		return nil, fmt.Errorf("systems: Maj requires odd positive n, got %d", n)
	}
	return &Maj{Choose{k: (n + 1) / 2, n: n}}, nil
}

// Name implements quorum.System.
func (m *Maj) Name() string { return fmt.Sprintf("Maj(%d)", m.n) }

// Quorums implements quorum.System by the embedded enumeration of all
// (n choose (n+1)/2) subsets. It panics for n > 25 where enumeration is
// infeasible, naming the Maj, since the embedded Choose would name
// itself.
func (m *Maj) Quorums() []*bitset.Set {
	if m.n > 25 {
		panic(fmt.Sprintf("systems: Maj.Quorums infeasible for n=%d", m.n))
	}
	return m.Choose.Quorums()
}
