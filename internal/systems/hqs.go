package systems

import (
	"fmt"

	"probequorum/internal/bitset"
)

// HQS is the hierarchical quorum system of Kumar [8]: the universe is the
// set of n = 3^h leaves of a complete ternary tree whose internal nodes are
// 2-of-3 majority gates, so it is RecMaj(3, h). The embedded RecMaj
// supplies membership, enumeration, the finder, the quorum sizes, the
// drawing (Fig. 3) and both generic strategies: its short-circuit gate
// evaluation is Probe_HQS (§3.4), and its random-order evaluation,
// hq.RecMaj.ProbeWitnessRandomized, is R_Probe_HQS (Fig. 7). What belongs
// to HQS alone is its name and spec, the Theorem 3.8 closed forms
// (avail.go, expected.go) and IR_Probe_HQS (Fig. 8, randomized.go).
//
// Subtrees are addressed by their half-open leaf range [start, start+size)
// with size a power of three.
type HQS struct {
	RecMaj
}

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
	return &HQS{RecMaj{m: 3, h: height, n: n}}, nil
}

// Name implements quorum.System.
func (q *HQS) Name() string { return fmt.Sprintf("HQS(h=%d,n=%d)", q.h, q.n) }

// Quorums implements quorum.System by the embedded enumeration:
// 3^(2^h - 1) minimal quorums. It panics for heights above 3, naming the
// HQS, since the embedded RecMaj would name itself.
func (q *HQS) Quorums() []*bitset.Set {
	if q.h > 3 {
		panic(fmt.Sprintf("systems: HQS.Quorums infeasible for height %d", q.h))
	}
	return q.RecMaj.Quorums()
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
