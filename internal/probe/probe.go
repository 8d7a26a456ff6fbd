// Package probe provides the probing machinery of the paper: oracles that
// reveal element colors one probe at a time, probe accounting, and witness
// construction and verification.
//
// A witness is the object every probing algorithm must produce: either a
// green (live) quorum, or a red (failed) set that meets every quorum,
// proving that no live quorum exists. For a nondominated coterie such a
// red set contains a quorum (Lemma 2.1), so there the red witness is the
// paper's red quorum; for any other system (a read/write pair's read
// role, a dominated family) it may be a transversal holding none.
package probe

import (
	"errors"
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
)

// Oracle reveals the color of elements on demand. Probing the same element
// twice is permitted and must return the same color; implementations count
// only distinct elements (the paper's probe complexity counts distinct
// probed elements).
type Oracle interface {
	// Probe returns the color of element e.
	Probe(e int) coloring.Color
	// Probes returns the number of distinct elements probed so far.
	Probes() int
	// Probed returns a copy of the set of distinct elements probed so far.
	Probed() *bitset.Set
}

// ColoringOracle is an Oracle backed by a fixed coloring. It memoizes
// probes so that repeated probes of an element are counted once.
type ColoringOracle struct {
	col    *coloring.Coloring
	probed *bitset.Set
	order  []int
}

var _ Oracle = (*ColoringOracle)(nil)

// NewOracle returns an oracle answering probes from the given coloring.
// The coloring is not copied; it must not be mutated during use.
func NewOracle(col *coloring.Coloring) *ColoringOracle {
	return &ColoringOracle{col: col, probed: bitset.New(col.Size())}
}

// Probe implements Oracle.
func (o *ColoringOracle) Probe(e int) coloring.Color {
	if !o.probed.Contains(e) {
		o.probed.Add(e)
		o.order = append(o.order, e)
	}
	return o.col.Of(e)
}

// Probes implements Oracle.
func (o *ColoringOracle) Probes() int { return o.probed.Count() }

// Probed implements Oracle.
func (o *ColoringOracle) Probed() *bitset.Set { return o.probed.Clone() }

// Order returns the distinct probed elements in first-probe order.
func (o *ColoringOracle) Order() []int {
	out := make([]int, len(o.order))
	copy(out, o.order)
	return out
}

// Reset clears the probe log, keeping the underlying coloring.
func (o *ColoringOracle) Reset() {
	o.probed.Clear()
	o.order = o.order[:0]
}

// Witness is the output of a probing algorithm: a monochromatic set of
// probed elements that settles the system state.
type Witness struct {
	// Color is the common color of all witness elements: Green means the
	// witness is a live quorum, Red means it proves no live quorum exists.
	Color coloring.Color
	// Set contains the witness elements. A green set contains a quorum; a
	// red set meets every quorum, and for a nondominated coterie it
	// contains one (Lemma 2.1).
	Set *bitset.Set
}

// String implements fmt.Stringer.
func (w Witness) String() string {
	return fmt.Sprintf("%s quorum %v", w.Color, w.Set)
}

// Errors returned by Verify.
var (
	ErrWitnessNotQuorum  = errors.New("probe: witness does not settle the system (a green one must contain a quorum, a red one meet every quorum)")
	ErrWitnessWrongColor = errors.New("probe: witness contains an element of the wrong color")
	ErrWitnessUnprobed   = errors.New("probe: witness contains an element that was never probed")
)

// Verify checks a witness against the system and the true coloring: all
// its elements must have the claimed color, when probed is non-nil every
// one must have been probed, and it must settle the state — a green
// witness contains a quorum, and a red one meets every quorum (the
// elements outside it contain none). Such a witness always names the
// true state (StateOf), so a nil error means the witness is sound.
func Verify(sys quorum.System, w Witness, col *coloring.Coloring, probed *bitset.Set) error {
	if w.Set == nil {
		return fmt.Errorf("nil witness set: %w", ErrWitnessNotQuorum)
	}
	bad := -1
	w.Set.ForEach(func(e int) bool {
		if col.Of(e) != w.Color {
			bad = e
			return false
		}
		return true
	})
	if bad >= 0 {
		return fmt.Errorf("element %d is %s, witness claims %s: %w",
			bad, col.Of(bad), w.Color, ErrWitnessWrongColor)
	}
	if probed != nil && !w.Set.SubsetOf(probed) {
		return fmt.Errorf("witness %v, probed %v: %w", w.Set, probed, ErrWitnessUnprobed)
	}
	if w.Color == coloring.Red && !quorum.IsTransversal(sys, w.Set) ||
		w.Color != coloring.Red && !sys.ContainsQuorum(w.Set) {
		return fmt.Errorf("%s witness %v: %w", w.Color, w.Set, ErrWitnessNotQuorum)
	}
	return nil
}

// StateOf returns the system state under the given coloring: Green if the
// live elements contain a quorum, Red otherwise — then the failed elements
// meet every quorum, and for a nondominated coterie they contain one.
func StateOf(sys quorum.System, col *coloring.Coloring) coloring.Color {
	if sys.ContainsQuorum(col.GreenSet()) {
		return coloring.Green
	}
	return coloring.Red
}
