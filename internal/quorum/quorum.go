// Package quorum defines the core abstractions of the library: set systems,
// quorum systems, coteries and nondominated (ND) coteries over a finite
// universe U = {0, ..., n-1}, as in Hassin & Peleg, "Average probe
// complexity in quorum systems".
//
// A quorum system is a collection of pairwise intersecting subsets of U.
// A coterie additionally satisfies minimality (no quorum contains another).
// A coterie is nondominated if no other coterie dominates it; equivalently,
// its characteristic monotone boolean function is self-dual: for every
// 2-coloring of U, exactly one color class contains a quorum (Lemma 2.1 of
// the paper). Witness search does not assume it: a red witness is a set
// meeting every quorum, which for an ND coterie contains one. The
// equivalence is exposed here as checkable predicates (CheckND by
// enumeration, WitnessTable.SelfDual a word at a time).
package quorum

import (
	"errors"
	"fmt"

	"probequorum/internal/bitset"
)

// System is a quorum system over the universe {0, ..., Size()-1}.
//
// ContainsQuorum is the characteristic monotone boolean function f_S of the
// system (Definition 1 in the paper): it reports whether the given set is a
// superset of some quorum. Implementations must be monotone: if s ⊆ t and
// ContainsQuorum(s), then ContainsQuorum(t).
//
// Implementations must be safe for concurrent use by multiple goroutines:
// the measurement stack (sim.Estimate trial loops, the strategy DPs'
// parallel root expansion) evaluates systems from parallel workers. The
// built-in constructions are immutable after construction; avoid mutable
// scratch state in ContainsQuorum and friends.
type System interface {
	// Name returns a short human-readable identifier, e.g. "Maj(7)".
	Name() string

	// Size returns n, the number of elements in the universe.
	Size() int

	// ContainsQuorum reports whether s contains some quorum of the system.
	ContainsQuorum(s *bitset.Set) bool

	// Quorums enumerates the minimal quorums of the system. Intended for
	// small universes (verification, exact dynamic programs); the number of
	// minimal quorums may be exponential in n.
	Quorums() []*bitset.Set
}

// Finder is an optional interface for systems that can locate a quorum
// inside an allowed subset of the universe without enumerating all quorums.
// It is the structural primitive behind the universal probing algorithm and
// witness extraction.
type Finder interface {
	// FindQuorumWithin returns a quorum contained in allowed, if one exists.
	FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool)
}

// Sized is an optional interface for systems that know their extreme quorum
// cardinalities without enumeration.
type Sized interface {
	MinQuorumSize() int
	MaxQuorumSize() int
}

// ErrNotSelfDual is returned by CheckND when a coloring violates
// self-duality (both or neither color class contains a quorum).
var ErrNotSelfDual = errors.New("quorum: system is not a nondominated coterie (characteristic function is not self-dual)")

// IsIntersecting reports whether every pair of the given sets intersects
// (the quorum-system intersection property).
func IsIntersecting(sets []*bitset.Set) bool {
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if !sets[i].Intersects(sets[j]) {
				return false
			}
		}
	}
	return true
}

// IsAntichain reports whether no set contains another (the coterie
// minimality property). Equal sets count as a violation.
func IsAntichain(sets []*bitset.Set) bool {
	for i := 0; i < len(sets); i++ {
		for j := 0; j < len(sets); j++ {
			if i != j && sets[i].SubsetOf(sets[j]) {
				return false
			}
		}
	}
	return true
}

// IsCoterie reports whether the enumerated quorums of sys form a coterie:
// pairwise intersecting and minimal.
func IsCoterie(sys System) bool {
	qs := sys.Quorums()
	return len(qs) > 0 && IsIntersecting(qs) && IsAntichain(qs)
}

// IsTransversal reports whether r intersects every quorum of sys: the
// elements outside r contain none. A red transversal is a red witness.
func IsTransversal(sys System, r *bitset.Set) bool { return !sys.ContainsQuorum(r.Complement()) }

// Dominates reports whether coterie R dominates coterie S over the same
// universe: R != S and every quorum of S is a superset of some quorum of R.
func Dominates(r, s System) bool {
	rq, sq := r.Quorums(), s.Quorums()
	if sameFamily(rq, sq) {
		return false
	}
	for _, qs := range sq {
		covered := false
		for _, qr := range rq {
			if qr.SubsetOf(qs) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

func sameFamily(a, b []*bitset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x.Equal(y) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// CheckND verifies, by exhaustive enumeration of all 2^n colorings, that
// the system's characteristic function is self-dual, i.e. that the system
// is a nondominated coterie. It returns nil on success and a wrapped
// ErrNotSelfDual naming the first violating coloring otherwise.
//
// The cost is O(2^n * cost(ContainsQuorum)); callers should restrict it to
// small universes. For n > 30 an error is returned without checking.
func CheckND(sys System) error {
	n := sys.Size()
	if n > 30 {
		return fmt.Errorf("quorum: CheckND limited to n <= 30, got %d", n)
	}
	greens := bitset.New(n)
	for mask := uint64(0); mask < bitset.Pow2(n); mask++ {
		greens.Clear()
		for e := 0; e < n; e++ {
			if mask&bitset.Bit(e) != 0 {
				greens.Add(e)
			}
		}
		g := sys.ContainsQuorum(greens)
		r := sys.ContainsQuorum(greens.Complement())
		if g == r {
			return fmt.Errorf("coloring greens=%v: green=%v red=%v: %w",
				greens, g, r, ErrNotSelfDual)
		}
	}
	return nil
}

// Minimize returns the minimal sets of the family: every set that does not
// strictly contain another set of the family. Duplicates are collapsed.
func Minimize(sets []*bitset.Set) []*bitset.Set {
	var out []*bitset.Set
	for i, s := range sets {
		minimal := true
		for j, t := range sets {
			if i == j {
				continue
			}
			if t.SubsetOf(s) && !t.Equal(s) {
				minimal = false
				break
			}
			// Collapse duplicates: keep only the first occurrence.
			if t.Equal(s) && j < i {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s.Clone())
		}
	}
	return out
}

// Dual computes the dual system of sys: the family of minimal transversals
// (minimal hitting sets) of its quorums. A coterie is nondominated iff it
// equals its dual. Exponential; intended for small universes only.
func Dual(sys System) []*bitset.Set {
	n := sys.Size()
	qs := sys.Quorums()
	if n > 22 {
		panic(fmt.Sprintf("quorum: Dual limited to n <= 22, got %d", n))
	}
	var hitting []*bitset.Set
	s := bitset.New(n)
	for mask := uint64(0); mask < bitset.Pow2(n); mask++ {
		s.Clear()
		for e := 0; e < n; e++ {
			if mask&bitset.Bit(e) != 0 {
				s.Add(e)
			}
		}
		hits := true
		for _, q := range qs {
			if !q.Intersects(s) {
				hits = false
				break
			}
		}
		if hits {
			hitting = append(hitting, s.Clone())
		}
	}
	return Minimize(hitting)
}

// MinQuorumSize returns the smallest quorum cardinality of sys, preferring
// the Sized fast path when available.
func MinQuorumSize(sys System) int {
	if sz, ok := sys.(Sized); ok {
		return sz.MinQuorumSize()
	}
	best := sys.Size() + 1
	for _, q := range sys.Quorums() {
		if c := q.Count(); c < best {
			best = c
		}
	}
	return best
}

// MaxQuorumSize returns the largest quorum cardinality of sys, preferring
// the Sized fast path when available.
func MaxQuorumSize(sys System) int {
	if sz, ok := sys.(Sized); ok {
		return sz.MaxQuorumSize()
	}
	best := 0
	for _, q := range sys.Quorums() {
		if c := q.Count(); c > best {
			best = c
		}
	}
	return best
}

// Explicit is a quorum system given by an explicit list of minimal quorums.
// It is the reference implementation used to cross-validate the structural
// constructions, and the natural representation for ad-hoc systems. Built
// by NewFamily, it is one role of a read/write pair, whose quorums need
// not intersect each other.
type Explicit struct {
	name    string
	n       int
	quorums []*bitset.Set
	wide    wordFamily // wide masks of quorums, precomputed at every size
}

var (
	_ System         = (*Explicit)(nil)
	_ Finder         = (*Explicit)(nil)
	_ Sized          = (*Explicit)(nil)
	_ WideMaskSystem = (*Explicit)(nil)
)

// NewExplicit builds an explicit system over n elements with the given
// quorums (copied). It returns an error if the family is empty, any quorum
// is empty or out of range, or the family violates minimality or
// intersection.
func NewExplicit(name string, n int, quorums []*bitset.Set) (*Explicit, error) {
	e, err := NewFamily(name, n, quorums)
	if err != nil {
		return nil, err
	}
	if !IsIntersecting(e.quorums) {
		return nil, errors.New("quorum: family violates the intersection property")
	}
	return e, nil
}

// NewFamily builds the system over n elements whose minimal quorums are
// the given sets (copied), without requiring them to intersect: one role
// of a read/write pair, where intersection is a property of the pair
// (every read meets every write), not of either role. It returns an error
// if the family is empty, any set is empty or out of range, or the family
// violates minimality.
func NewFamily(name string, n int, quorums []*bitset.Set) (*Explicit, error) {
	if len(quorums) == 0 {
		return nil, errors.New("quorum: empty quorum family")
	}
	cp := make([]*bitset.Set, len(quorums))
	for i, q := range quorums {
		if q.Len() != n {
			return nil, fmt.Errorf("quorum: quorum %d has capacity %d, want %d", i, q.Len(), n)
		}
		if q.Empty() {
			return nil, fmt.Errorf("quorum: quorum %d is empty", i)
		}
		cp[i] = q.Clone()
	}
	if !IsAntichain(cp) {
		return nil, errors.New("quorum: family violates minimality (not an antichain)")
	}
	return &Explicit{name: name, n: n, quorums: cp, wide: newWordFamily(n, cp)}, nil
}

// Name implements System.
func (e *Explicit) Name() string { return e.name }

// Size implements System.
func (e *Explicit) Size() int { return e.n }

// ContainsQuorum implements System.
func (e *Explicit) ContainsQuorum(s *bitset.Set) bool {
	for _, q := range e.quorums {
		if q.SubsetOf(s) {
			return true
		}
	}
	return false
}

// Quorums implements System. The returned sets are copies.
func (e *Explicit) Quorums() []*bitset.Set {
	out := make([]*bitset.Set, len(e.quorums))
	for i, q := range e.quorums {
		out[i] = q.Clone()
	}
	return out
}

// ContainsQuorumWords implements WideMaskSystem by a subset scan over the
// precomputed wide quorum masks.
func (e *Explicit) ContainsQuorumWords(words []uint64) bool { return e.wide.anySubsetOf(words) }

// cachedQuorumWords marks Explicit as enumeration-backed so witness
// tables are built by seeding and upward closure rather than 2^n scans.
func (e *Explicit) cachedQuorumWords() wordFamily { return e.wide }

// FindQuorumWithin implements Finder.
func (e *Explicit) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	for _, q := range e.quorums {
		if q.SubsetOf(allowed) {
			return q.Clone(), true
		}
	}
	return nil, false
}

// MinQuorumSize implements Sized.
func (e *Explicit) MinQuorumSize() int {
	best := e.n + 1
	for _, q := range e.quorums {
		if c := q.Count(); c < best {
			best = c
		}
	}
	return best
}

// MaxQuorumSize implements Sized.
func (e *Explicit) MaxQuorumSize() int {
	best := 0
	for _, q := range e.quorums {
		if c := q.Count(); c > best {
			best = c
		}
	}
	return best
}
