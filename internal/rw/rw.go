// Package rw implements read/write quorum systems over the mask/wide-mask
// engine, in the style of "Read-Write Quorum Systems Made Practical"
// (quoracle): read quorums paired with write quorums whose duality —
// every read set intersects every write set — is checked mask-natively,
// plus the strategy machinery (distributions over both roles, a
// read-fraction-aware LP optimizer, load/capacity/resilience) that turns
// the paper's single-role measure calculator into a planner.
//
// The paper's constructions are single-role coteries; they lift into this
// package as self-pairs (reads = writes), and the genuinely two-role
// families — read-one/write-all and grid systems — get native structural
// role systems, so duality checks and membership tests scale to wide
// universes without enumeration.
package rw

import (
	"errors"
	"fmt"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// ReadWrite is the capability of a read/write quorum system: the value
// itself is the read role (a quorum.System whose quorums are the read
// quorums), and the two role accessors expose the native role systems
// for mask dispatch. Duality — every read quorum intersects every write
// quorum — is the invariant every constructor of this package
// establishes; CheckDuality verifies it for ad-hoc pairs.
type ReadWrite interface {
	quorum.System

	// ReadRole returns the read role as a standalone system.
	ReadRole() quorum.System
	// WriteRole returns the write role as a standalone system.
	WriteRole() quorum.System
}

// As lifts any quorum system into the read/write view: a system that
// already implements ReadWrite is returned as-is, and a single-role
// system becomes its self-pair (reads = writes = the system), which is
// dual exactly because a quorum system's quorums pairwise intersect.
func As(sys quorum.System) ReadWrite {
	if rwv, ok := sys.(ReadWrite); ok {
		return rwv
	}
	return &selfPair{sys}
}

// selfPair is the zero-cost read/write view of a single-role system.
type selfPair struct {
	quorum.System
}

func (s *selfPair) ReadRole() quorum.System  { return s.System }
func (s *selfPair) WriteRole() quorum.System { return s.System }

// Pair is a read/write quorum system built from two role systems over
// one universe. It implements quorum.System as the read role (so the
// whole single-role measure stack — witness tables, probe strategies,
// availability — applies to reads), with wide-mask and finder
// delegation falling back to total bitset paths when a role lacks the
// native capability.
type Pair struct {
	name   string
	spec   string
	n      int
	reads  quorum.System
	writes quorum.System
	// resilience is min(read, write) role resilience when known in
	// closed form at construction, else -1 (compute via Resilience).
	resilience int
}

var (
	_ quorum.System         = (*Pair)(nil)
	_ quorum.Finder         = (*Pair)(nil)
	_ quorum.Sized          = (*Pair)(nil)
	_ quorum.WideMaskSystem = (*Pair)(nil)
	_ ReadWrite             = (*Pair)(nil)
)

// newPair assembles a pair, deriving the closed-form resilience when
// both roles carry the ExactResilience capability.
func newPair(name, spec string, reads, writes quorum.System) *Pair {
	p := &Pair{name: name, spec: spec, n: reads.Size(), reads: reads, writes: writes, resilience: -1}
	if rr, ok := reads.(quorum.ExactResilience); ok {
		if wr, ok := writes.(quorum.ExactResilience); ok {
			p.resilience = min(rr.Resilience(), wr.Resilience())
		}
	}
	return p
}

// FromSingle wraps a single-role quorum system as the pair whose read
// and write quorums are both the system's quorums. Duality is inherited
// from the system's intersection property, so no check runs; the spec
// registry builds these from "rw:<inner spec>".
func FromSingle(sys quorum.System) *Pair {
	spec := ""
	if inner, ok := sys.(quorum.Specced); ok && inner.Spec() != "" {
		spec = "rw:" + inner.Spec()
	}
	return newPair(fmt.Sprintf("RW(%s)", sys.Name()), spec, sys, sys)
}

// ReadOneWriteAll returns the classic asymmetric pair over n elements:
// any single element is a read quorum, and the only write quorum is the
// full universe. Reads are as cheap and available as possible; a single
// failure blocks writes (resilience 0).
func ReadOneWriteAll(n int) (*Pair, error) {
	if n < 1 {
		return nil, fmt.Errorf("rw: read-one/write-all needs n >= 1, got %d", n)
	}
	reads, err := NewChoose(1, n)
	if err != nil {
		return nil, err
	}
	writes, err := NewChoose(n, n)
	if err != nil {
		return nil, err
	}
	return newPair(fmt.Sprintf("ROWA(%d)", n), fmt.Sprintf("rowa:%d", n), reads, writes), nil
}

// Grid returns the r x c grid pair (element e = row*c + col): a read
// quorum is any full row, a write quorum any transversal picking one
// element from every row. Duality is structural — a transversal meets
// every row, in particular the read's. Both roles are native wide-mask
// systems, so membership scales to wide universes even though the write
// role has c^r minimal quorums.
func Grid(r, c int) (*Pair, error) {
	if r < 1 || c < 1 {
		return nil, fmt.Errorf("rw: grid needs positive dimensions, got %dx%d", r, c)
	}
	if r*c > quorum.MaxWideUniverse {
		return nil, &quorum.BoundError{Op: "rw: grid", N: r * c, Max: quorum.MaxWideUniverse}
	}
	g := gridShape(r, c)
	return newPair(fmt.Sprintf("Grid(%dx%d)", r, c), fmt.Sprintf("grid:%dx%d", r, c),
		&gridRows{g}, &gridTransversal{g}), nil
}

// NewExplicitPair builds a pair from explicit read and write quorum
// lists over n elements. Each role must be a nonempty antichain of
// nonempty sets (within one role the sets need not intersect — ROWA
// reads do not), and the pair must be dual: every read quorum must
// intersect every write quorum. The duality check is mask-native: each
// write quorum's complement is tested against the read role's
// characteristic function.
func NewExplicitPair(name string, n int, reads, writes []*bitset.Set) (*Pair, error) {
	rr, err := quorum.NewFamily(name+" reads", n, reads)
	if err != nil {
		return nil, fmt.Errorf("rw: %s reads: %w", name, err)
	}
	wr, err := quorum.NewFamily(name+" writes", n, writes)
	if err != nil {
		return nil, fmt.Errorf("rw: %s writes: %w", name, err)
	}
	p := newPair(name, "", rr, wr)
	if err := CheckDuality(rr, wr); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements quorum.System.
func (p *Pair) Name() string { return p.name }

// Size implements quorum.System.
func (p *Pair) Size() int { return p.n }

// Spec implements quorum.Specced for pairs built from the registry
// grammar ("rw:maj:9", "grid:3x3", "rowa:9"); ad-hoc explicit pairs
// report an empty spec.
func (p *Pair) Spec() string { return p.spec }

// ReadRole implements ReadWrite.
func (p *Pair) ReadRole() quorum.System { return p.reads }

// WriteRole implements ReadWrite.
func (p *Pair) WriteRole() quorum.System { return p.writes }

// ContainsQuorum implements quorum.System as the read role.
func (p *Pair) ContainsQuorum(s *bitset.Set) bool { return p.reads.ContainsQuorum(s) }

// Quorums implements quorum.System: the minimal read quorums.
func (p *Pair) Quorums() []*bitset.Set { return p.reads.Quorums() }

// ContainsQuorumWords implements quorum.WideMaskSystem, delegating to the
// read role's native words path when it has one and falling back to the
// (total, slower) bitset evaluation otherwise.
func (p *Pair) ContainsQuorumWords(words []uint64) bool {
	if ws, ok := p.reads.(quorum.WideMaskSystem); ok {
		return ws.ContainsQuorumWords(words)
	}
	return p.reads.ContainsQuorum(quorum.SetOfWords(p.n, words))
}

// FindQuorumWithin implements quorum.Finder over the read role.
func (p *Pair) FindQuorumWithin(allowed *bitset.Set) (*bitset.Set, bool) {
	if f, ok := p.reads.(quorum.Finder); ok {
		return f.FindQuorumWithin(allowed)
	}
	for _, q := range p.reads.Quorums() {
		if q.SubsetOf(allowed) {
			return q, true
		}
	}
	return nil, false
}

// MinQuorumSize implements quorum.Sized over the read role.
func (p *Pair) MinQuorumSize() int { return quorum.MinQuorumSize(p.reads) }

// MaxQuorumSize implements quorum.Sized over the read role.
func (p *Pair) MaxQuorumSize() int { return quorum.MaxQuorumSize(p.reads) }

// CheckDuality verifies that every read quorum of the read role
// intersects every write quorum of the write role, i.e. that reads
// observe writes. The check is mask-native: the write quorums are
// enumerated (bounded by quorum.EnumerationBudget) and for each the
// wide-mask complement is tested against the read role's characteristic
// function — a read quorum inside the complement of a write quorum is
// exactly a read/write pair that misses each other.
func CheckDuality(reads, writes quorum.System) error {
	if reads.Size() != writes.Size() {
		return fmt.Errorf("rw: role universes differ: reads n=%d, writes n=%d", reads.Size(), writes.Size())
	}
	n := reads.Size()
	readView, err := quorum.WideMasked(reads)
	if err != nil {
		return fmt.Errorf("rw: duality check needs a wide mask view of the read role: %w", err)
	}
	writeQs, err := enumerateQuorums(writes)
	if err != nil {
		return fmt.Errorf("rw: duality check needs the write quorums enumerated: %w", err)
	}
	if len(writeQs) == 0 {
		return errors.New("rw: write role has no quorums")
	}
	comp := make([]uint64, quorum.WordCount(n))
	for _, w := range writeQs {
		quorum.ComplementWordsInto(comp, quorum.WordsOf(w), n)
		if readView.ContainsQuorumWords(comp) {
			return fmt.Errorf("rw: duality violated: some read quorum avoids write quorum %v", w)
		}
	}
	return nil
}

// enumerateQuorums is Quorums with the panics of enumeration-hostile
// systems (wide Maj, over-budget transversal roles) converted to errors,
// and the quorum.EnumerationBudget applied to the returned family.
func enumerateQuorums(sys quorum.System) (qs []*bitset.Set, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rw: enumerating the quorums of %s: %v", sys.Name(), r)
		}
	}()
	qs = sys.Quorums()
	if len(qs) > quorum.EnumerationBudget {
		return nil, &quorum.BudgetError{Name: sys.Name(), Count: len(qs), Budget: quorum.EnumerationBudget}
	}
	return qs, nil
}
