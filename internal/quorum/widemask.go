package quorum

import (
	"fmt"
	"math/bits"
	"strings"

	"probequorum/internal/bitset"
)

// MaxWideUniverse bounds the universe size of the wide mask engine: every
// structural membership test scales to arbitrary n, but the serving stack
// sizes its per-worker word buffers, probe logs and witness scratch from
// n, so the engine draws an explicit line well above any deployed quorum
// system instead of degrading without warning.
const MaxWideUniverse = 4096

// WideMaskSystem is the fast form of a system's characteristic function:
// ContainsQuorum evaluated on a little-endian []uint64 element mask (bit e
// of the mask is words[e/64]>>(e%64)&1), sharing the internal/bitset word
// layout. A universe of at most MaskWords elements is a one-word slice.
// It is the capability every hot path dispatches on, at every size.
//
// ContainsQuorumWords must agree with ContainsQuorum on the indicator set
// of the words. Callers pass exactly WordCount(Size()) words with no bits
// at or above Size(); implementations may read but never retain or mutate
// the slice.
//
// All built-in constructions implement WideMaskSystem natively at every
// size; WideMasked adapts any other System by enumerating its minimal
// quorums, guarded by EnumerationBudget.
type WideMaskSystem interface {
	System

	// ContainsQuorumWords reports whether the indicator set of the word
	// mask contains a quorum.
	ContainsQuorumWords(words []uint64) bool
}

// WordCount returns the number of 64-bit words of a wide mask over an
// n-element universe: ceil(n/64), the internal/bitset backing length.
func WordCount(n int) int { return (n + MaskWords - 1) / MaskWords }

// FullWordsInto overwrites dst with the full-universe mask of n elements
// and returns it. len(dst) must be WordCount(n).
func FullWordsInto(dst []uint64, n int) []uint64 {
	if len(dst) != WordCount(n) {
		panic(fmt.Sprintf("quorum: FullWordsInto needs %d words for n=%d, got %d", WordCount(n), n, len(dst)))
	}
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	trimWords(dst, n)
	return dst
}

// FullWords returns a fresh full-universe mask of n elements.
func FullWords(n int) []uint64 { return FullWordsInto(make([]uint64, WordCount(n)), n) }

// ComplementWordsInto overwrites dst with the complement of src within an
// n-element universe and returns it. dst and src must both have
// WordCount(n) words; they may alias.
func ComplementWordsInto(dst, src []uint64, n int) []uint64 {
	if len(dst) != len(src) || len(dst) != WordCount(n) {
		panic(fmt.Sprintf("quorum: ComplementWordsInto needs %d words for n=%d, got dst=%d src=%d",
			WordCount(n), n, len(dst), len(src)))
	}
	for i, w := range src {
		dst[i] = ^w
	}
	trimWords(dst, n)
	return dst
}

// trimWords zeroes the bits at and above n in the last word.
func trimWords(words []uint64, n int) {
	if n%MaskWords != 0 && len(words) > 0 {
		words[len(words)-1] &= bitset.LowMask(n % MaskWords)
	}
}

// PopcountWords returns the number of set bits across the words.
func PopcountWords(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ZeroWords clears every word of dst.
func ZeroWords(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

// CopyWords overwrites dst with src (equal lengths).
func CopyWords(dst, src []uint64) { copy(dst, src) }

// OrWords ORs src into dst (equal lengths).
func OrWords(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// WordBit reports whether element e is set in the word mask.
func WordBit(words []uint64, e int) bool {
	return words[e/MaskWords]>>(uint(e)%MaskWords)&1 != 0
}

// SetWordBit sets element e in the word mask.
func SetWordBit(words []uint64, e int) {
	words[e/MaskWords] |= bitset.Bit(e)
}

// SubsetOfWords reports whether every bit of sub is set in super (equal
// lengths).
func SubsetOfWords(sub, super []uint64) bool {
	for i, w := range sub {
		if w&^super[i] != 0 {
			return false
		}
	}
	return true
}

// WordsOf packs a set into a fresh wide mask of WordCount(s.Len()) words.
func WordsOf(s *bitset.Set) []uint64 {
	out := make([]uint64, WordCount(s.Len()))
	for i := range out {
		out[i] = s.Word(i)
	}
	return out
}

// wordFamily is a family of wide masks over one universe stored back to
// back in one array, stride words each: membership scans read contiguous
// memory, and over a one-word universe the array is the family's list of
// one-word masks.
type wordFamily struct {
	stride int
	words  []uint64
}

func newWordFamily(n int, sets []*bitset.Set) wordFamily {
	f := wordFamily{stride: WordCount(n), words: make([]uint64, 0, len(sets)*WordCount(n))}
	for _, s := range sets {
		for j := 0; j < f.stride; j++ {
			f.words = append(f.words, s.Word(j))
		}
	}
	return f
}

// anySubsetOf reports whether some mask of the family is a subset of
// words.
func (f wordFamily) anySubsetOf(words []uint64) bool {
	for i := 0; i < len(f.words); i += f.stride {
		if SubsetOfWords(f.words[i:i+f.stride], words) {
			return true
		}
	}
	return false
}

// SetOfWords unpacks a wide mask into a fresh set over an n-element
// universe. It panics when the word count does not match or the mask has
// bits at or above n.
func SetOfWords(n int, words []uint64) *bitset.Set {
	if len(words) != WordCount(n) {
		panic(fmt.Sprintf("quorum: SetOfWords needs %d words for n=%d, got %d", WordCount(n), n, len(words)))
	}
	if n%MaskWords != 0 && len(words) > 0 && words[len(words)-1]>>(uint(n)%MaskWords) != 0 {
		panic(fmt.Sprintf("quorum: wide mask has bits above universe size %d", n))
	}
	s := bitset.New(n)
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			s.Add(i*MaskWords + bits.TrailingZeros64(w))
		}
	}
	return s
}

// EnumerationBudget bounds the minimal-quorum count the WideMasked
// adapter will cache for systems without a native mask path. Every
// later membership test scans the cached list, so an over-budget family
// would make the adapter itself a standing memory and latency cliff; the
// guard refuses with a BudgetError telling the caller to implement the
// capability natively. Note the count is only known after Quorums() has
// run, so the one-time enumeration cost is still paid before the
// refusal — the budget protects the retained adapter, not the probe.
const EnumerationBudget = 1 << 16

// EnumerateQuorums is sys.Quorums() with the panics of
// enumeration-hostile systems (wide Maj, tall HQS, over-budget
// transversal roles) converted to errors, and EnumerationBudget applied
// to the returned family.
func EnumerateQuorums(sys System) (qs []*bitset.Set, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("quorum: enumerating the quorums of %s: %v", sys.Name(), r)
		}
	}()
	qs = sys.Quorums()
	if len(qs) > EnumerationBudget {
		return nil, &BudgetError{Name: sys.Name(), Count: len(qs), Budget: EnumerationBudget}
	}
	return qs, nil
}

// BudgetError reports that enumeration-based mask adaptation was refused
// because the system enumerates more minimal quorums than
// EnumerationBudget allows.
type BudgetError struct {
	// Name is the system's Name().
	Name string
	// Count is the enumerated quorum count; Budget the bound.
	Count, Budget int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("quorum: %s enumerates %d minimal quorums, above the adaptation budget %d; implement WideMaskSystem natively",
		e.Name, e.Count, e.Budget)
}

// BoundError reports that an engine or measure was asked to operate
// beyond its universe bound. The bound-checked entry points — spec
// parsing, the mask engines, witness tables and the exact dynamic
// programs — return it (never panic) so callers can tell "too big for
// this engine" from malformed input and pivot to the measures that
// remain available at that size.
type BoundError struct {
	// Op names the bounded operation, e.g. "exact pc" or "witness table".
	Op string
	// N is the requested universe size; Max is the inclusive bound.
	N, Max int
	// Available lists measures that still work at N, when known.
	Available []string
}

func (e *BoundError) Error() string {
	msg := fmt.Sprintf("%s requires n <= %d, got n = %d", e.Op, e.Max, e.N)
	if len(e.Available) > 0 {
		msg += fmt.Sprintf("; still available at n = %d: %s", e.N, strings.Join(e.Available, ", "))
	}
	return msg
}

// WideMasked returns a wide word-level view of sys. Systems implementing
// WideMaskSystem natively (all built-in constructions) are returned
// as-is; any other system is wrapped in an adapter that enumerates and
// caches its minimal quorums as wide masks, refusing with a BudgetError
// beyond EnumerationBudget. It fails with a BoundError above
// MaxWideUniverse elements.
func WideMasked(sys System) (WideMaskSystem, error) {
	n := sys.Size()
	if n > MaxWideUniverse {
		return nil, &BoundError{Op: "quorum: wide mask engine", N: n, Max: MaxWideUniverse}
	}
	if ws, ok := sys.(WideMaskSystem); ok {
		return ws, nil
	}
	quorums := sys.Quorums()
	if len(quorums) > EnumerationBudget {
		return nil, &BudgetError{Name: sys.Name(), Count: len(quorums), Budget: EnumerationBudget}
	}
	return &wideAdapter{System: sys, masks: newWordFamily(n, quorums)}, nil
}

// wideAdapter is the cached-enumeration WideMaskSystem for arbitrary
// systems: a membership test is a subset scan over the cached quorum
// masks.
type wideAdapter struct {
	System
	masks wordFamily
}

func (a *wideAdapter) ContainsQuorumWords(words []uint64) bool { return a.masks.anySubsetOf(words) }

func (a *wideAdapter) cachedQuorumWords() wordFamily { return a.masks }
