// Package bitset provides a dense bit set over the elements {0, ..., n-1}
// of a quorum-system universe.
//
// A Set is the uniform representation for quorums, colorings and probe
// bookkeeping throughout the library. The zero value is an empty set of
// capacity zero; use New for a set with a fixed universe size.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. Elements are ints in [0, Len()).
// Set values are not safe for concurrent mutation.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n elements.
// It panics if n is negative.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice returns a set of capacity n containing the given elements.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Add inserts element e. It panics if e is out of range.
func (s *Set) Add(e int) {
	s.check(e)
	s.words[e/wordBits] |= 1 << (uint(e) % wordBits)
}

// Remove deletes element e. It panics if e is out of range.
func (s *Set) Remove(e int) {
	s.check(e)
	s.words[e/wordBits] &^= 1 << (uint(e) % wordBits)
}

// Contains reports whether e is in the set. It panics if e is out of range.
func (s *Set) Contains(e int) bool {
	s.check(e)
	return s.words[e/wordBits]&(1<<(uint(e)%wordBits)) != 0
}

func (s *Set) check(e int) {
	if e < 0 || e >= s.n {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, s.n))
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits above capacity in the last word.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}

// UnionWith adds every element of t to s. Capacities must match.
func (s *Set) UnionWith(t *Set) {
	s.sameLen(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in t. Capacities must match.
func (s *Set) IntersectWith(t *Set) {
	s.sameLen(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes from s every element of t. Capacities must match.
func (s *Set) DifferenceWith(t *Set) {
	s.sameLen(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Complement returns the complement of s within its universe.
func (s *Set) Complement() *Set {
	c := s.Clone()
	for i := range c.words {
		c.words[i] = ^c.words[i]
	}
	c.trim()
	return c
}

func (s *Set) sameLen(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, t.n))
	}
}

// Intersects reports whether s and t share an element.
func (s *Set) Intersects(t *Set) bool {
	s.sameLen(t)
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameLen(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Elements returns the elements of s in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(e int) bool {
		out = append(out, e)
		return true
	})
	return out
}

// ForEach calls fn on each element in increasing order until fn returns
// false or the elements are exhausted.
func (s *Set) ForEach(fn func(e int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Next returns the smallest element >= from, or -1 if none exists.
func (s *Set) Next(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	i := from / wordBits
	w := s.words[i] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(s.words[i])
		}
	}
	return -1
}

// String renders the set as "{e1, e2, ...}" with 1-based element labels to
// match the paper's convention U = {1, ..., n}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(e int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", e+1)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Key returns a compact string key identifying the set contents, suitable
// for map keys in memoized dynamic programs.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> (8 * i)))
		}
	}
	return b.String()
}

// Word returns the i-th 64-bit word of the set (little-endian element
// order). It is exposed for compact state encoding in small-universe
// dynamic programs; i must be in range of the backing array.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// SetWord overwrites word i of the set (elements 64i to 64i+63, bit j
// being element 64i+j). It panics if w has bits at or above Len(): the
// set never holds elements outside its universe.
func (s *Set) SetWord(i int, w uint64) {
	if i == len(s.words)-1 && s.n%wordBits != 0 && w>>(uint(s.n)%wordBits) != 0 {
		panic(fmt.Sprintf("bitset: word %d has bits at or above capacity %d", i, s.n))
	}
	s.words[i] = w
}

// Bit returns the single-bit mask of element e within its 64-bit word:
// 1 << (e mod 64). It is the one sanctioned spelling of a single-bit
// uint64 shift; quorumvet's widthdual analyzer flags raw shifts outside
// this package so the word layout has exactly one owner.
func Bit(e int) uint64 { return 1 << (uint(e) & (wordBits - 1)) }

// LowMask returns the word with the k lowest bits set. Out-of-range
// widths saturate: k <= 0 yields 0 and k >= 64 yields all ones, so
// callers can trim a partial last word without special-casing full
// words.
func LowMask(k int) uint64 {
	if k >= wordBits {
		return ^uint64(0)
	}
	if k <= 0 {
		return 0
	}
	return 1<<uint(k) - 1
}

// Pow2 returns 2^n as a uint64 — the mask-enumeration loop limit for an
// n-element universe. Like the shift it replaces, n >= 64 wraps to the
// Go shift semantics (zero), so callers must bound n first.
func Pow2(n int) uint64 { return 1 << uint(n) }
