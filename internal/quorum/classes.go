package quorum

import (
	"math/bits"

	"probequorum/internal/bitset"
)

// lane[e] marks the in-word bit positions whose element-e bit is clear:
// element e < 6 splits a table word into alternating 2^e-bit lanes.
var lane = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
}

// Classes returns the table's symmetry classes as element masks, ordered
// by lowest element. Elements a and b share a class when swapping them
// leaves the table unchanged. A composition of such swaps is again an
// automorphism, so the relation is an equivalence, and every permutation
// inside a class maps quorum-holding sets to quorum-holding sets. The
// partition is derived on first use and cached with the table; the slice
// is shared, and callers must not mutate it.
func (t *WitnessTable) Classes() []uint64 {
	t.classesOnce.Do(func() {
		// One greedy pass: an element joins the first class whose lowest
		// member it can swap with, since the relation is transitive.
		for e := 0; e < t.n; e++ {
			joined := false
			for i, c := range t.classes {
				if t.swapInvariant(bits.TrailingZeros64(c), e) {
					t.classes[i] |= bitset.Bit(e)
					joined = true
					break
				}
			}
			if !joined {
				t.classes = append(t.classes, bitset.Bit(e))
			}
		}
	})
	return t.classes
}

// swapInvariant reports whether exchanging elements a < b maps the table
// onto itself: every mask holding a but not b must agree with its image
// holding b but not a. It compares a word of masks at a time.
func (t *WitnessTable) swapInvariant(a, b int) bool {
	switch {
	case a >= 6:
		// Both elements index words: word i (a set, b clear) must equal
		// its image word.
		wa, wb := 1<<uint(a-6), 1<<uint(b-6)
		for i, w := range t.bits {
			if i&wa != 0 && i&wb == 0 && w != t.bits[i^wa^wb] {
				return false
			}
		}
	case b >= 6:
		// a is in-word, b indexes words: the a-set lanes of word i shift
		// down onto the a-clear lanes of word i | b.
		wb, sh := 1<<uint(b-6), uint(1)<<uint(a)
		for i, w := range t.bits {
			if i&wb == 0 && (w&^lane[a])>>sh != t.bits[i|wb]&lane[a] {
				return false
			}
		}
	default:
		// Both in-word: positions with a set and b clear move up by
		// 2^b - 2^a onto those with b set and a clear. A table over fewer
		// than six elements uses only the low 2^n bits of its one word.
		from, to := ^lane[a]&lane[b], lane[a]&^lane[b]
		sh := uint(1)<<uint(b) - uint(1)<<uint(a)
		used := ^uint64(0)
		if t.n < 6 {
			used = bitset.LowMask(1 << uint(t.n))
		}
		for _, w := range t.bits {
			w &= used
			if (w&from)<<sh != w&to {
				return false
			}
		}
	}
	return true
}

// SelfDual reports whether the table is self-dual: for every set, exactly
// one of it and its complement contains a quorum. That is the
// characteristic function of a nondominated coterie (what CheckND checks
// by enumeration), where a set meets every quorum exactly when it
// contains one. Like Classes it is derived on first use and cached with
// the table.
func (t *WitnessTable) SelfDual() bool {
	t.selfDualOnce.Do(func() { t.selfDual = t.mirrorDiffers() })
	return t.selfDual
}

// mirrorDiffers compares bit m with bit full^m a word at a time. The
// complement of mask m mirrors its position in the table, so word i must
// be the negated bit reversal of the mirrored word; a table under six
// elements mirrors within the low 2^n bits of its one word.
func (t *WitnessTable) mirrorDiffers() bool {
	if t.n < 6 {
		size := 1 << uint(t.n)
		used := bitset.LowMask(size)
		w := t.bits[0] & used
		return w^bits.Reverse64(w)>>uint(64-size) == used
	}
	last := len(t.bits) - 1
	for i, w := range t.bits {
		if w != ^bits.Reverse64(t.bits[last-i]) {
			return false
		}
	}
	return true
}
