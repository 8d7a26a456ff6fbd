package quorum

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"probequorum/internal/bitset"
)

// MaskWords is the number of elements a single machine word can index:
// subsets of universes up to this size pack into one uint64, the index
// space of witness tables, the exact DPs and the artifact store.
const MaskWords = 64

// FullMask returns the word mask of an entire n-element universe,
// handling n = MaskWords without shift overflow. It panics if n is out of
// [0, MaskWords].
func FullMask(n int) uint64 {
	if n < 0 || n > MaskWords {
		panic(fmt.Sprintf("quorum: FullMask requires 0 <= n <= %d, got %d", MaskWords, n))
	}
	if n == MaskWords {
		return ^uint64(0)
	}
	return bitset.LowMask(n)
}

// MaskOf packs a set into a word mask. It panics if the set's universe
// exceeds MaskWords elements.
func MaskOf(s *bitset.Set) uint64 {
	if s.Len() > MaskWords {
		panic(fmt.Sprintf("quorum: MaskOf requires n <= %d, got %d", MaskWords, s.Len()))
	}
	if s.Len() == 0 {
		return 0
	}
	return s.Word(0)
}

// SetOfMask unpacks a word mask into a fresh set over an n-element
// universe. It panics if n exceeds MaskWords or the mask has bits at or
// above n.
func SetOfMask(n int, mask uint64) *bitset.Set {
	if n > MaskWords {
		panic(fmt.Sprintf("quorum: SetOfMask requires n <= %d, got %d", MaskWords, n))
	}
	if n < MaskWords && mask>>uint(n) != 0 {
		panic(fmt.Sprintf("quorum: mask %#x has bits above universe size %d", mask, n))
	}
	s := bitset.New(n)
	for m := mask; m != 0; m &= m - 1 {
		s.Add(bits.TrailingZeros64(m))
	}
	return s
}

// MasksOf packs a family of sets into word masks.
func MasksOf(sets []*bitset.Set) []uint64 {
	out := make([]uint64, len(sets))
	for i, s := range sets {
		out[i] = MaskOf(s)
	}
	return out
}

// enumBacked marks systems whose membership test is a linear scan over a
// cached quorum list (Explicit, the WideMasked adapter). For those,
// building a witness table by per-subset evaluation would cost
// Θ(2^n · |Q|); seeding the table with the cached quorums and closing
// upward is exact and far cheaper.
type enumBacked interface {
	cachedQuorumWords() wordFamily
}

// MaxTableUniverse bounds the universe size accepted by BuildWitnessTable
// (the table holds 2^n bits).
const MaxTableUniverse = 26

// WitnessTable is the characteristic monotone boolean function of a system
// evaluated densely over all 2^n element subsets: bit m of the table is
// ContainsQuorum of the indicator set of m. It turns the witness predicate
// of the exact dynamic programs into a single word-indexed bit test.
type WitnessTable struct {
	n    int
	bits []uint64

	classesOnce sync.Once
	classes     []uint64 // symmetry classes as element masks (see Classes)

	selfDualOnce sync.Once
	selfDual     bool // see SelfDual
}

// BuildWitnessTable evaluates the system's characteristic function on
// every subset of the universe. WideMaskSystems answer ContainsQuorumWords
// on one-word slices for the masks their monotonicity leaves open;
// enumeration-backed ones (Explicit, the WideMasked adapter) and plain
// Systems instead seed the table with their minimal quorums, and a
// word-level upward (superset) closure completes it in O(n 2^n / 64) word
// operations. It fails for n > MaxTableUniverse.
func BuildWitnessTable(sys System) (*WitnessTable, error) {
	return BuildWitnessTableCtx(context.Background(), sys)
}

// BuildWitnessTableCtx is BuildWitnessTable honoring cancellation: the
// 2^n evaluation loop checks ctx periodically and returns ctx.Err()
// without a table when the context is done.
func BuildWitnessTableCtx(ctx context.Context, sys System) (*WitnessTable, error) {
	n := sys.Size()
	if n > MaxTableUniverse {
		return nil, &BoundError{Op: "quorum: witness table", N: n, Max: MaxTableUniverse}
	}
	words := 1
	if n >= 6 {
		words = 1 << uint(n-6)
	}
	t := &WitnessTable{n: n, bits: make([]uint64, words)}
	switch s := sys.(type) {
	case enumBacked:
		// Word 0 of each cached wide mask is the quorum's whole mask.
		f := s.cachedQuorumWords()
		for i := 0; i < len(f.words); i += f.stride {
			t.set(f.words[i])
		}
	case WideMaskSystem:
		// Masks are decided in ascending order, so every immediate subset
		// of a mask is decided before it, and by monotonicity a mask with
		// a quorum-holding immediate subset holds one too. Only the other
		// masks are evaluated: the subsets lacking an element e >= 6 sit in
		// earlier table words and are ORed in a word at a time; of the
		// in-word subsets, the one lacking the lowest element is checked.
		buf := make([]uint64, 1)
		size := min(bitset.Pow2(n), MaskWords)
		for i := range t.bits {
			if i&0x3FF == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			var word uint64
			for j := uint64(i); j != 0; j &= j - 1 {
				word |= t.bits[uint64(i)&^(j&-j)]
			}
			for b := uint64(0); b < size; b++ {
				if word>>b&1 != 0 {
					continue
				}
				if b != 0 && word>>(b&(b-1))&1 != 0 {
					word |= bitset.Bit(int(b))
					continue
				}
				buf[0] = uint64(i)<<6 | b
				if s.ContainsQuorumWords(buf) {
					word |= bitset.Bit(int(b))
				}
			}
			t.bits[i] = word
		}
		return t, nil
	default:
		for _, q := range sys.Quorums() {
			t.set(MaskOf(q))
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	t.upwardClosure()
	return t, nil
}

// set marks subset mask m as containing a quorum.
func (t *WitnessTable) set(m uint64) { t.bits[m>>6] |= bitset.Bit(int(m)) }

// upwardClosure ORs every subset's bit into all of its supersets: after the
// pass, bit m is set iff some seeded mask is a subset of m. Element bits
// below 6 move inside each word with shift-and-mask steps; higher element
// bits pair whole words.
func (t *WitnessTable) upwardClosure() {
	// In-word steps: element e < 6 separates each word into 2^e-bit lanes.
	for e := 0; e < t.n && e < 6; e++ {
		shift := uint(1) << uint(e)
		for i, w := range t.bits {
			t.bits[i] = w | (w&lane[e])<<shift
		}
	}
	// Word-pair steps: element e >= 6 pairs word i with word i | 1<<(e-6).
	for e := 6; e < t.n; e++ {
		stride := 1 << uint(e-6)
		for base := 0; base < len(t.bits); base += 2 * stride {
			for i := base; i < base+stride; i++ {
				t.bits[i+stride] |= t.bits[i]
			}
		}
	}
}

// Size returns the universe size n.
func (t *WitnessTable) Size() int { return t.n }

// Words exposes the table's backing bit words for serialization (bit m
// of the concatenated words is the characteristic function at subset
// mask m). The slice is the live backing store — callers must not
// mutate it.
func (t *WitnessTable) Words() []uint64 { return t.bits }

// TableFromWords reconstructs a witness table from serialized backing
// words — the deserialization dual of Words. The word slice is adopted,
// not copied, and must hold exactly the 2^n bits of an n-element table.
func TableFromWords(n int, words []uint64) (*WitnessTable, error) {
	if n < 0 || n > MaxTableUniverse {
		return nil, &BoundError{Op: "quorum: witness table", N: n, Max: MaxTableUniverse}
	}
	want := 1
	if n >= 6 {
		want = 1 << uint(n-6)
	}
	if len(words) != want {
		return nil, fmt.Errorf("quorum: witness table for n=%d needs %d words, got %d", n, want, len(words))
	}
	return &WitnessTable{n: n, bits: words}, nil
}

// Contains reports whether the indicator set of mask contains a quorum.
func (t *WitnessTable) Contains(mask uint64) bool {
	return t.bits[mask>>6]&bitset.Bit(int(mask)) != 0
}
