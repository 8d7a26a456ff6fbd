package probe

import (
	"fmt"
	"math/bits"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
)

// WordsOracle is the wide-universe probing oracle: the coloring, the
// probe log and the witness scratch buffers are all []uint64 wide masks
// in the bitset word layout, so a Monte Carlo trial loop that owns one
// WordsOracle per worker probes, counts and assembles witnesses with no
// per-probe heap allocation at any universe size.
//
// The oracle implements Oracle, so the generic verification helpers work
// against it; the wide strategies (WordsProber) use the word-native
// accessors and the scratch arena instead.
//
// The usage pattern of a trial is:
//
//	coloring.IIDWordsInto(o.RedWords(), n, p, rng) // redraw the coloring
//	o.Reset()                                      // clear probes + arena
//	w := prober.ProbeWitnessWords(o)               // probe
//	_ = o.Probes()                                 // the trial value
//
// A strategy probes one element with Probe, or a block of elements of
// one word with ProbeWord: a strategy whose order is fixed in advance and
// whose answers only decide where it stops (Probe_Maj) probes a word at a
// time.
//
// A WordsOracle is not safe for concurrent use; give each worker its own.
type WordsOracle struct {
	n      int
	reds   []uint64
	probed []uint64
	count  int

	// arena is the stack of reusable witness/scratch buffers handed out by
	// AcquireWords: it grows to the high-water mark of the strategy's
	// recursion once, then every later trial runs allocation-free.
	arena [][]uint64
	sp    int
}

var _ Oracle = (*WordsOracle)(nil)

// NewWordsOracle returns an all-green oracle over n elements.
func NewWordsOracle(n int) *WordsOracle {
	words := quorum.WordCount(n)
	return &WordsOracle{n: n, reds: make([]uint64, words), probed: make([]uint64, words)}
}

// Size returns the universe size n.
func (o *WordsOracle) Size() int { return o.n }

// Words returns the wide-mask word count of the universe.
func (o *WordsOracle) Words() int { return len(o.reds) }

// RedWords returns the oracle's coloring buffer: bit e set means element
// e is red. Callers redraw it in place (coloring.IIDWordsInto) and then
// Reset the oracle; mutating it mid-trial is undefined.
func (o *WordsOracle) RedWords() []uint64 { return o.reds }

// SetColoring overwrites the coloring buffer from col (sizes must match).
func (o *WordsOracle) SetColoring(col *coloring.Coloring) {
	if col.Size() != o.n {
		panic(fmt.Sprintf("probe: coloring over %d elements does not match oracle over %d", col.Size(), o.n))
	}
	reds := col.RedSet()
	for i := range o.reds {
		o.reds[i] = reds.Word(i)
	}
}

// Reset clears the probe log and releases every arena buffer, keeping the
// coloring buffer as-is.
//
//quorum:hotpath
func (o *WordsOracle) Reset() {
	quorum.ZeroWords(o.probed)
	o.count = 0
	o.sp = 0
}

// Probe implements Oracle: two word operations and a counter.
//
//quorum:hotpath
func (o *WordsOracle) Probe(e int) coloring.Color {
	w, b := e>>6, bitset.Bit(e)
	if o.probed[w]&b == 0 {
		o.probed[w] |= b
		o.count++
	}
	if o.reds[w]&b != 0 {
		return coloring.Red
	}
	return coloring.Green
}

// ProbeWord probes the elements of word w selected by mask (bit j is
// element 64w+j) at once and returns the red ones among them. It counts
// each newly probed element once, exactly as Probe over the same
// elements would.
//
//quorum:hotpath
func (o *WordsOracle) ProbeWord(w int, mask uint64) (red uint64) {
	o.count += bits.OnesCount64(mask &^ o.probed[w])
	o.probed[w] |= mask
	return o.reds[w] & mask
}

// Probes implements Oracle.
func (o *WordsOracle) Probes() int { return o.count }

// Probed implements Oracle. It allocates a fresh set; hot loops use
// ProbedWords instead.
func (o *WordsOracle) Probed() *bitset.Set { return quorum.SetOfWords(o.n, o.probed) }

// ProbedWords returns the probe log as a wide mask, valid until the next
// Reset. Callers must not mutate it.
func (o *WordsOracle) ProbedWords() []uint64 { return o.probed }

// AcquireWords returns a zeroed wide-mask buffer from the oracle's stack
// arena. Buffers are reused across trials (Reset releases them all), so
// steady-state acquisition performs no allocation. Release the buffers a
// strategy acquires before returning, except the one carrying the final
// witness — conventionally the first acquired — which stays live for the
// caller until the next Reset.
func (o *WordsOracle) AcquireWords() []uint64 {
	if o.sp == len(o.arena) {
		o.arena = append(o.arena, make([]uint64, len(o.reds)))
	}
	buf := o.arena[o.sp]
	o.sp++
	quorum.ZeroWords(buf)
	return buf
}

// ReleaseWords returns the k most recently acquired buffers to the arena.
func (o *WordsOracle) ReleaseWords(k int) {
	if k < 0 || k > o.sp {
		panic(fmt.Sprintf("probe: ReleaseWords(%d) with %d buffers live", k, o.sp))
	}
	o.sp -= k
}

// WordsWitness is the wide counterpart of Witness: a monochromatic quorum
// as a wide mask. Words aliases an oracle arena buffer, valid until the
// oracle's next Reset; callers needing a longer lifetime copy it out
// (quorum.SetOfWords).
type WordsWitness struct {
	// Color is the common color of all witness elements.
	Color coloring.Color
	// Words is the witness element set as a wide mask.
	Words []uint64
}

// Set materializes the witness as a Witness over a fresh bitset.
func (w WordsWitness) Set(n int) Witness {
	return Witness{Color: w.Color, Set: quorum.SetOfWords(n, w.Words)}
}
