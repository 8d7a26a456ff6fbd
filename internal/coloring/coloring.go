// Package coloring models failure patterns as red/green 2-colorings of the
// universe, following the paper's terminology: a red element is a failed
// processor, a green element is a live one.
//
// The package provides the coloring type itself plus the input
// distributions used throughout the paper: independent failures with
// probability p (the probabilistic model), fixed failure counts and
// exhaustive enumeration (adversarial and Yao-style arguments).
package coloring

import (
	"fmt"
	"math"
	"math/rand/v2"

	"probequorum/internal/bitset"
)

// Color is the observed state of an element.
type Color uint8

const (
	// Green marks a live processor.
	Green Color = iota + 1
	// Red marks a failed processor.
	Red
)

// String implements fmt.Stringer.
func (c Color) String() string {
	switch c {
	case Green:
		return "green"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("Color(%d)", uint8(c))
	}
}

// Opposite returns the other color.
func (c Color) Opposite() Color {
	switch c {
	case Green:
		return Red
	case Red:
		return Green
	default:
		panic(fmt.Sprintf("coloring: invalid color %d", uint8(c)))
	}
}

// Coloring is a full red/green assignment to a universe of n elements.
// The zero value is unusable; construct with New, FromReds, or a generator.
type Coloring struct {
	n    int
	reds *bitset.Set
}

// New returns an all-green coloring of n elements.
func New(n int) *Coloring {
	return &Coloring{n: n, reds: bitset.New(n)}
}

// FromReds returns a coloring of n elements where exactly the listed
// elements are red.
func FromReds(n int, reds []int) *Coloring {
	return &Coloring{n: n, reds: bitset.FromSlice(n, reds)}
}

// FromRedSet returns a coloring whose red elements are the given set
// (copied).
func FromRedSet(reds *bitset.Set) *Coloring {
	return &Coloring{n: reds.Len(), reds: reds.Clone()}
}

// Size returns the number of elements.
func (c *Coloring) Size() int { return c.n }

// Of returns the color of element e.
func (c *Coloring) Of(e int) Color {
	if c.reds.Contains(e) {
		return Red
	}
	return Green
}

// IsRed reports whether element e is red.
func (c *Coloring) IsRed(e int) bool { return c.reds.Contains(e) }

// SetColor assigns color col to element e.
func (c *Coloring) SetColor(e int, col Color) {
	switch col {
	case Red:
		c.reds.Add(e)
	case Green:
		c.reds.Remove(e)
	default:
		panic(fmt.Sprintf("coloring: invalid color %d", uint8(col)))
	}
}

// RedCount returns the number of red elements.
func (c *Coloring) RedCount() int { return c.reds.Count() }

// GreenCount returns the number of green elements.
func (c *Coloring) GreenCount() int { return c.n - c.reds.Count() }

// RedSet returns a copy of the red element set.
func (c *Coloring) RedSet() *bitset.Set { return c.reds.Clone() }

// GreenSet returns a copy of the green element set.
func (c *Coloring) GreenSet() *bitset.Set { return c.reds.Complement() }

// MonochromaticSet returns a copy of the set of elements with color col.
func (c *Coloring) MonochromaticSet(col Color) *bitset.Set {
	if col == Red {
		return c.RedSet()
	}
	return c.GreenSet()
}

// Clone returns an independent copy.
func (c *Coloring) Clone() *Coloring {
	return &Coloring{n: c.n, reds: c.reds.Clone()}
}

// String renders the coloring as a string of 'G' and 'R' runes in element
// order.
func (c *Coloring) String() string {
	buf := make([]byte, c.n)
	for e := 0; e < c.n; e++ {
		if c.reds.Contains(e) {
			buf[e] = 'R'
		} else {
			buf[e] = 'G'
		}
	}
	return string(buf)
}

// Parse builds a coloring from a string of 'G'/'R' runes as produced by
// String.
func Parse(s string) (*Coloring, error) {
	c := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'G', 'g':
			// green is the default
		case 'R', 'r':
			c.reds.Add(i)
		default:
			return nil, fmt.Errorf("coloring: invalid rune %q at position %d", s[i], i)
		}
	}
	return c, nil
}

// IID returns a coloring where each element is independently red with
// probability p (the paper's probabilistic model). The draw follows one
// integer law: element e is red iff the low 53 bits of the rng's e-th
// Uint64 are below ceil(p·2^53). That is exactly rng.Float64() < p, since
// Float64 is that 53-bit integer times 2^-53 and scaling both sides by
// 2^53 is exact, so P(red) = ceil(p·2^53)/2^53. It panics unless
// 0 <= p <= 1 (NaN included).
func IID(n int, p float64, rng *rand.Rand) *Coloring {
	c := New(n)
	IIDInto(c, p, rng)
	return c
}

// IIDInto redraws c in place under the IID(p) law of IID, consuming
// exactly the same PRNG stream (one Uint64 per element). It lets hot
// trial loops reuse one coloring buffer instead of allocating per trial.
//
//quorum:hotpath
func IIDInto(c *Coloring, p float64, rng *rand.Rand) {
	t := iidThreshold(p)
	for i := 0; 64*i < c.n; i++ {
		c.reds.SetWord(i, iidWord(min(c.n-64*i, 64), t, rng))
	}
}

// IIDWords returns an IID(p) failure pattern as a wide red mask: bit e of
// words[e/64] is set iff element e is red. It draws by IID's law from the
// same PRNG stream (one Uint64 per element), so word-path and bitset-path
// Monte Carlo trials see identical colorings for the same rng state.
func IIDWords(n int, p float64, rng *rand.Rand) []uint64 {
	dst := make([]uint64, (n+63)/64)
	IIDWordsInto(dst, n, p, rng)
	return dst
}

// IIDWordsInto redraws dst in place under the IID(p) law of IID. len(dst)
// must be ceil(n/64); bits at or above n stay zero. Like IIDInto it exists
// so hot trial loops reuse one buffer instead of allocating per trial.
//
//quorum:hotpath
func IIDWordsInto(dst []uint64, n int, p float64, rng *rand.Rand) {
	t := iidThreshold(p)
	if len(dst) != (n+63)/64 {
		panic(fmt.Sprintf("coloring: IIDWordsInto needs %d words for n=%d, got %d", (n+63)/64, n, len(dst)))
	}
	for i := range dst {
		dst[i] = iidWord(min(n-64*i, 64), t, rng)
	}
}

// iidThreshold returns ceil(p·2^53), the integer threshold of IID's law.
// The negated guard rejects NaN, which both plain comparisons miss (and
// which would convert to a threshold that makes every element red).
func iidThreshold(p float64) uint64 {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("coloring: probability %v out of [0,1]", p))
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// iidWord draws the k <= 64 low bits of one word, one Uint64 per bit: bit
// j is set iff the low 53 bits x of the j-th draw are below t. The bit is
// the sign of x - t (both are below 2^54), so the loop has no branch to
// mispredict at any p.
func iidWord(k int, t uint64, rng *rand.Rand) uint64 {
	var w uint64
	for j := 0; j < k; j++ {
		x := rng.Uint64() << 11 >> 11
		w |= (x - t) >> 63 << uint(j)
	}
	return w
}

// FixedWeight returns a uniformly random coloring with exactly r red
// elements, drawn by a partial Fisher–Yates shuffle.
func FixedWeight(n, r int, rng *rand.Rand) *Coloring {
	if r < 0 || r > n {
		panic(fmt.Sprintf("coloring: red count %d out of [0,%d]", r, n))
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	c := New(n)
	for i := 0; i < r; i++ {
		j := i + rng.IntN(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		c.reds.Add(perm[i])
	}
	return c
}

// All calls fn with every coloring of n elements exactly once, reusing a
// single Coloring buffer; fn must not retain it across calls (Clone if
// needed). Iteration stops early if fn returns false. It panics if n > 30.
func All(n int, fn func(*Coloring) bool) {
	if n > 30 {
		panic(fmt.Sprintf("coloring: All limited to n <= 30, got %d", n))
	}
	c := New(n)
	for mask := uint64(0); mask < bitset.Pow2(n); mask++ {
		c.reds.Clear()
		for e := 0; e < n; e++ {
			if mask&bitset.Bit(e) != 0 {
				c.reds.Add(e)
			}
		}
		if !fn(c) {
			return
		}
	}
}

// AllWithWeight calls fn with every coloring of n elements having exactly r
// red elements. The Coloring buffer is reused; fn must not retain it.
// Iteration stops early if fn returns false. It panics if n > 30.
func AllWithWeight(n, r int, fn func(*Coloring) bool) {
	if n > 30 {
		panic(fmt.Sprintf("coloring: AllWithWeight limited to n <= 30, got %d", n))
	}
	if r < 0 || r > n {
		panic(fmt.Sprintf("coloring: red count %d out of [0,%d]", r, n))
	}
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	c := New(n)
	for {
		c.reds.Clear()
		for _, e := range idx {
			c.reds.Add(e)
		}
		if !fn(c) {
			return
		}
		// Advance the combination (lexicographic successor).
		i := r - 1
		for i >= 0 && idx[i] == n-r+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Probability returns the probability of this exact coloring under the IID
// model where each element is red with probability p.
func (c *Coloring) Probability(p float64) float64 {
	r := c.RedCount()
	g := c.n - r
	prob := 1.0
	for i := 0; i < r; i++ {
		prob *= p
	}
	for i := 0; i < g; i++ {
		prob *= 1 - p
	}
	return prob
}

// Weighted pairs a coloring with a probability mass; a slice of Weighted
// values forms an explicit input distribution for Yao-style lower bounds.
type Weighted struct {
	Coloring *Coloring
	Weight   float64
}

// UniformOverWeight returns the uniform distribution over all colorings of
// n elements with exactly r reds (the hard distribution of Theorem 4.2).
func UniformOverWeight(n, r int) []Weighted {
	var out []Weighted
	AllWithWeight(n, r, func(c *Coloring) bool {
		out = append(out, Weighted{Coloring: c.Clone()})
		return true
	})
	w := 1.0 / float64(len(out))
	for i := range out {
		out[i].Weight = w
	}
	return out
}
