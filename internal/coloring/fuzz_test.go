package coloring

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// FuzzParse checks that Parse either rejects its input or round-trips it
// through String exactly (after case normalization).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"", "G", "R", "GRGR", "rrgg", "GRX"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		if c.Size() != len(s) {
			t.Fatalf("Parse(%q).Size() = %d", s, c.Size())
		}
		if got, want := c.String(), strings.ToUpper(s); got != want {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		// Red/green counts partition the universe.
		if c.RedCount()+c.GreenCount() != c.Size() {
			t.Fatalf("counts do not partition: %d + %d != %d", c.RedCount(), c.GreenCount(), c.Size())
		}
	})
}

// FuzzIIDWordsLaw checks both in-place IID draws against the Float64
// reference loop (checkIIDDraws) for n <= 300, any seed, and any p: the
// fuzzed bits with the sign and top exponent bit cleared are a float in
// [0, 2), and one above 1 is shifted down by 1 (exactly).
func FuzzIIDWordsLaw(f *testing.F) {
	f.Add(uint16(65), math.Float64bits(0.3), uint64(9))
	f.Add(uint16(300), math.Float64bits(0.5), uint64(1))
	f.Add(uint16(1), math.Float64bits(1), uint64(2))
	f.Add(uint16(64), math.Float64bits(0x1p-53), uint64(3))
	f.Fuzz(func(t *testing.T, n uint16, pbits, seed uint64) {
		p := math.Float64frombits(pbits & (1<<62 - 1))
		if p > 1 {
			p--
		}
		checkIIDDraws(t, int(n%301), p, func() rand.Source { return rand.NewPCG(seed, 1) })
	})
}
