package coloring

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestColorString(t *testing.T) {
	if Green.String() != "green" || Red.String() != "red" {
		t.Errorf("color strings: %s, %s", Green, Red)
	}
	if Color(9).String() != "Color(9)" {
		t.Errorf("invalid color string: %s", Color(9))
	}
}

func TestColorOpposite(t *testing.T) {
	if Green.Opposite() != Red || Red.Opposite() != Green {
		t.Error("Opposite is wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Opposite of invalid color did not panic")
		}
	}()
	Color(0).Opposite()
}

func TestNewAndAccessors(t *testing.T) {
	c := New(5)
	if c.Size() != 5 || c.RedCount() != 0 || c.GreenCount() != 5 {
		t.Errorf("fresh coloring: size=%d reds=%d greens=%d", c.Size(), c.RedCount(), c.GreenCount())
	}
	c.SetColor(2, Red)
	if c.Of(2) != Red || !c.IsRed(2) {
		t.Error("SetColor(2, Red) not observed")
	}
	if c.Of(1) != Green || c.IsRed(1) {
		t.Error("element 1 should be green")
	}
	c.SetColor(2, Green)
	if c.IsRed(2) {
		t.Error("SetColor(2, Green) not observed")
	}
}

func TestFromRedsAndSets(t *testing.T) {
	c := FromReds(6, []int{1, 4})
	if c.RedCount() != 2 || c.GreenCount() != 4 {
		t.Errorf("counts: %d red, %d green", c.RedCount(), c.GreenCount())
	}
	reds := c.RedSet()
	greens := c.GreenSet()
	if reds.Count() != 2 || !reds.Contains(1) || !reds.Contains(4) {
		t.Errorf("RedSet = %v", reds)
	}
	if greens.Count() != 4 || greens.Contains(1) {
		t.Errorf("GreenSet = %v", greens)
	}
	if !c.MonochromaticSet(Red).Equal(reds) || !c.MonochromaticSet(Green).Equal(greens) {
		t.Error("MonochromaticSet mismatch")
	}
	// Mutating the returned set must not affect the coloring.
	reds.Add(0)
	if c.IsRed(0) {
		t.Error("RedSet returned an aliased set")
	}
}

func TestStringAndParse(t *testing.T) {
	c := FromReds(5, []int{0, 3})
	if got, want := c.String(), "RGGRG"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	parsed, err := Parse("RGGRG")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.String() != c.String() {
		t.Errorf("round trip: %q != %q", parsed.String(), c.String())
	}
	if _, err := Parse("GXB"); err == nil {
		t.Error("Parse accepted invalid runes")
	}
}

func TestClone(t *testing.T) {
	c := FromReds(4, []int{1})
	d := c.Clone()
	d.SetColor(2, Red)
	if c.IsRed(2) {
		t.Error("Clone aliases the original")
	}
}

func TestIIDBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if got := IID(50, 0, rng).RedCount(); got != 0 {
		t.Errorf("IID(p=0) produced %d reds", got)
	}
	if got := IID(50, 1, rng).RedCount(); got != 50 {
		t.Errorf("IID(p=1) produced %d reds, want 50", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("IID with p>1 did not panic")
		}
	}()
	IID(5, 1.5, rng)
}

// TestIIDRejectsNaN: all four IID draws refuse a NaN probability, which
// passes both plain range comparisons (and would read as p = 1 on the
// integer threshold).
func TestIIDRejectsNaN(t *testing.T) {
	nan := math.NaN()
	rng := rand.New(rand.NewPCG(1, 1))
	for name, draw := range map[string]func(){
		"IID":          func() { IID(8, nan, rng) },
		"IIDInto":      func() { IIDInto(New(8), nan, rng) },
		"IIDWords":     func() { IIDWords(8, nan, rng) },
		"IIDWordsInto": func() { IIDWordsInto(make([]uint64, 1), 8, nan, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(p=NaN) did not panic", name)
				}
			}()
			draw()
		}()
	}
}

func TestIIDMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	const n, p, trials = 100, 0.3, 2000
	total := 0
	for i := 0; i < trials; i++ {
		total += IID(n, p, rng).RedCount()
	}
	mean := float64(total) / trials
	if math.Abs(mean-n*p) > 1.0 {
		t.Errorf("IID mean red count = %.2f, want about %.1f", mean, float64(n)*p)
	}
}

func TestFixedWeight(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for _, r := range []int{0, 1, 5, 10} {
		c := FixedWeight(10, r, rng)
		if c.RedCount() != r {
			t.Errorf("FixedWeight(10,%d) has %d reds", r, c.RedCount())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FixedWeight with r>n did not panic")
		}
	}()
	FixedWeight(3, 4, rng)
}

func TestFixedWeightUniform(t *testing.T) {
	// Every element should be red with probability r/n.
	rng := rand.New(rand.NewPCG(3, 3))
	const n, r, trials = 6, 2, 6000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		c := FixedWeight(n, r, rng)
		for e := 0; e < n; e++ {
			if c.IsRed(e) {
				counts[e]++
			}
		}
	}
	want := float64(trials) * float64(r) / float64(n)
	for e, got := range counts {
		if math.Abs(float64(got)-want) > 150 {
			t.Errorf("element %d red %d times, want about %.0f", e, got, want)
		}
	}
}

func TestAll(t *testing.T) {
	seen := map[string]bool{}
	All(3, func(c *Coloring) bool {
		seen[c.String()] = true
		return true
	})
	if len(seen) != 8 {
		t.Errorf("All(3) visited %d colorings, want 8", len(seen))
	}
	// Early stop.
	visits := 0
	All(3, func(c *Coloring) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("All early stop after %d visits, want 3", visits)
	}
}

func TestAllWithWeight(t *testing.T) {
	count := 0
	AllWithWeight(5, 2, func(c *Coloring) bool {
		if c.RedCount() != 2 {
			t.Errorf("coloring %s has %d reds, want 2", c, c.RedCount())
		}
		count++
		return true
	})
	if count != 10 { // C(5,2)
		t.Errorf("AllWithWeight(5,2) visited %d colorings, want 10", count)
	}
	// Edge cases.
	for _, r := range []int{0, 5} {
		count = 0
		AllWithWeight(5, r, func(*Coloring) bool { count++; return true })
		if count != 1 {
			t.Errorf("AllWithWeight(5,%d) visited %d, want 1", r, count)
		}
	}
}

func TestProbability(t *testing.T) {
	c := FromReds(3, []int{0})
	got := c.Probability(0.25)
	want := 0.25 * 0.75 * 0.75
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Probability = %v, want %v", got, want)
	}
}

// Property: probabilities over all colorings sum to 1.
func TestProbabilityNormalized(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := 1 + rng.IntN(10)
		p := rng.Float64()
		total := 0.0
		All(n, func(c *Coloring) bool {
			total += c.Probability(p)
			return true
		})
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUniformOverWeight(t *testing.T) {
	dist := UniformOverWeight(4, 2)
	if len(dist) != 6 {
		t.Fatalf("len = %d, want C(4,2)=6", len(dist))
	}
	total := 0.0
	for _, w := range dist {
		if w.Coloring.RedCount() != 2 {
			t.Errorf("support coloring %s has wrong weight", w.Coloring)
		}
		total += w.Weight
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("weights sum to %v", total)
	}
}

// IIDWords must consume exactly the PRNG stream of IID (one Uint64 per
// element) and set exactly the red bits.
func TestIIDWordsMatchesIID(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 1025} {
		words := IIDWords(n, 0.35, rand.New(rand.NewPCG(7, uint64(n))))
		col := IID(n, 0.35, rand.New(rand.NewPCG(7, uint64(n))))
		for e := 0; e < n; e++ {
			wordRed := words[e/64]>>(uint(e)%64)&1 != 0
			if wordRed != col.IsRed(e) {
				t.Fatalf("n=%d element %d: words red=%v, coloring red=%v", n, e, wordRed, col.IsRed(e))
			}
		}
		if n%64 != 0 && words[len(words)-1]>>(uint(n)%64) != 0 {
			t.Fatalf("n=%d: bits above the universe are set", n)
		}
	}
}

// floatIIDReference is an independent reference for the IID law: element
// e is red iff the e-th rng.Float64() is below p.
func floatIIDReference(n int, p float64, rng *rand.Rand) []bool {
	red := make([]bool, n)
	for e := range red {
		red[e] = rng.Float64() < p
	}
	return red
}

// checkIIDDraws redraws an all-red coloring with IIDInto and an all-ones
// buffer with IIDWordsInto, each from its own source made by newSrc, and
// compares both with the Float64 reference on a third: the same red
// elements, no bits at or above n, and the same next Uint64 afterwards
// (one Uint64 per element).
func checkIIDDraws(t *testing.T, n int, p float64, newSrc func() rand.Source) {
	t.Helper()
	refRNG := rand.New(newSrc())
	want := floatIIDReference(n, p, refRNG)
	next := refRNG.Uint64()

	colRNG := rand.New(newSrc())
	col := New(n)
	for e := 0; e < n; e++ {
		col.SetColor(e, Red)
	}
	IIDInto(col, p, colRNG)
	wordsRNG := rand.New(newSrc())
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	IIDWordsInto(words, n, p, wordsRNG)
	for e := 0; e < n; e++ {
		if col.IsRed(e) != want[e] {
			t.Fatalf("n=%d p=%v element %d: IIDInto red=%v, Float64 reference %v", n, p, e, col.IsRed(e), want[e])
		}
		if wordRed := words[e/64]>>(uint(e)%64)&1 != 0; wordRed != want[e] {
			t.Fatalf("n=%d p=%v element %d: IIDWordsInto red=%v, Float64 reference %v", n, p, e, wordRed, want[e])
		}
	}
	if n%64 != 0 && words[len(words)-1]>>(uint(n)%64) != 0 {
		t.Fatalf("n=%d p=%v: bits above the universe are set", n, p)
	}
	if got := colRNG.Uint64(); got != next {
		t.Fatalf("n=%d p=%v: IIDInto left the stream at %#x, reference at %#x", n, p, got, next)
	}
	if got := wordsRNG.Uint64(); got != next {
		t.Fatalf("n=%d p=%v: IIDWordsInto left the stream at %#x, reference at %#x", n, p, got, next)
	}
}

// scriptedSource replays fixed Uint64 values, cycling.
type scriptedSource struct {
	vals []uint64
	i    int
}

func (s *scriptedSource) Uint64() uint64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

// TestIIDWordsMatchFloat64Reference compares both in-place draws with a
// Float64 loop written here, at the edges of the word layout and at
// probabilities where the integer threshold is easy to get wrong. Besides
// PCG streams it replays values whose low 53 bits sit just below, at and
// above p·2^53 under random high bits, where a reading of the wrong 53
// bits or an off-by-one threshold differs from the reference.
func TestIIDWordsMatchFloat64Reference(t *testing.T) {
	ps := []float64{0, 1, 0.5, 0.25, 0x1p-53, 0x1p-54, 1e-300, 1 - 0x1p-53,
		math.Nextafter(0.3, 0), 0.3, math.Nextafter(0.3, 1),
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)}
	high := rand.New(rand.NewPCG(5, 5))
	for _, n := range []int{1, 63, 64, 65, 127, 1025} {
		for i, p := range ps {
			seed := uint64(n)<<8 | uint64(i)
			checkIIDDraws(t, n, p, func() rand.Source { return rand.NewPCG(seed, 3) })

			base := uint64(p * (1 << 53)) // floor: p·2^53 is exact
			var vals []uint64
			for _, d := range []int64{-2, -1, 0, 1, 2} {
				low := int64(base) + d
				if low < 0 || low >= 1<<53 {
					continue
				}
				vals = append(vals, high.Uint64()&^(1<<53-1)|uint64(low))
			}
			vals = append(vals, high.Uint64()&^(1<<53-1), high.Uint64()|(1<<53-1))
			checkIIDDraws(t, n, p, func() rand.Source { return &scriptedSource{vals: vals} })
		}
	}
}

// BenchmarkIIDWordsInto times one n = 1025 draw, the coloring of a wide
// Monte Carlo trial, at three failure probabilities.
func BenchmarkIIDWordsInto(b *testing.B) {
	const n = 1025
	for _, p := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("n=%d/p=%.1f", n, p), func(b *testing.B) {
			dst := make([]uint64, (n+63)/64)
			rng := rand.New(rand.NewPCG(1, 2))
			for b.Loop() {
				IIDWordsInto(dst, n, p, rng)
			}
		})
	}
}
