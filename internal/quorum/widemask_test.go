package quorum

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"probequorum/internal/bitset"
)

func TestWideWordHelpers(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 1025} {
		if got, want := WordCount(n), (n+63)/64; got != want {
			t.Fatalf("WordCount(%d) = %d, want %d", n, got, want)
		}
		full := FullWords(n)
		if got := PopcountWords(full); got != n {
			t.Fatalf("PopcountWords(FullWords(%d)) = %d", n, got)
		}
		comp := make([]uint64, WordCount(n))
		ComplementWordsInto(comp, full, n)
		if got := PopcountWords(comp); got != 0 {
			t.Fatalf("complement of full has %d bits", got)
		}
		ComplementWordsInto(comp, comp, n) // aliasing: complement in place
		if got := PopcountWords(comp); got != n {
			t.Fatalf("double complement has %d bits, want %d", got, n)
		}
	}
}

func TestWideWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{1, 64, 65, 200, 1025} {
		s := bitset.New(n)
		for e := 0; e < n; e++ {
			if rng.Float64() < 0.5 {
				s.Add(e)
			}
		}
		words := WordsOf(s)
		if got := PopcountWords(words); got != s.Count() {
			t.Fatalf("n=%d: popcount %d, set count %d", n, got, s.Count())
		}
		back := SetOfWords(n, words)
		if !back.Equal(s) {
			t.Fatalf("n=%d: round trip lost elements", n)
		}
		for e := 0; e < n; e++ {
			if WordBit(words, e) != s.Contains(e) {
				t.Fatalf("n=%d: WordBit(%d) disagrees", n, e)
			}
		}
	}
}

// wideless hides the words capability of a system, forcing the
// enumeration adapter.
type wideless struct{ System }

func TestWideMaskedAdapters(t *testing.T) {
	quorums := []*bitset.Set{
		bitset.FromSlice(70, []int{0, 65}),
		bitset.FromSlice(70, []int{0, 66}),
		bitset.FromSlice(70, []int{65, 66}),
	}
	ex, err := NewExplicit("wide-ex", 70, quorums)
	if err != nil {
		t.Fatal(err)
	}
	// Native: Explicit implements the capability itself.
	ws, err := WideMasked(ex)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ws.(*Explicit); !ok {
		t.Fatalf("WideMasked(Explicit) returned %T, want the system itself", ws)
	}
	// Enumeration adapter: same answers as ContainsQuorum on random sets.
	ad, err := WideMasked(wideless{ex})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	words := make([]uint64, WordCount(70))
	for i := 0; i < 500; i++ {
		ZeroWords(words)
		for e := 0; e < 70; e++ {
			if rng.Float64() < 0.3 {
				SetWordBit(words, e)
			}
		}
		native := ex.ContainsQuorumWords(words)
		adapted := ad.ContainsQuorumWords(words)
		direct := ex.ContainsQuorum(SetOfWords(70, words))
		if native != direct || adapted != direct {
			t.Fatalf("draw %d: native=%v adapted=%v direct=%v", i, native, adapted, direct)
		}
	}
}

func TestWideMaskedWordBridge(t *testing.T) {
	// A system without the words capability over one word gets the
	// enumeration adapter, which must agree with the native one-word path.
	small, err := NewExplicit("small", 5, []*bitset.Set{
		bitset.FromSlice(5, []int{0, 1}),
		bitset.FromSlice(5, []int{0, 2}),
		bitset.FromSlice(5, []int{1, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := WideMasked(wideless{small})
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 1<<5; mask++ {
		words := []uint64{mask}
		if got, want := ws.ContainsQuorumWords(words), small.ContainsQuorumWords(words); got != want {
			t.Fatalf("mask %#b: adapter=%v native=%v", mask, got, want)
		}
	}
}

// pairsSystem is every 2-subset of n elements as its minimal quorums,
// with no native mask path: C(363, 2) = 65,703 is just over the budget.
type pairsSystem struct{ stubSystem }

func (p pairsSystem) Quorums() []*bitset.Set {
	var qs []*bitset.Set
	for a := 0; a < p.n; a++ {
		for b := a + 1; b < p.n; b++ {
			qs = append(qs, bitset.FromSlice(p.n, []int{a, b}))
		}
	}
	return qs
}

func TestEnumerationBudgetGuard(t *testing.T) {
	_, err := WideMasked(pairsSystem{stubSystem{n: 363}})
	var be *BudgetError
	if !errors.As(err, &be) || be.Count != 65703 || be.Budget != EnumerationBudget {
		t.Fatalf("want BudgetError{Count:65703, Budget:%d}, got %v", EnumerationBudget, err)
	}
}

func TestWideMaskedBounds(t *testing.T) {
	huge := wideless{stubSystem{n: MaxWideUniverse + 1}}
	_, err := WideMasked(huge)
	var be *BoundError
	if !errors.As(err, &be) || be.Max != MaxWideUniverse {
		t.Fatalf("want BoundError at MaxWideUniverse, got %v", err)
	}
	if !strings.Contains(err.Error(), "4096") {
		t.Fatalf("bound error does not name the bound: %v", err)
	}
}

// stubSystem is a size-only System for bound checks.
type stubSystem struct{ n int }

func (s stubSystem) Name() string                    { return "stub" }
func (s stubSystem) Size() int                       { return s.n }
func (s stubSystem) ContainsQuorum(*bitset.Set) bool { return false }
func (s stubSystem) Quorums() []*bitset.Set          { return nil }

func TestBoundErrorMessage(t *testing.T) {
	be := &BoundError{Op: "exact pc", N: 1025, Max: 18, Available: []string{"estimate", "availability"}}
	msg := be.Error()
	for _, want := range []string{"exact pc", "18", "1025", "estimate", "availability"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("bound error %q missing %q", msg, want)
		}
	}
}
