package systems

import (
	"math/rand/v2"
	"testing"

	"probequorum/internal/quorum"
)

// wideFixture pairs a construction with the universe sizes the wide
// property tests exercise.
type wideFixture struct {
	name string
	sys  quorum.WideMaskSystem
}

// wideFixtures returns one large instance per construction near each of
// the target sizes 65, 127, 256 and 1025 (each construction's arity,
// parity and height constraints pull the exact n to the nearest valid
// value).
func wideFixtures(t testing.TB) []wideFixture {
	t.Helper()
	var out []wideFixture
	add := func(name string, sys quorum.System, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws, ok := sys.(quorum.WideMaskSystem)
		if !ok {
			t.Fatalf("%s does not implement WideMaskSystem", name)
		}
		out = append(out, wideFixture{name: name, sys: ws})
	}
	for _, n := range []int{65, 127, 257, 1025} {
		m, err := NewMaj(n)
		add(m.Name(), m, err)
	}
	for _, n := range []int{65, 127, 256, 1025} {
		w, err := NewWheel(n)
		add(w.Name(), w, err)
	}
	for _, k := range []int{11, 15, 22, 45} { // n = k(k+1)/2: 66, 120, 253, 1035
		c, err := NewTriang(k)
		add(c.Name(), c, err)
	}
	widths := []int{1}
	for len(widths) < 33 {
		widths = append(widths, 2+len(widths)%3)
	}
	cw, err := NewCW(widths) // 32 irregular rows, n ≈ 97
	add(cw.Name(), cw, err)
	for _, h := range []int{6, 7, 9} { // n = 127, 255, 1023
		tr, err := NewTree(h)
		add(tr.Name(), tr, err)
	}
	for _, h := range []int{4, 5, 6} { // n = 81, 243, 729
		q, err := NewHQS(h)
		add(q.Name(), q, err)
	}
	for _, n := range []int{65, 127, 256, 1025} {
		weights := make([]int, n)
		total := 0
		for i := range weights {
			weights[i] = 1 + (i*7)%5
			total += weights[i]
		}
		if total%2 == 0 {
			weights[0]++
		}
		v, err := NewVote(weights)
		add(v.Name(), v, err)
	}
	for _, mh := range [][2]int{{5, 3}, {3, 6}, {5, 4}} { // n = 125, 729, 625
		r, err := NewRecMaj(mh[0], mh[1])
		add(r.Name(), r, err)
	}
	return out
}

// randomWords draws a wide mask where each element is set independently
// with probability p.
func randomWords(n int, p float64, rng *rand.Rand) []uint64 {
	words := make([]uint64, quorum.WordCount(n))
	for e := 0; e < n; e++ {
		if rng.Float64() < p {
			quorum.SetWordBit(words, e)
		}
	}
	return words
}

// TestWideDifferentialWordMask pins the one-word form of every
// construction that fits one word to two references: on the small
// fixtures, exhaustively, to a superset scan over the enumerated minimal
// quorums; on word-sized instances, whose quorums are too many to
// enumerate, to the bitset ContainsQuorum on random masks.
func TestWideDifferentialWordMask(t *testing.T) {
	for _, sys := range maskFixtures(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			quorums := quorum.MasksOf(sys.Quorums())
			words := make([]uint64, 1)
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				words[0] = mask
				want := false
				for _, q := range quorums {
					want = want || mask&q == q
				}
				if got := sys.ContainsQuorumWords(words); got != want {
					t.Fatalf("mask %#b: ContainsQuorumWords=%v, quorum scan=%v", mask, got, want)
				}
			}
		})
	}
	// Word-sized instances: random masks instead of 2^n enumeration.
	mk := func(sys quorum.System, err error) quorum.WideMaskSystem {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sys.(quorum.WideMaskSystem)
	}
	big := []quorum.WideMaskSystem{
		mk(NewMaj(63)), mk(NewWheel(64)), mk(NewTriang(10)),
		mk(NewTree(5)), mk(NewHQS(3)), mk(NewRecMaj(5, 2)),
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for _, sys := range big {
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			full := quorum.FullMask(n)
			words := make([]uint64, 1)
			for i := 0; i < 4096; i++ {
				mask := rng.Uint64() & full
				words[0] = mask
				if got, want := sys.ContainsQuorumWords(words), sys.ContainsQuorum(quorum.SetOfMask(n, mask)); got != want {
					t.Fatalf("mask %#x: ContainsQuorumWords=%v, ContainsQuorum=%v", mask, got, want)
				}
			}
		})
	}
}

// TestWideMatchesBitsetLarge cross-checks the wide characteristic
// function against the bitset one at large n: the structural recursions
// must agree with ContainsQuorum on random subsets across the whole
// density range.
func TestWideMatchesBitsetLarge(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, fx := range wideFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			n := fx.sys.Size()
			for _, p := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
				for i := 0; i < 8; i++ {
					words := randomWords(n, p, rng)
					got := fx.sys.ContainsQuorumWords(words)
					want := fx.sys.ContainsQuorum(quorum.SetOfWords(n, words))
					if got != want {
						t.Fatalf("p=%v draw %d: ContainsQuorumWords=%v, ContainsQuorum=%v", p, i, got, want)
					}
				}
			}
		})
	}
}

// TestWideMonotoneAndComplement is the seeded property sweep of the wide
// path at n in {65, ..., 1025}: adding elements never un-satisfies a
// quorum, the full universe always contains one, the empty mask never
// does, and — the systems being nondominated coteries — a mask and its
// complement never both contain a quorum.
func TestWideMonotoneAndComplement(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for _, fx := range wideFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			n := fx.sys.Size()
			if fx.sys.ContainsQuorumWords(make([]uint64, quorum.WordCount(n))) {
				t.Fatal("empty mask claims a quorum")
			}
			if !fx.sys.ContainsQuorumWords(quorum.FullWords(n)) {
				t.Fatal("full mask claims no quorum")
			}
			comp := make([]uint64, quorum.WordCount(n))
			for _, p := range []float64{0.2, 0.5, 0.8} {
				for i := 0; i < 6; i++ {
					words := randomWords(n, p, rng)
					had := fx.sys.ContainsQuorumWords(words)
					quorum.ComplementWordsInto(comp, words, n)
					if had && fx.sys.ContainsQuorumWords(comp) {
						t.Fatalf("p=%v draw %d: mask and complement both contain a quorum", p, i)
					}
					// Monotonicity: grow the mask element by element.
					for j := 0; j < 64; j++ {
						quorum.SetWordBit(words, rng.IntN(n))
					}
					if had && !fx.sys.ContainsQuorumWords(words) {
						t.Fatalf("p=%v draw %d: adding elements un-satisfied the quorum", p, i)
					}
				}
			}
		})
	}
}

// FuzzWideMaskConsistency fuzzes the wide path on a representative
// construction of each structural family: for any seed-derived subset,
// the wide test agrees with the bitset test and respects monotonicity.
func FuzzWideMaskConsistency(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(3))
	f.Add(uint64(97), uint64(11), uint8(200))
	f.Fuzz(func(t *testing.T, s1, s2 uint64, grow uint8) {
		maj, _ := NewMaj(129)
		tree, _ := NewTree(6)
		hqs, _ := NewHQS(4)
		tri, _ := NewTriang(16)
		rng := rand.New(rand.NewPCG(s1, s2))
		for _, sys := range []quorum.WideMaskSystem{maj, tree, hqs, tri} {
			n := sys.Size()
			words := randomWords(n, 0.5, rng)
			got := sys.ContainsQuorumWords(words)
			if want := sys.ContainsQuorum(quorum.SetOfWords(n, words)); got != want {
				t.Fatalf("%s: wide=%v bitset=%v", sys.Name(), got, want)
			}
			for j := 0; j < int(grow); j++ {
				quorum.SetWordBit(words, rng.IntN(n))
			}
			if got && !sys.ContainsQuorumWords(words) {
				t.Fatalf("%s: monotonicity violated", sys.Name())
			}
		}
	})
}
