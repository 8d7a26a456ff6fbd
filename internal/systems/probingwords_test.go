package systems

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// probeFixtures returns the constructions the probing differentials run
// over: the small word-path instances plus one wide instance per family.
func probeFixtures(t *testing.T) []quorum.System {
	t.Helper()
	out := []quorum.System{}
	for _, sys := range maskFixtures(t) {
		out = append(out, sys)
	}
	big := []struct {
		sys quorum.System
		err error
	}{}
	addBig := func(sys quorum.System, err error) {
		big = append(big, struct {
			sys quorum.System
			err error
		}{sys, err})
	}
	m, err := NewMaj(129)
	addBig(m, err)
	w, err := NewWheel(100)
	addBig(w, err)
	c, err := NewTriang(14) // n = 105
	addBig(c, err)
	tr, err := NewTree(6) // n = 127
	addBig(tr, err)
	q, err := NewHQS(4) // n = 81
	addBig(q, err)
	vw := make([]int, 90)
	for i := range vw {
		vw[i] = 1 + i%4
	}
	vtotal := 0
	for _, x := range vw {
		vtotal += x
	}
	if vtotal%2 == 0 {
		vw[0]++
	}
	v, err := NewVote(vw)
	addBig(v, err)
	r, err := NewRecMaj(5, 3) // n = 125
	addBig(r, err)
	for _, b := range big {
		if b.err != nil {
			t.Fatal(b.err)
		}
		out = append(out, b.sys)
	}
	return out
}

// TestWordsProberMatchesBitset pins the wide deterministic strategies to
// the bitset ones: for the same coloring both paths must probe the same
// number of distinct elements, reach the same conclusion and assemble
// exactly the same witness set.
func TestWordsProberMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for _, sys := range probeFixtures(t) {
		wp, ok := sys.(probe.WordsProber)
		if !ok {
			t.Fatalf("%s does not implement WordsProber", sys.Name())
		}
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			wo := probe.NewWordsOracle(n)
			for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
				for i := 0; i < 10; i++ {
					col := coloring.IID(n, p, rng)
					bo := probe.NewOracle(col)
					want := wp.ProbeWitness(bo)

					wo.SetColoring(col)
					wo.Reset()
					got := wp.ProbeWitnessWords(wo)

					if got.Color != want.Color {
						t.Fatalf("p=%v draw %d: words color %v, bitset %v", p, i, got.Color, want.Color)
					}
					if wo.Probes() != bo.Probes() {
						t.Fatalf("p=%v draw %d: words probes %d, bitset %d", p, i, wo.Probes(), bo.Probes())
					}
					if !quorum.SetOfWords(n, got.Words).Equal(want.Set) {
						t.Fatalf("p=%v draw %d: words witness %v, bitset witness %v",
							p, i, quorum.SetOfWords(n, got.Words), want.Set)
					}
					if !quorum.SetOfWords(n, wo.ProbedWords()).Equal(bo.Probed()) {
						t.Fatalf("p=%v draw %d: probed sets differ", p, i)
					}
				}
			}
		})
	}
}

// TestMajWordsProberBlocksMatchBitset pins block probing to the bitset
// Probe_Maj: the words strategy probes in blocks a word at a time, so the
// differential runs at word edges (63, 65, 127, 129, 191) up to n = 4095
// and at p near 0, 1/2 and 1, where the blocks are longest, shortest and
// most lopsided. Color, probe count, witness and probed set must match on
// every coloring.
func TestMajWordsProberBlocksMatchBitset(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for _, n := range []int{1, 3, 5, 63, 65, 127, 129, 191, 1025, 4095} {
		m, err := NewMaj(n)
		if err != nil {
			t.Fatal(err)
		}
		wo := probe.NewWordsOracle(n)
		for _, p := range []float64{0, 0.01, 0.2, 0.45, 0.5, 0.55, 0.8, 0.99, 1} {
			for i := 0; i < 300; i++ {
				col := coloring.IID(n, p, rng)
				bo := probe.NewOracle(col)
				want := m.ProbeWitness(bo)

				wo.SetColoring(col)
				wo.Reset()
				got := m.ProbeWitnessWords(wo)

				if got.Color != want.Color || wo.Probes() != bo.Probes() {
					t.Fatalf("n=%d p=%v draw %d: words %v after %d probes, bitset %v after %d",
						n, p, i, got.Color, wo.Probes(), want.Color, bo.Probes())
				}
				if !quorum.SetOfWords(n, got.Words).Equal(want.Set) {
					t.Fatalf("n=%d p=%v draw %d: witnesses differ", n, p, i)
				}
				if !quorum.SetOfWords(n, wo.ProbedWords()).Equal(bo.Probed()) {
					t.Fatalf("n=%d p=%v draw %d: probed sets differ", n, p, i)
				}
			}
		}
	}
}

// TestRandomizedWordsProberMatchesBitset is the randomized counterpart.
// The randomized strategies have one implementation, which the words
// path (FindWitnessWordsRandomized) runs against a WordsOracle; with
// identically seeded PRNGs it must consume the stream, probe and answer
// exactly as it does against a bitset Oracle.
func TestRandomizedWordsProberMatchesBitset(t *testing.T) {
	colRNG := rand.New(rand.NewPCG(17, 19))
	for _, sys := range probeFixtures(t) {
		rp, ok := sys.(probe.RandomizedProber)
		if !ok {
			t.Fatalf("%s does not implement RandomizedProber", sys.Name())
		}
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			wo := probe.NewWordsOracle(n)
			for _, p := range []float64{0.2, 0.5, 0.8} {
				for i := 0; i < 8; i++ {
					col := coloring.IID(n, p, colRNG)
					seed := uint64(i)*31 + 1
					bo := probe.NewOracle(col)
					wantRNG := rand.New(rand.NewPCG(seed, 2))
					want := rp.ProbeWitnessRandomized(bo, wantRNG)

					wo.SetColoring(col)
					wo.Reset()
					gotRNG := rand.New(rand.NewPCG(seed, 2))
					got := rp.ProbeWitnessRandomized(wo, gotRNG)

					if got.Color != want.Color {
						t.Fatalf("p=%v draw %d: words color %v, bitset %v", p, i, got.Color, want.Color)
					}
					if wo.Probes() != bo.Probes() {
						t.Fatalf("p=%v draw %d: words probes %d, bitset %d", p, i, wo.Probes(), bo.Probes())
					}
					if !got.Set.Equal(want.Set) {
						t.Fatalf("p=%v draw %d: witnesses differ", p, i)
					}
					if !quorum.SetOfWords(n, wo.ProbedWords()).Equal(bo.Probed()) {
						t.Fatalf("p=%v draw %d: probed sets differ", p, i)
					}
					if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
						t.Fatalf("p=%v draw %d: next draw %d on words, %d on bitset", p, i, g, w)
					}
				}
			}
		})
	}
}

// TestWordsProberSound verifies the wide witnesses on their own terms: a
// green witness must contain a quorum of green elements; a red witness a
// quorum of red elements; every witness element must have been probed.
func TestWordsProberSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for _, sys := range probeFixtures(t) {
		wp := sys.(probe.WordsProber)
		ws := sys.(quorum.WideMaskSystem)
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			wo := probe.NewWordsOracle(n)
			for i := 0; i < 20; i++ {
				coloring.IIDWordsInto(wo.RedWords(), n, 0.5, rng)
				wo.Reset()
				w := wp.ProbeWitnessWords(wo)
				if !ws.ContainsQuorumWords(w.Words) {
					t.Fatalf("draw %d: witness contains no quorum", i)
				}
				if !quorum.SubsetOfWords(w.Words, wo.ProbedWords()) {
					t.Fatalf("draw %d: witness includes unprobed elements", i)
				}
				for j, word := range w.Words {
					var wrong uint64
					if w.Color == coloring.Green {
						wrong = word & wo.RedWords()[j]
					} else {
						wrong = word &^ wo.RedWords()[j]
					}
					if wrong != 0 {
						t.Fatalf("draw %d: witness word %d has wrong-colored elements %#x", i, j, wrong)
					}
				}
			}
		})
	}
}

// TestWordsProbeTrialAllocFree pins the acceptance criterion that wide
// Monte Carlo trials do not allocate: after the first (warm-up) trial
// grows the oracle arena, a full redraw-reset-probe trial performs zero
// heap allocations for the deterministic strategies at large n.
func TestWordsProbeTrialAllocFree(t *testing.T) {
	for _, build := range []func() (quorum.System, error){
		func() (quorum.System, error) { return NewMaj(1025) },
		func() (quorum.System, error) { return NewTree(6) },
		func() (quorum.System, error) { return NewRecMaj(3, 6) },
		func() (quorum.System, error) { return NewHQS(5) },
		func() (quorum.System, error) { return NewTriang(45) },
	} {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		wp := sys.(probe.WordsProber)
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			wo := probe.NewWordsOracle(n)
			rng := rand.New(rand.NewPCG(1, 1))
			trial := func() {
				coloring.IIDWordsInto(wo.RedWords(), n, 0.4, rng)
				wo.Reset()
				wp.ProbeWitnessWords(wo)
			}
			trial() // warm the arena to its high-water mark
			if allocs := testing.AllocsPerRun(50, trial); allocs != 0 {
				t.Fatalf("wide trial allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkMaj1025ProbeWitnessWords times the block-probing Probe_Maj of
// a wide Monte Carlo trial at three failure probabilities. The colorings
// are drawn ahead and cycled, so the draw stays out of the timing.
func BenchmarkMaj1025ProbeWitnessWords(b *testing.B) {
	m, err := NewMaj(1025)
	if err != nil {
		b.Fatal(err)
	}
	n := m.Size()
	for _, p := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 4))
			cols := make([][]uint64, 64)
			for i := range cols {
				cols[i] = coloring.IIDWords(n, p, rng)
			}
			wo := probe.NewWordsOracle(n)
			i := 0
			for b.Loop() {
				copy(wo.RedWords(), cols[i%len(cols)])
				i++
				wo.Reset()
				m.ProbeWitnessWords(wo)
			}
		})
	}
}
