package core

import (
	"math/rand/v2"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// verifyAlg exhaustively checks an algorithm on every coloring of the
// system's universe: the returned witness must be sound (a monochromatic
// quorum of probed elements matching the true system state).
func verifyAlg(t *testing.T, sys quorum.System, run func(o probe.Oracle) probe.Witness) {
	t.Helper()
	n := sys.Size()
	coloring.All(n, func(col *coloring.Coloring) bool {
		o := probe.NewOracle(col)
		w := run(o)
		if err := probe.Verify(sys, w, col, o.Probed()); err != nil {
			t.Fatalf("%s on %s: %v", sys.Name(), col, err)
		}
		if o.Probes() > n {
			t.Fatalf("%s on %s: %d probes > n", sys.Name(), col, o.Probes())
		}
		return true
	})
}

func TestProbeMajSound(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9} {
		m, err := systems.NewMaj(n)
		if err != nil {
			t.Fatal(err)
		}
		verifyAlg(t, m, m.ProbeWitness)
	}
}

func TestProbeCWSound(t *testing.T) {
	for _, widths := range [][]int{{1}, {1, 2}, {1, 3}, {1, 2, 3}, {1, 2, 2, 3}} {
		c, err := systems.NewCW(widths)
		if err != nil {
			t.Fatal(err)
		}
		verifyAlg(t, c, c.ProbeWitness)
	}
}

func TestProbeTreeSound(t *testing.T) {
	for h := 0; h <= 3; h++ {
		tr, err := systems.NewTree(h)
		if err != nil {
			t.Fatal(err)
		}
		verifyAlg(t, tr, tr.ProbeWitness)
	}
}

func TestProbeHQSSound(t *testing.T) {
	for h := 0; h <= 2; h++ {
		q, err := systems.NewHQS(h)
		if err != nil {
			t.Fatal(err)
		}
		verifyAlg(t, q, q.ProbeWitness)
	}
}

func TestRandomizedAlgorithmsSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	m, _ := systems.NewMaj(7)
	cw, _ := systems.NewCW([]int{1, 3, 2})
	tr, _ := systems.NewTree(2)
	hq, _ := systems.NewHQS(2)
	cases := []struct {
		sys quorum.System
		run func(o probe.Oracle) probe.Witness
	}{
		{m, func(o probe.Oracle) probe.Witness { return m.ProbeWitnessRandomized(o, rng) }},
		{cw, func(o probe.Oracle) probe.Witness { return cw.ProbeWitnessRandomized(o, rng) }},
		{tr, func(o probe.Oracle) probe.Witness { return tr.ProbeWitnessRandomized(o, rng) }},
		{hq, func(o probe.Oracle) probe.Witness { return hq.RecMaj.ProbeWitnessRandomized(o, rng) }},
		{hq, func(o probe.Oracle) probe.Witness { return hq.ProbeWitnessRandomized(o, rng) }},
	}
	for _, c := range cases {
		t.Run(c.sys.Name(), func(t *testing.T) {
			// Repeat the exhaustive sweep a few times to exercise the
			// random choices.
			for rep := 0; rep < 5; rep++ {
				verifyAlg(t, c.sys, c.run)
			}
		})
	}
}

func TestIRProbeHQSSoundLargerTree(t *testing.T) {
	// Height 4 exercises the >= 2-level recursion (peeking path) deeply.
	rng := rand.New(rand.NewPCG(3, 5))
	hq, _ := systems.NewHQS(4)
	for rep := 0; rep < 300; rep++ {
		col := coloring.IID(hq.Size(), 0.5, rng)
		o := probe.NewOracle(col)
		w := hq.ProbeWitnessRandomized(o, rng)
		if err := probe.Verify(hq, w, col, o.Probed()); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
	}
}

func TestBaselinesSound(t *testing.T) {
	m, _ := systems.NewMaj(5)
	cw, _ := systems.NewCW([]int{1, 2, 3})
	tr, _ := systems.NewTree(2)
	hq, _ := systems.NewHQS(2)
	wh, _ := systems.NewWheel(6)
	rng := rand.New(rand.NewPCG(17, 19))
	for _, sys := range []systemWithFinder{m, cw, tr, hq, wh} {
		t.Run(sys.Name(), func(t *testing.T) {
			verifyAlg(t, sys, func(o probe.Oracle) probe.Witness { return SequentialScan(sys, o) })
			verifyAlg(t, sys, func(o probe.Oracle) probe.Witness { return Universal(sys, o) })
			verifyAlg(t, sys, func(o probe.Oracle) probe.Witness { return RandomScan(sys, o, rng) })
		})
	}
}

// Theorem 3.3: Probe_CW probes at most 2k-1 elements in expectation, for
// every p. We check the stronger per-trial soundness plus the expectation
// on exact IID averages.
func TestProbeCWExpectationBound(t *testing.T) {
	cw, err := systems.NewCW([]int{1, 4, 3, 5, 2}) // k = 5, n = 15
	if err != nil {
		t.Fatal(err)
	}
	k := cw.Rows()
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		// Exact expectation by enumerating all colorings, weighted by p.
		exp := 0.0
		coloring.All(cw.Size(), func(col *coloring.Coloring) bool {
			probes := DeterministicProbes(col, cw.ProbeWitness)
			exp += float64(probes) * col.Probability(p)
			return true
		})
		if bound := float64(2*k - 1); exp > bound {
			t.Errorf("p=%.1f: E[probes] = %.4f > 2k-1 = %.0f", p, exp, bound)
		}
	}
}

// The universal snoop never exceeds roughly c^2 probes on c-uniform
// systems (Peleg & Wool [15]).
func TestUniversalProbeBoundUniform(t *testing.T) {
	hq, _ := systems.NewHQS(2) // c = 4
	c := hq.QuorumSize()
	coloring.All(hq.Size(), func(col *coloring.Coloring) bool {
		o := probe.NewOracle(col)
		Universal(hq, o)
		if o.Probes() > c*c {
			t.Fatalf("universal used %d probes > c^2 = %d on %s", o.Probes(), c*c, col)
		}
		return true
	})
}

// Lemma 2.2 precondition: the deterministic sequential scan probes all n
// elements on some coloring for evasive systems (Maj with the alternating
// adversary input).
func TestSequentialScanWorstCase(t *testing.T) {
	m, _ := systems.NewMaj(7)
	worst := 0
	coloring.All(7, func(col *coloring.Coloring) bool {
		probes := DeterministicProbes(col, func(o probe.Oracle) probe.Witness {
			return SequentialScan(m, o)
		})
		if probes > worst {
			worst = probes
		}
		return true
	})
	if worst != 7 {
		t.Errorf("sequential scan worst case = %d, want 7 (evasive)", worst)
	}
}

func TestWorstCaseHQSClassP(t *testing.T) {
	hq, _ := systems.NewHQS(3)
	rng := rand.New(rand.NewPCG(23, 29))
	for _, r := range []*rand.Rand{nil, rng} {
		col := WorstCaseHQS(hq, coloring.Green, r)
		// Class P invariant: every gate has exactly two children of its
		// value.
		var check func(start, size int) coloring.Color
		check = func(start, size int) coloring.Color {
			if size == 1 {
				return col.Of(start)
			}
			third := size / 3
			counts := map[coloring.Color]int{}
			var vals [3]coloring.Color
			for i := 0; i < 3; i++ {
				vals[i] = check(start+i*third, third)
				counts[vals[i]]++
			}
			var maj coloring.Color
			for v, c := range counts {
				if c == 2 {
					maj = v
				}
			}
			if maj == 0 {
				t.Fatalf("gate [%d,%d) has child values %v; want exactly 2-1 split", start, start+size, vals)
			}
			return maj
		}
		if got := check(0, hq.Size()); got != coloring.Green {
			t.Errorf("root value = %s, want green", got)
		}
	}
}

func TestHardTreeDistribution(t *testing.T) {
	tr, _ := systems.NewTree(2)
	dist := HardTreeDistribution(tr)
	if len(dist) != 9 { // 3^2 height-1 subtrees... 2 subtrees -> 9
		t.Fatalf("support size = %d, want 9", len(dist))
	}
	total := 0.0
	for _, w := range dist {
		total += w.Weight
		// Each coloring: root green, each height-1 subtree has exactly 1
		// green among its 3 nodes.
		if w.Coloring.IsRed(0) {
			t.Errorf("root red in %s", w.Coloring)
		}
		if got := w.Coloring.RedCount(); got != 4 {
			t.Errorf("coloring %s has %d reds, want 4", w.Coloring, got)
		}
		// The system state must be red (a red witness exists).
		if state := probe.StateOf(tr, w.Coloring); state != coloring.Red {
			t.Errorf("state = %v, want red", state)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("weights sum to %v", total)
	}
}

func TestHardCWDistribution(t *testing.T) {
	cw, _ := systems.NewCW([]int{1, 2, 3})
	dist := HardCWDistribution(cw)
	if len(dist) != 6 { // 1*2*3
		t.Fatalf("support size = %d, want 6", len(dist))
	}
	for _, w := range dist {
		if got := w.Coloring.GreenCount(); got != 3 {
			t.Errorf("coloring %s has %d greens, want one per row", w.Coloring, got)
		}
	}
	rng := rand.New(rand.NewPCG(31, 37))
	for i := 0; i < 50; i++ {
		col := HardCWSample(cw, rng)
		if col.GreenCount() != 3 {
			t.Errorf("sample %s has %d greens", col, col.GreenCount())
		}
	}
}

func TestHardTreeSampleMatchesDistribution(t *testing.T) {
	tr, _ := systems.NewTree(2)
	rng := rand.New(rand.NewPCG(41, 43))
	dist := HardTreeDistribution(tr)
	support := map[string]bool{}
	for _, w := range dist {
		support[w.Coloring.String()] = true
	}
	for i := 0; i < 100; i++ {
		col := HardTreeSample(tr, rng)
		if !support[col.String()] {
			t.Fatalf("sample %s outside the distribution support", col)
		}
	}
}

func TestMajHardDistribution(t *testing.T) {
	m, _ := systems.NewMaj(5)
	dist := MajHardDistribution(m)
	if len(dist) != 10 { // C(5,3)
		t.Fatalf("support size = %d, want 10", len(dist))
	}
	for _, w := range dist {
		if w.Coloring.RedCount() != 3 {
			t.Errorf("coloring %s has %d reds, want 3", w.Coloring, w.Coloring.RedCount())
		}
	}
}
