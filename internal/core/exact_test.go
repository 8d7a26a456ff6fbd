package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

// monteCarlo estimates the expected probes of a randomized algorithm on a
// fixed coloring.
func monteCarlo(col *coloring.Coloring, trials int, rng *rand.Rand,
	run func(o probe.Oracle, rng *rand.Rand) probe.Witness) float64 {
	total := 0
	for i := 0; i < trials; i++ {
		o := probe.NewOracle(col)
		run(o, rng)
		total += o.Probes()
	}
	return float64(total) / float64(trials)
}

func TestExactRProbeMajMatchesMonteCarlo(t *testing.T) {
	m, _ := systems.NewMaj(9)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, reds := range [][]int{{}, {0}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5, 6, 7, 8}, {2, 4, 6}} {
		col := coloring.FromReds(9, reds)
		exact := ExactRProbeMaj(m, col)
		mc := monteCarlo(col, 20000, rng, func(o probe.Oracle, r *rand.Rand) probe.Witness {
			return m.ProbeWitnessRandomized(o, r)
		})
		if math.Abs(exact-mc) > 0.08 {
			t.Errorf("reds=%v: exact %.4f vs MC %.4f", reds, exact, mc)
		}
	}
}

// Theorem 4.2: the worst case of R_Probe_Maj is n - (n-1)/(n+3), attained
// at r = (n+1)/2 red elements.
func TestRProbeMajWorstCase(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9, 11} {
		m, _ := systems.NewMaj(n)
		worst := 0.0
		for r := 0; r <= n; r++ {
			col := coloring.FixedWeight(n, r, rand.New(rand.NewPCG(uint64(n), uint64(r))))
			if e := ExactRProbeMaj(m, col); e > worst {
				worst = e
			}
		}
		want := float64(n) - float64(n-1)/float64(n+3)
		if math.Abs(worst-want) > 1e-9 {
			t.Errorf("n=%d: worst expected probes %.6f, want %.6f", n, worst, want)
		}
	}
}

// The §2.3 worked example: PCR(Maj3) = 2 2/3 for the random-permutation
// strategy on the hard input (2 red, 1 green or the inverse).
func TestMaj3RandomizedExample(t *testing.T) {
	m, _ := systems.NewMaj(3)
	col := coloring.FromReds(3, []int{0, 1})
	if got, want := ExactRProbeMaj(m, col), 8.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ExactRProbeMaj(Maj3, RRG) = %v, want 8/3", got)
	}
}

func TestExactRProbeCWMatchesMonteCarlo(t *testing.T) {
	cw, _ := systems.NewCW([]int{1, 3, 4})
	rng := rand.New(rand.NewPCG(3, 4))
	cols := []*coloring.Coloring{
		coloring.FromReds(8, []int{}),
		coloring.FromReds(8, []int{1, 4}),
		coloring.FromReds(8, []int{0, 1, 2, 3}),
		coloring.FromReds(8, []int{4, 5, 6, 7}),
		coloring.FromReds(8, []int{1, 2, 3, 5, 6}),
	}
	for _, col := range cols {
		exact := ExactRProbeCW(cw, col)
		mc := monteCarlo(col, 20000, rng, func(o probe.Oracle, r *rand.Rand) probe.Witness {
			return cw.ProbeWitnessRandomized(o, r)
		})
		if math.Abs(exact-mc) > 0.06 {
			t.Errorf("%s: exact %.4f vs MC %.4f", col, exact, mc)
		}
	}
}

// Theorem 4.4: worst case of R_Probe_CW equals
// max_j { n_j + sum_{i>j} ((n_i+1)/2 + 1/n_i) }.
func TestRProbeCWWorstCaseFormula(t *testing.T) {
	cw, _ := systems.NewCW([]int{1, 2, 4, 3})
	widths := cw.Widths()
	k := cw.Rows()

	// Exhaustive worst case via the exact evaluator.
	worst := 0.0
	coloring.All(cw.Size(), func(col *coloring.Coloring) bool {
		if e := ExactRProbeCW(cw, col); e > worst {
			worst = e
		}
		return true
	})

	want := 0.0
	for j := 0; j < k; j++ {
		v := float64(widths[j])
		for i := j + 1; i < k; i++ {
			v += (float64(widths[i])+1)/2 + 1/float64(widths[i])
		}
		if v > want {
			want = v
		}
	}
	if math.Abs(worst-want) > 1e-9 {
		t.Errorf("worst = %.6f, formula = %.6f", worst, want)
	}
}

func TestExactRProbeTreeMatchesMonteCarlo(t *testing.T) {
	tr, _ := systems.NewTree(2)
	rng := rand.New(rand.NewPCG(5, 6))
	cols := []*coloring.Coloring{
		coloring.FromReds(7, []int{}),
		coloring.FromReds(7, []int{0}),
		coloring.FromReds(7, []int{3, 4, 5, 6}),
		coloring.FromReds(7, []int{0, 1, 4, 6}),
		coloring.FromReds(7, []int{1, 2}),
	}
	for _, col := range cols {
		exact := ExactRProbeTree(tr, col)
		mc := monteCarlo(col, 20000, rng, func(o probe.Oracle, r *rand.Rand) probe.Witness {
			return tr.ProbeWitnessRandomized(o, r)
		})
		if math.Abs(exact-mc) > 0.06 {
			t.Errorf("%s: exact %.4f vs MC %.4f", col, exact, mc)
		}
	}
}

// Theorem 4.7: R_Probe_Tree needs at most 5n/6 + 1/6 expected probes on
// every input. Verified exhaustively via the exact evaluator.
func TestRProbeTreeUpperBound(t *testing.T) {
	for h := 0; h <= 3; h++ {
		tr, _ := systems.NewTree(h)
		n := tr.Size()
		bound := 5.0*float64(n)/6.0 + 1.0/6.0
		worst := 0.0
		coloring.All(n, func(col *coloring.Coloring) bool {
			if e := ExactRProbeTree(tr, col); e > worst {
				worst = e
			}
			return true
		})
		if worst > bound+1e-9 {
			t.Errorf("h=%d: worst expected probes %.4f > bound %.4f", h, worst, bound)
		}
	}
}

func TestExactRProbeHQSMatchesMonteCarlo(t *testing.T) {
	hq, _ := systems.NewHQS(2)
	rng := rand.New(rand.NewPCG(7, 8))
	cols := []*coloring.Coloring{
		coloring.FromReds(9, []int{}),
		coloring.FromReds(9, []int{0, 1, 2, 3}),
		WorstCaseHQS(hq, coloring.Green, nil),
		coloring.FromReds(9, []int{0, 3, 6}),
	}
	for _, col := range cols {
		exact := ExactRProbeHQS(hq, col)
		mc := monteCarlo(col, 20000, rng, func(o probe.Oracle, r *rand.Rand) probe.Witness {
			return RProbeHQS(hq, o, r)
		})
		if math.Abs(exact-mc) > 0.06 {
			t.Errorf("%s: exact %.4f vs MC %.4f", col, exact, mc)
		}
	}
}

// Proposition 4.9: R_Probe_HQS costs (8/3)^h on class-P inputs, which are
// its worst case.
func TestRProbeHQSClassPGrowth(t *testing.T) {
	for h := 1; h <= 4; h++ {
		hq, _ := systems.NewHQS(h)
		col := WorstCaseHQS(hq, coloring.Green, nil)
		got := ExactRProbeHQS(hq, col)
		want := math.Pow(8.0/3.0, float64(h))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("h=%d: class-P expectation %.6f, want (8/3)^h = %.6f", h, got, want)
		}
	}
	// Class P is the exact worst case at height 2 (exhaustive check).
	hq, _ := systems.NewHQS(2)
	worst := 0.0
	coloring.All(9, func(col *coloring.Coloring) bool {
		if e := ExactRProbeHQS(hq, col); e > worst {
			worst = e
		}
		return true
	})
	if want := math.Pow(8.0/3.0, 2); math.Abs(worst-want) > 1e-9 {
		t.Errorf("exhaustive worst %.6f, want %.6f", worst, want)
	}
}

func TestExactIRProbeHQSMatchesMonteCarlo(t *testing.T) {
	hq, _ := systems.NewHQS(2)
	rng := rand.New(rand.NewPCG(9, 10))
	cols := []*coloring.Coloring{
		coloring.FromReds(9, []int{}),
		WorstCaseHQS(hq, coloring.Green, nil),
		coloring.FromReds(9, []int{0, 1, 2, 3}),
		coloring.FromReds(9, []int{2, 5, 8}),
	}
	for _, col := range cols {
		exact := ExactIRProbeHQS(hq, col)
		mc := monteCarlo(col, 40000, rng, func(o probe.Oracle, r *rand.Rand) probe.Witness {
			return hq.ProbeWitnessRandomized(o, r)
		})
		if math.Abs(exact-mc) > 0.06 {
			t.Errorf("%s: exact %.4f vs MC %.4f", col, exact, mc)
		}
	}
}

// Lemma 4.12 / Fig. 9: the improved algorithm's expected recursive calls
// per two levels on worst-case (class P) inputs. A faithful implementation
// of Fig. 8 yields 191/27 per two levels; the paper's Fig. 9 bookkeeping
// reports 189.5/27, undercharging by 1/2 the subcase where the second
// child must be completed after both a disagreeing grandchild and a
// disagreeing third child (the remaining two grandchildren always need 2
// evaluations there, not 3/2). Both constants beat R_Probe_HQS's
// (8/3)^2 = 192/27; see EXPERIMENTS.md.
func TestIRProbeHQSClassPConstant(t *testing.T) {
	hq, _ := systems.NewHQS(2)
	col := WorstCaseHQS(hq, coloring.Green, nil)
	got := ExactIRProbeHQS(hq, col)
	want := 191.0 / 27.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("class-P h=2 expectation = %.9f, want 191/27 = %.9f", got, want)
	}
	if paper := 189.5 / 27.0; got < paper {
		t.Errorf("expectation %.6f below the paper's Fig. 9 value %.6f — bookkeeping note is stale", got, paper)
	}
	if rpc := math.Pow(8.0/3.0, 2); got >= rpc {
		t.Errorf("IR expectation %.6f does not improve on R_Probe_HQS %.6f", got, rpc)
	}
}

// The IR recursion multiplies by the same constant every two levels on
// class-P inputs.
func TestIRProbeHQSTwoLevelRecursion(t *testing.T) {
	g2, _ := systems.NewHQS(2)
	g4, _ := systems.NewHQS(4)
	e2 := ExactIRProbeHQS(g2, WorstCaseHQS(g2, coloring.Green, nil))
	e4 := ExactIRProbeHQS(g4, WorstCaseHQS(g4, coloring.Green, nil))
	if ratio := e4 / e2; math.Abs(ratio-191.0/27.0) > 1e-6 {
		t.Errorf("g(4)/g(2) = %.9f, want 191/27 = %.9f", ratio, 191.0/27.0)
	}
}

// Exhaustive worst case of IR at height 2: class P attains the maximum.
func TestIRProbeHQSWorstCaseIsClassP(t *testing.T) {
	hq, _ := systems.NewHQS(2)
	worst := 0.0
	var argmax *coloring.Coloring
	coloring.All(9, func(col *coloring.Coloring) bool {
		if e := ExactIRProbeHQS(hq, col); e > worst {
			worst = e
			argmax = col.Clone()
		}
		return true
	})
	if want := 191.0 / 27.0; math.Abs(worst-want) > 1e-9 {
		t.Errorf("exhaustive worst %.9f (at %s), want 191/27 = %.9f", worst, argmax, want)
	}
}

// Deterministic algorithms: exact expectation under IID failures equals
// the coloring-probability-weighted sum.
func TestDeterministicProbesWeighting(t *testing.T) {
	m, _ := systems.NewMaj(5)
	// At p = 0 every ProbeMaj run stops after exactly threshold probes.
	col := coloring.New(5)
	if got := DeterministicProbes(col, m.ProbeWitness); got != 3 {
		t.Errorf("all-green ProbeMaj probes = %d, want 3", got)
	}
	// All red: stops after threshold red probes.
	allRed := coloring.FromReds(5, []int{0, 1, 2, 3, 4})
	if got := DeterministicProbes(allRed, m.ProbeWitness); got != 3 {
		t.Errorf("all-red ProbeMaj probes = %d, want 3", got)
	}
}
