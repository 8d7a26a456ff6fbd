package systems

import (
	"fmt"
	"math"

	"probequorum/internal/availability"
	"probequorum/internal/quorum"
	"probequorum/internal/walk"
)

// This file implements the quorum.ExactExpectation capability: the exact
// expected probe count of each construction's ProbeWitness strategy under
// IID(p) failures, using the paper's own recursions with the exact
// availability values substituted for the bounds. The recursions are
// exposed as parameterized functions as well, because they extend beyond
// constructible universe sizes (e.g. the Tree expectation at height 32);
// the experiment drivers call them directly. The test suite validates
// each against full enumeration on small instances.

var (
	_ quorum.ExactExpectation = (*Maj)(nil)
	_ quorum.ExactExpectation = (*Wheel)(nil)
	_ quorum.ExactExpectation = (*CW)(nil)
	_ quorum.ExactExpectation = (*Tree)(nil)
	_ quorum.ExactExpectation = (*HQS)(nil)
	_ quorum.ExactExpectation = (*Vote)(nil)
	_ quorum.ExactExpectation = (*RecMaj)(nil)
)

func checkProbability(p float64) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("systems: probability %v out of [0,1]", p))
	}
}

// ExpectedProbeMajIID returns the exact expected probes of Probe_Maj on
// the majority system over n (odd) elements under IID(p) failures: the
// grid-walk exit time of Lemma 2.4 with N = (n+1)/2.
func ExpectedProbeMajIID(n int, p float64) float64 {
	if n <= 0 || n%2 == 0 {
		panic(fmt.Sprintf("systems: Maj requires odd positive n, got %d", n))
	}
	checkProbability(p)
	return walk.ExactExitTime((n+1)/2, p)
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (m *Maj) ExpectedProbesIID(p float64) float64 { return ExpectedProbeMajIID(m.n, p) }

// ExpectedProbeWheelIID returns the exact expected probes of the
// hub-first wheel strategy over n elements under IID(p) failures: one hub
// probe plus a truncated-geometric rim scan for the hub's color. With
// m = n-1 rim elements, E = 1 + (1 - p^m) + (1 - q^m): conditioning on
// the hub color, a scan for a green (resp. red) rim element costs
// (1 - p^m)/q (resp. (1 - q^m)/p) expected probes.
func ExpectedProbeWheelIID(n int, p float64) float64 {
	if n < 3 {
		panic(fmt.Sprintf("systems: Wheel requires n >= 3, got %d", n))
	}
	checkProbability(p)
	m := float64(n - 1)
	q := 1 - p
	return 1 + (1 - math.Pow(p, m)) + (1 - math.Pow(q, m))
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (w *Wheel) ExpectedProbesIID(p float64) float64 { return ExpectedProbeWheelIID(w.n, p) }

// ExpectedProbeCWIID returns the exact expected probes of Probe_CW on the
// crumbling wall with the given widths under IID(p) failures. Row i is
// probed until an element of the current mode appears; the mode is red
// with probability F_p(prefix wall), and the truncated-geometric scan of
// a width-w row costs (1 - p^w)/q in green mode and (1 - q^w)/p in red
// mode.
func ExpectedProbeCWIID(widths []int, p float64) float64 {
	if len(widths) == 0 {
		panic("systems: empty wall")
	}
	checkProbability(p)
	q := 1 - p
	total := 1.0 // the unique element of row 1
	for i := 1; i < len(widths); i++ {
		fPrefix := availability.CW(widths[:i], p)
		w := float64(widths[i])
		var greenScan, redScan float64
		if p == 0 {
			greenScan, redScan = 1, w
		} else if q == 0 {
			greenScan, redScan = w, 1
		} else {
			greenScan = (1 - math.Pow(p, w)) / q
			redScan = (1 - math.Pow(q, w)) / p
		}
		total += fPrefix*redScan + (1-fPrefix)*greenScan
	}
	return total
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (c *CW) ExpectedProbesIID(p float64) float64 { return ExpectedProbeCWIID(c.widths, p) }

// ExpectedProbeTreeIID returns the exact expected probes of Probe_Tree on
// the tree system of height h under IID(p) failures, via the §3.3
// recursion T(h) = 1 + T(h-1) + [q F(h-1) + p (1 - F(h-1))] T(h-1) with
// the exact subtree availability F.
func ExpectedProbeTreeIID(h int, p float64) float64 {
	if h < 0 {
		panic(fmt.Sprintf("systems: negative tree height %d", h))
	}
	checkProbability(p)
	q := 1 - p
	total := 1.0
	for i := 1; i <= h; i++ {
		f := availability.Tree(i-1, p)
		total = 1 + total + (q*f+p*(1-f))*total
	}
	return total
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (t *Tree) ExpectedProbesIID(p float64) float64 { return ExpectedProbeTreeIID(t.h, p) }

// ExpectedProbeHQSIID returns the exact expected probes of Probe_HQS on
// the HQS of height h under IID(p) failures, via the Theorem 3.8
// recursion T(h) = 2 T(h-1) + 2 F(1-F) T(h-1) with the exact subtree
// availability F.
func ExpectedProbeHQSIID(h int, p float64) float64 {
	if h < 0 {
		panic(fmt.Sprintf("systems: negative HQS height %d", h))
	}
	checkProbability(p)
	total := 1.0
	for i := 1; i <= h; i++ {
		f := availability.HQS(i-1, p)
		total = (2 + 2*f*(1-f)) * total
	}
	return total
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (q *HQS) ExpectedProbesIID(p float64) float64 { return ExpectedProbeHQSIID(q.h, p) }

// ExpectedProbeVoteIID returns the exact expected probes of the
// descending-weight voting scan under IID(p) failures: E[probes] is the
// sum over i of the probability that neither color has reached the weight
// threshold after the first i probes, computed by a knapsack-style DP
// over the green-weight distribution of the probed prefix.
func ExpectedProbeVoteIID(weights []int, p float64) float64 {
	v, err := NewVote(weights)
	if err != nil {
		panic(fmt.Sprintf("systems: %v", err))
	}
	return v.ExpectedProbesIID(p)
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (v *Vote) ExpectedProbesIID(p float64) float64 {
	checkProbability(p)
	order := v.probeOrder()
	t := v.Threshold()
	q := 1 - p
	// dist[g] = P(green weight == g) over the probed prefix.
	dist := make([]float64, v.total+1)
	dist[0] = 1
	prefixWeight := 0
	expected := 0.0
	for _, e := range order {
		// P(undecided after the current prefix): green weight below the
		// threshold and red weight prefixWeight-g below it too.
		undecided := 0.0
		for g := 0; g <= prefixWeight; g++ {
			if g < t && prefixWeight-g < t {
				undecided += dist[g]
			}
		}
		expected += undecided
		w := v.weights[e]
		for g := prefixWeight; g >= 0; g-- {
			if dist[g] == 0 {
				continue
			}
			dist[g+w] += dist[g] * q
			dist[g] *= p
		}
		prefixWeight += w
	}
	return expected
}

// ExpectedGateEvaluations returns the expected number of children a
// short-circuit majority gate evaluates until one side reaches the
// threshold t, when each child is independently green with probability a
// (DP over the (greens, reds) counts). For a = 1/2, t = 2 this is the
// paper's 5/2.
func ExpectedGateEvaluations(a float64, t int) float64 {
	if t < 1 {
		panic(fmt.Sprintf("systems: gate threshold must be positive, got %d", t))
	}
	if a < 0 || a > 1 {
		panic(fmt.Sprintf("systems: probability %v out of [0,1]", a))
	}
	// exp[g][r] = expected further evaluations with g greens and r reds
	// seen; absorbing at g == t or r == t.
	exp := make([][]float64, t+1)
	for g := range exp {
		exp[g] = make([]float64, t+1)
	}
	for g := t - 1; g >= 0; g-- {
		for r := t - 1; r >= 0; r-- {
			exp[g][r] = 1 + a*exp[g+1][r] + (1-a)*exp[g][r+1]
		}
	}
	return exp[0][0]
}

// ExpectedProbeRecMajIID returns the exact expected probes of the
// short-circuit gate evaluation on the recursive m-ary majority system of
// height h under IID(p) failures: by Wald's identity, the cost per level
// multiplies by the expected number of children a gate evaluates, with
// the child live-probability given by the exact availability recursion.
func ExpectedProbeRecMajIID(m, h int, p float64) float64 {
	if m < 3 || m%2 == 0 {
		panic(fmt.Sprintf("systems: RecMaj requires odd arity >= 3, got %d", m))
	}
	if h < 0 {
		panic(fmt.Sprintf("systems: negative height %d", h))
	}
	checkProbability(p)
	t := (m + 1) / 2
	cost := 1.0
	for level := 1; level <= h; level++ {
		a := 1 - availability.RecMaj(m, level-1, p)
		cost *= ExpectedGateEvaluations(a, t)
	}
	return cost
}

// ExpectedProbesIID implements quorum.ExactExpectation.
func (r *RecMaj) ExpectedProbesIID(p float64) float64 { return ExpectedProbeRecMajIID(r.m, r.h, p) }
