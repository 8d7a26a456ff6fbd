package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"probequorum/internal/analytic"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/sim"
	"probequorum/internal/stats"
	"probequorum/internal/strategy"
	"probequorum/internal/systems"
)

// mcDeterministic estimates the expected probes of a deterministic
// algorithm under IID(p) failures.
func mcDeterministic(n int, p float64, trials int, seed uint64,
	alg func(o probe.Oracle) probe.Witness) stats.Summary {
	return sim.Estimate(trials, seed, func(rng *rand.Rand) float64 {
		col := coloring.IID(n, p, rng)
		return float64(core.DeterministicProbes(col, alg))
	})
}

// PropositionMaj reproduces Proposition 3.2: PPC_p(Maj) = n - θ(sqrt n) at
// p = 1/2 and N/q for p < 1/2, using the exact walk DP (Probe_Maj's probe
// count is exactly the grid exit time with N = (n+1)/2).
func PropositionMaj() Report {
	r := Report{ID: "P3.2", Title: "Maj probabilistic probe complexity (Proposition 3.2)"}
	n := 101
	m, _ := systems.NewMaj(n)
	bigN := (n + 1) / 2
	for _, p := range []float64{0.5, 0.4, 0.3, 0.2, 0.1} {
		form := analytic.MajPPC(n, p)
		exact := systems.ExpectedProbeMajIID(n, p)
		mc := mcDeterministic(n, p, 4000, 32, m.ProbeWitness)
		r.addf("n=%d p=%.1f  exact=%8.3f  paper=%8.3f  %s  (mc=%8.3f)",
			n, p, exact, form, verdict(exact, form, 0.03), mc.Mean)
	}
	r.addf("(paper formula at p=1/2 uses the walk constant 2*sqrt(N/pi), N=%d)", bigN)
	return r
}

// TheoremProbeCW reproduces Theorem 3.3 / Fig. 5: Probe_CW needs at most
// 2k-1 expected probes for every p, independent of n.
func TheoremProbeCW() Report {
	r := Report{ID: "F5", Title: "Probe_CW expected probes <= 2k-1, independent of n (Theorem 3.3, Fig. 5)"}
	walls := [][]int{
		{1, 2, 3},          // n = 6, k = 3
		{1, 10, 10},        // n = 21, k = 3: same k, much larger n
		{1, 50, 50},        // n = 101, k = 3
		{1, 2, 3, 4, 5, 6}, // Triang(6): n = 21, k = 6
		{1, 9, 9, 9, 9, 9}, // n = 46, k = 6
	}
	for _, widths := range walls {
		cw, err := systems.NewCW(widths)
		if err != nil {
			r.addf("error: %v", err)
			continue
		}
		k := cw.Rows()
		bound := analytic.CWPPCUpper(k)
		for _, p := range []float64{0.5, 0.2} {
			exact := systems.ExpectedProbeCWIID(widths, p)
			ok := "ok"
			if exact > bound {
				ok = "DEVIATES"
			}
			r.addf("%-16s n=%-3d k=%d p=%.1f  exact=%7.3f  bound 2k-1=%5.0f  %s",
				cw.Name(), cw.Size(), k, p, exact, bound, ok)
		}
	}
	cw := mustSystem[*systems.CW]("cw:1,10,10")
	mc := mcDeterministic(cw.Size(), 0.5, 4000, 33, cw.ProbeWitness)
	r.addf("cross-check CW(1,10,10) p=0.5: exact=%.4f  monte-carlo=%.4f  %s",
		systems.ExpectedProbeCWIID([]int{1, 10, 10}, 0.5), mc.Mean,
		verdict(mc.Mean, systems.ExpectedProbeCWIID([]int{1, 10, 10}, 0.5), 0.03))
	r.addf("note: rows with equal k but 5x the elements keep the same expected probes")
	return r
}

// CorollaryWheel reproduces Corollary 3.4: the wheel needs at most 3
// expected probes for every p and n.
func CorollaryWheel() Report {
	r := Report{ID: "C3.4", Title: "Wheel expected probes <= 3 for every n (Corollary 3.4)"}
	for _, n := range []int{5, 20, 100, 1000} {
		for _, p := range []float64{0.5, 0.1, 0.9} {
			exact := systems.ExpectedProbeCWIID([]int{1, n - 1}, p)
			ok := "ok"
			if exact > 3 {
				ok = "DEVIATES"
			}
			r.addf("n=%-5d p=%.1f  exact=%6.3f  bound=3  %s", n, p, exact, ok)
		}
	}
	return r
}

// PropositionTree reproduces Proposition 3.6 / Corollary 3.7: Probe_Tree
// costs O(n^{log2(1+p)}). Using the exact expectation recursion, the
// per-level growth ratio T(h)/T(h-1) decreases toward 1 + min(p,q), i.e.
// the local exponent log2(ratio) approaches log2(1+p) from above.
func PropositionTree() Report {
	r := Report{ID: "P3.6", Title: "Probe_Tree growth exponent vs log2(1+p) (Proposition 3.6, Corollary 3.7)"}
	for _, p := range []float64{0.5, 0.3, 0.1} {
		bound := analytic.TreePPCExponent(p)
		for _, h := range []int{8, 16, 32} {
			ratio := systems.ExpectedProbeTreeIID(h, p) / systems.ExpectedProbeTreeIID(h-1, p)
			localExp := math.Log2(ratio)
			ok := "ok (approaching from above)"
			if localExp < bound-1e-9 {
				ok = "DEVIATES (below bound)"
			} else if h == 32 && localExp > bound*1.05 {
				ok = "DEVIATES (not converging)"
			}
			r.addf("p=%.1f h=%-3d exact ratio=%.5f  local exponent=%.4f  paper log2(1+p)=%.4f  %s",
				p, h, ratio, localExp, bound, ok)
		}
	}
	// Small-instance MC cross-check of the exact recursion.
	tr := mustSystem[*systems.Tree]("tree:6")
	mc := mcDeterministic(tr.Size(), 0.5, 3000, 36, tr.ProbeWitness)
	exact := systems.ExpectedProbeTreeIID(6, 0.5)
	r.addf("cross-check h=6 p=0.5: exact=%.4f  monte-carlo=%.4f  %s",
		exact, mc.Mean, verdict(mc.Mean, exact, 0.03))
	return r
}

// TheoremHQSProbabilistic reproduces Theorem 3.8: Probe_HQS costs exactly
// (5/2)^h at p = 1/2 (per-level ratio 5/2) and only O(n^{log3 2}) for
// p != 1/2.
func TheoremHQSProbabilistic() Report {
	r := Report{ID: "T3.8", Title: "Probe_HQS growth: ratio 5/2 per level at p=1/2, exponent log3(2) off-half (Theorem 3.8)"}
	prev := 0.0
	for h := 1; h <= 8; h++ {
		exact := systems.ExpectedProbeHQSIID(h, 0.5)
		line := ""
		if prev > 0 {
			ratio := exact / prev
			line = " ratio=" + trimF(ratio) + " paper=2.5 " + verdict(ratio, 2.5, 1e-9)
		}
		r.addf("p=0.5 h=%d exact=%12.4f%s", h, exact, line)
		prev = exact
	}
	// Off-half: the per-level ratio approaches 2 (exponent log3 2 = 0.631).
	for _, pp := range []float64{0.2, 0.35} {
		ratio := systems.ExpectedProbeHQSIID(12, pp) / systems.ExpectedProbeHQSIID(11, pp)
		localExp := math.Log(ratio) / math.Log(3)
		bound := analytic.HQSPPCExponentBiased()
		ok := "ok"
		if localExp > bound*1.02 {
			ok = "DEVIATES"
		}
		r.addf("p=%.2f h=12 exact ratio=%.5f  local exponent=%.4f  paper log3(2)=%.4f  %s",
			pp, ratio, localExp, bound, ok)
	}
	// Monte Carlo cross-check at h=4.
	hq := mustSystem[*systems.HQS]("hqs:4")
	mc := mcDeterministic(hq.Size(), 0.5, 4000, 38, hq.ProbeWitness)
	r.addf("cross-check h=4 p=0.5: exact=%.4f  monte-carlo=%.4f  %s",
		systems.ExpectedProbeHQSIID(4, 0.5), mc.Mean, verdict(mc.Mean, systems.ExpectedProbeHQSIID(4, 0.5), 0.03))
	return r
}

// trimF formats a float compactly for inline report annotations.
func trimF(x float64) string {
	return fmt.Sprintf("%.4f", x)
}

// TheoremHQSOptimality reproduces Theorem 3.9 / Fig. 6 on verifiable
// sizes: Probe_HQS attains the optimal PPC at p = 1/2 among directional
// strategies, and for h <= 1 the unrestricted optimum as well. At h = 2
// the exhaustive DP reveals a strictly better non-directional strategy —
// see EXPERIMENTS.md for discussion.
func TheoremHQSOptimality() Report {
	r := Report{ID: "F6", Title: "Probe_HQS optimality at p=1/2 (Theorem 3.9, Fig. 6)"}
	for h := 0; h <= 2; h++ {
		hq, _ := systems.NewHQS(h)
		opts, err := queryPPC(hq, 0.5)
		if err != nil {
			r.addf("h=%d: %v", h, err)
			continue
		}
		opt := opts[0]
		probeHQS := sim.ExpectedIID(hq.Size(), 0.5, func(col *coloring.Coloring) float64 {
			return float64(core.DeterministicProbes(col, hq.ProbeWitness))
		})
		paper := math.Pow(2.5, float64(h))
		r.addf("h=%d  Probe_HQS=%8.6f  (5/2)^h=%8.6f %s  unrestricted optimum=%8.6f",
			h, probeHQS, paper, verdict(probeHQS, paper, 1e-9), opt)
	}
	r.addf("finding: at h=2 an adaptive strategy achieves 393/64 = 6.140625 < 6.25 by")
	r.addf("  deferring a pending gate's third leaf; Theorem 3.9's claim holds for the")
	r.addf("  directional (h-good) class that Probe_HQS belongs to.")
	return r
}

// TheoremMajRandomized reproduces Theorem 4.2: PCR(Maj) = n - (n-1)/(n+3),
// matching the exact worst case of R_Probe_Maj (upper bound) with the Yao
// bound under the uniform (n+1)/2-red distribution (lower bound).
func TheoremMajRandomized() Report {
	r := Report{ID: "T4.2", Title: "Randomized majority: PCR(Maj) = n - (n-1)/(n+3) (Theorem 4.2)"}
	for _, n := range []int{3, 5, 7, 9, 21, 101} {
		m, _ := systems.NewMaj(n)
		worst := 0.0
		for reds := 0; reds <= n; reds++ {
			col := coloring.New(n)
			for e := 0; e < reds; e++ {
				col.SetColor(e, coloring.Red)
			}
			if v := core.ExactRProbeMaj(m, col); v > worst {
				worst = v
			}
		}
		paper := analytic.MajPCR(n)
		line := ""
		if n <= 9 {
			if yao, err := strategy.YaoBound(m, core.MajHardDistribution(m)); err == nil {
				line = "  yao-lower=" + trimF(yao)
			}
		}
		r.addf("n=%-4d upper (R_Probe_Maj worst)=%9.4f  paper=%9.4f %s%s",
			n, worst, paper, verdict(worst, paper, 1e-9), line)
	}
	return r
}

// TheoremCWRandomized reproduces Theorem 4.4 and Corollary 4.5: the exact
// worst case of R_Probe_CW equals max_j {n_j + sum_{i>j}((n_i+1)/2+1/n_i)},
// with the Triang and Wheel specializations.
func TheoremCWRandomized() Report {
	r := Report{ID: "T4.4", Title: "R_Probe_CW worst-case expectation (Theorem 4.4, Corollary 4.5)"}
	walls := [][]int{{1, 2, 3}, {1, 2, 3, 4}, {1, 5, 4, 3}, {1, 9}}
	for _, widths := range walls {
		cw, _ := systems.NewCW(widths)
		// Exact worst case: exhaustive over all colorings when feasible,
		// otherwise over the structured extremal inputs (a monochromatic
		// terminating row with worst one-green splits below), which attain
		// Theorem 4.4\'s maximum.
		worst := 0.0
		if cw.Size() <= 12 {
			worst, _ = sim.WorstCase(sim.AllColorings(cw.Size()), func(col *coloring.Coloring) float64 {
				return core.ExactRProbeCW(cw, col)
			})
		} else {
			worst = worstRProbeCWExpectation(cw)
		}
		paper := analytic.CWPCRUpper(widths)
		coarse := analytic.CWPCRUpperCoarse(cw.Size(), cw.Rows(), cw.MaxWidth())
		r.addf("%-14s worst=%9.4f  paper max_j formula=%9.4f %s  coarse (m+n+2k)/2=%7.3f",
			cw.Name(), worst, paper, verdict(worst, paper, 1e-6), coarse)
	}
	tri := mustSystem[*systems.CW]("triang:4")
	r.addf("Triang(4): paper (n+k)/2 + log k = %.4f >= tight %.4f (Corollary 4.5(1))",
		analytic.TriangPCRUpper(tri.Size(), tri.Rows()), analytic.CWPCRUpper(tri.Widths()))
	r.addf("Wheel(10): paper n-1 = %.0f, tight formula = %.4f (Corollary 4.5(2))",
		analytic.WheelPCR(10), analytic.CWPCRUpper([]int{1, 9}))
	return r
}

// TheoremCWLower reproduces Theorem 4.6: the one-green-per-row hard
// distribution forces (n+k)/2 expected probes from every deterministic
// strategy (computed exactly by the Yao DP).
func TheoremCWLower() Report {
	r := Report{ID: "T4.6", Title: "CW randomized lower bound (n+k)/2 via Yao's principle (Theorem 4.6)"}
	for _, widths := range [][]int{{1, 2}, {1, 2, 3}, {1, 3, 3}, {1, 4, 2, 3}} {
		cw, _ := systems.NewCW(widths)
		yao, err := strategy.YaoBound(cw, core.HardCWDistribution(cw))
		if err != nil {
			r.addf("%v: %v", widths, err)
			continue
		}
		paper := analytic.CWPCRLower(cw.Size(), cw.Rows())
		r.addf("%-14s yao=%8.4f  paper (n+k)/2=%8.4f  %s",
			cw.Name(), yao, paper, verdict(yao, paper, 1e-9))
	}
	return r
}

// TheoremTreeRandomized reproduces Theorems 4.7 and 4.8: R_Probe_Tree's
// exact worst-case expectation stays below 5n/6 + 1/6, and the hard
// distribution forces 2(n+1)/3 via Yao.
func TheoremTreeRandomized() Report {
	r := Report{ID: "T4.7", Title: "Randomized tree: 2(n+1)/3 <= PCR(Tree), R_Probe_Tree <= 5n/6+1/6 (Theorems 4.7, 4.8)"}
	for h := 1; h <= 3; h++ {
		tr, _ := systems.NewTree(h)
		worst, _ := sim.WorstCase(sim.AllColorings(tr.Size()), func(col *coloring.Coloring) float64 {
			return core.ExactRProbeTree(tr, col)
		})
		upper := analytic.TreePCRUpper(tr.Size())
		ok := "ok"
		if worst > upper+1e-9 {
			ok = "DEVIATES"
		}
		r.addf("h=%d n=%-3d exact worst E[probes]=%8.4f  paper bound 5n/6+1/6=%8.4f  %s",
			h, tr.Size(), worst, upper, ok)
	}
	tr2 := mustSystem[*systems.Tree]("tree:2")
	yao, err := strategy.YaoBound(tr2, core.HardTreeDistribution(tr2))
	if err == nil {
		paper := analytic.TreePCRLower(tr2.Size())
		r.addf("h=2 Yao lower bound=%8.4f  paper 2(n+1)/3=%8.4f  %s", yao, paper, verdict(yao, paper, 1e-9))
	}
	return r
}

// TheoremRProbeHQS reproduces Proposition 4.9 / Fig. 7: R_Probe_HQS costs
// exactly (8/3)^h on class-P inputs (per-level ratio 8/3, exponent
// log3(8/3) ≈ 0.893), and class P is the worst case.
func TheoremRProbeHQS() Report {
	r := Report{ID: "F7", Title: "R_Probe_HQS: growth 8/3 per level on class-P inputs (Proposition 4.9, Fig. 7)"}
	prev := 0.0
	for h := 1; h <= 6; h++ {
		hq, _ := systems.NewHQS(h)
		colP := core.WorstCaseHQS(hq, coloring.Green, nil)
		exact := core.ExactRProbeHQS(hq, colP)
		want := math.Pow(analytic.HQSRGrowth, float64(h))
		line := ""
		if prev > 0 {
			line = "  ratio=" + trimF(exact/prev)
		}
		r.addf("h=%d n=%-4d exact=%12.4f  (8/3)^h=%12.4f %s%s",
			h, hq.Size(), exact, want, verdict(exact, want, 1e-9), line)
		prev = exact
	}
	r.addf("exponent: log3(8/3) = %.4f (paper: 0.893)", analytic.HQSRExponent())
	return r
}

// TheoremIRProbeHQS reproduces Theorem 4.10 / Fig. 8: the improved
// algorithm's per-two-level growth on class-P inputs, against both the
// paper's constant and the faithful one.
func TheoremIRProbeHQS() Report {
	r := Report{ID: "F8", Title: "IR_Probe_HQS: per-two-level growth on class-P inputs (Theorem 4.10, Fig. 8)"}
	prev := 0.0
	for _, h := range []int{2, 4, 6} {
		hq, _ := systems.NewHQS(h)
		colP := core.WorstCaseHQS(hq, coloring.Green, nil)
		exact := core.ExactIRProbeHQS(hq, colP)
		line := ""
		if prev > 0 {
			line = "  ratio=" + trimF(exact/prev) + " (faithful 191/27=7.0741)"
		}
		r.addf("h=%d n=%-4d exact=%12.4f%s", h, hq.Size(), exact, line)
		prev = exact
	}
	r.addf("exponents: paper log3(sqrt(189.5/27)) = %.4f; faithful log3(sqrt(191/27)) = %.4f",
		analytic.HQSIRExponentPaper(), analytic.HQSIRExponentFaithful())
	r.addf("ordering preserved: lower 0.834 < IR %.3f < R %.3f (Table 1 shape holds)",
		analytic.HQSIRExponentFaithful(), analytic.HQSRExponent())
	return r
}
