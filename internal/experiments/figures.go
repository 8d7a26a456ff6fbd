package experiments

import (
	"strings"

	"probequorum"

	"probequorum/internal/analytic"
	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/strategy"
	"probequorum/internal/systems"
)

func addBlock(r *Report, block string) {
	for _, l := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		r.Lines = append(r.Lines, l)
	}
}

// Figure1 reproduces the Triang illustration with a shaded quorum.
func Figure1() Report {
	r := Report{ID: "F1", Title: "Triang system with a shaded quorum (paper Fig. 1)"}
	tri := mustSystem[*systems.CW]("triang:4")
	quorum, ok := tri.FindQuorumWithin(bitset.FromSlice(tri.Size(), []int{1, 2, 4, 7}))
	if !ok {
		r.addf("internal error: quorum not found")
		return r
	}
	addBlock(&r, tri.RenderASCII(quorum))
	r.addf("shaded quorum: %v (row 2 full + one representative per lower row)", quorum)
	return r
}

// Figure2 reproduces the Tree illustration with a shaded quorum.
func Figure2() Report {
	r := Report{ID: "F2", Title: "Tree system with a shaded quorum (paper Fig. 2)"}
	tr := mustSystem[*systems.Tree]("tree:2")
	q := bitset.FromSlice(tr.Size(), []int{0, 1, 4, 2, 5})
	if !tr.ContainsQuorum(q) {
		r.addf("internal error: not a quorum")
		return r
	}
	addBlock(&r, tr.RenderASCII(q))
	r.addf("shaded quorum: %v (root + subtree quorums)", q)
	return r
}

// Figure3 reproduces the HQS illustration: the quorum {1,2,5,6} of the
// height-2 system.
func Figure3() Report {
	r := Report{ID: "F3", Title: "HQS with quorum {1,2,5,6} shaded (paper Fig. 3)"}
	h := mustSystem[*systems.HQS]("hqs:2")
	q := bitset.FromSlice(9, []int{0, 1, 4, 5})
	addBlock(&r, h.RenderASCII(q))
	r.addf("{1,2,5,6} is a quorum: %v (2-of-3 gates: gate1 and gate2 true)", h.ContainsQuorum(q))
	return r
}

// Figure4Maj3 reproduces the §2.3 worked example and the Fig. 4 decision
// tree: PC(Maj3) = 3, PCR(Maj3) = 8/3, PPC(Maj3) = 5/2.
func Figure4Maj3() Report {
	r := Report{ID: "F4", Title: "Maj3 decision tree and the three probe complexities (paper §2.3, Fig. 4)"}
	m := mustSystem[*systems.Maj]("maj:3")
	// One Query answers the decision tree, PC and PPC together.
	res, err := evalQuery(probequorum.Query{
		System:   m,
		Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureTree},
		Ps:       []float64{0.5},
	})
	if err != nil {
		r.addf("error: %v", err)
		return r
	}
	addBlock(&r, res.Tree.ASCII)
	pc := *res.PC
	ppc := *res.Points[0].PPC
	yao, _ := strategy.YaoBound(m, core.MajHardDistribution(m))
	worstR := 0.0
	for rr := 0; rr <= 3; rr++ {
		col := coloring.FromReds(3, nil)
		for e := 0; e < rr; e++ {
			col.SetColor(e, coloring.Red)
		}
		if v := core.ExactRProbeMaj(m, col); v > worstR {
			worstR = v
		}
	}
	r.addf("PC(Maj3)  = %d      paper: 3", pc)
	r.addf("PPC(Maj3) = %.4f paper: 2.5", ppc)
	r.addf("PCR(Maj3) = %.4f paper: 8/3 = 2.6667 (Yao lower %.4f = R_Probe_Maj worst case %.4f)",
		worstR, yao, worstR)
	r.addf("verdicts: PC %s, PPC %s, PCR %s",
		verdict(float64(pc), 3, 0), verdict(ppc, 2.5, 0), verdict(worstR, 8.0/3.0, 1e-9))
	return r
}

// Figure9RecursionConstant reproduces the Fig. 9 computation: the expected
// number of recursive calls IR_Probe_HQS makes per two levels on
// worst-case (class P) inputs. At height 2 each recursive call is a leaf
// probe, so the constant is the exact expected probe count.
func Figure9RecursionConstant() Report {
	r := Report{ID: "F9", Title: "IR_Probe_HQS expected recursion constant on class-P inputs (paper Fig. 9 / Lemma 4.12)"}
	h2 := mustSystem[*systems.HQS]("hqs:2")
	colP := core.WorstCaseHQS(h2, coloring.Green, nil)
	got := core.ExactIRProbeHQS(h2, colP)
	r.addf("exact E[probes] on class-P input, h=2:  %.6f = 191/27", got)
	r.addf("paper Fig. 9 value:                     %.6f = 189.5/27", analytic.HQSIRGrowthPaper)
	r.addf("plain R_Probe_HQS for comparison:       %.6f = (8/3)^2 = 192/27", analytic.HQSRGrowth*analytic.HQSRGrowth)
	r.addf("faithful-vs-paper gap: +1.5/27; Fig. 9 charges 1.5 probes in the subcase")
	r.addf("  [r1 majority, r2 majority, grandchild minority, r3 disagrees] where")
	r.addf("  finishing r2 always needs both remaining grandchildren (cost 2).")
	r.addf("shape preserved: IR (%.4f) improves on R (%.4f) per two levels either way %s",
		got, analytic.HQSRGrowth*analytic.HQSRGrowth, verdict(got, analytic.HQSIRGrowthFaithful, 1e-9))
	return r
}
