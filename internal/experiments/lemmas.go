package experiments

import (
	"math/rand/v2"

	"probequorum/internal/quorum"
	"probequorum/internal/sim"
	"probequorum/internal/systems"
	"probequorum/internal/urn"
	"probequorum/internal/walk"
)

// Lemma22Evasive reproduces Lemma 2.2 (due to [15]): Maj, Wheel, CW and
// Tree have deterministic worst-case probe complexity n, computed exactly
// by the minimax DP. HQS (not covered by the lemma) is included for
// contrast: it is evasive too on the verifiable sizes.
func Lemma22Evasive() Report {
	r := Report{ID: "L2.2", Title: "Evasiveness: PC(S) = n for Maj, Wheel, CW, Tree (exact minimax)"}
	maj7 := mustSystem[*systems.Maj]("maj:7")
	maj9 := mustSystem[*systems.Maj]("maj:9")
	wheel6 := mustSystem[*systems.Wheel]("wheel:6")
	cw := mustSystem[*systems.CW]("cw:1,2,3")
	tri4 := mustSystem[*systems.CW]("triang:4")
	tree2 := mustSystem[*systems.Tree]("tree:2")
	hqs2 := mustSystem[*systems.HQS]("hqs:2")
	for _, sys := range []quorum.System{maj7, maj9, wheel6, cw, tri4, tree2, hqs2} {
		pc, err := queryPC(sys)
		if err != nil {
			r.addf("%-14s error: %v", sys.Name(), err)
			continue
		}
		r.addf("%-14s n=%2d  PC=%2d  paper=n  %s", sys.Name(), sys.Size(), pc,
			verdict(float64(pc), float64(sys.Size()), 0))
	}
	return r
}

// Lemma24 reproduces the grid random-walk lemma: E(T) = 2N - θ(sqrt N) at
// p = 1/2 and N/q + o(1) for p < q, comparing the exact DP value, the
// closed form and a Monte Carlo run.
func Lemma24() Report {
	r := Report{ID: "L2.4", Title: "Grid walk exit time: exact DP vs closed form vs Monte Carlo"}
	for _, tc := range []struct {
		n int
		p float64
	}{
		{25, 0.5}, {100, 0.5}, {400, 0.5},
		{100, 0.3}, {100, 0.1}, {400, 0.45},
	} {
		exact := walk.ExactExitTime(tc.n, tc.p)
		form := walk.Asymptotic(tc.n, tc.p)
		mc := sim.Estimate(4000, 24, func(rng *rand.Rand) float64 {
			return float64(walk.Simulate(tc.n, tc.p, rng))
		})
		r.addf("N=%-4d p=%.2f  exact=%9.3f  formula=%9.3f (%s)  mc=%9.3f",
			tc.n, tc.p, exact, form, verdict(exact, form, 0.03), mc.Mean)
	}
	return r
}

// Lemma28 reproduces the urn lemma E[T_j] = j(n+1)/(r+1).
func Lemma28() Report {
	r := Report{ID: "L2.8", Title: "Urn: draws to the j-th red = j(n+1)/(r+1)"}
	for _, tc := range []struct{ rr, g, j int }{
		{3, 5, 1}, {3, 5, 3}, {5, 20, 2}, {10, 1, 7}, {1, 50, 1},
	} {
		form := urn.ExpectedJthRed(tc.rr, tc.g, tc.j)
		mc := sim.Estimate(20000, 28, func(rng *rand.Rand) float64 {
			return float64(urn.SimulateJthRed(tc.rr, tc.g, tc.j, rng))
		})
		r.addf("r=%-3d g=%-3d j=%-2d  formula=%7.4f  mc=%7.4f  %s",
			tc.rr, tc.g, tc.j, form, mc.Mean, verdict(mc.Mean, form, 0.03))
	}
	return r
}

// Lemma29 reproduces the urn lemma E[both colors] = 1 + r/(g+1) + g/(r+1).
func Lemma29() Report {
	r := Report{ID: "L2.9", Title: "Urn: draws to see both colors = 1 + r/(g+1) + g/(r+1)"}
	for _, tc := range []struct{ rr, g int }{
		{1, 1}, {1, 9}, {9, 1}, {5, 5}, {2, 30},
	} {
		form := urn.ExpectedBothColors(tc.rr, tc.g)
		mc := sim.Estimate(20000, 29, func(rng *rand.Rand) float64 {
			return float64(urn.SimulateBothColors(tc.rr, tc.g, rng))
		})
		r.addf("r=%-3d g=%-3d  formula=%7.4f  mc=%7.4f  %s",
			tc.rr, tc.g, form, mc.Mean, verdict(mc.Mean, form, 0.03))
	}
	return r
}
