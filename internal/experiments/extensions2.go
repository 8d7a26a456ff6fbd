package experiments

import (
	"math/rand/v2"

	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/sim"
	"probequorum/internal/systems"
)

// HeuristicComparison compares the dynamic greedy-quorum heuristic (in the
// spirit of [4,11]) against the paper's structure-aware strategies across
// failure probabilities — the heuristics line of related work the paper
// cites in §1.2.
func HeuristicComparison() Report {
	r := Report{ID: "X3", Title: "Dynamic greedy heuristic [4,11] vs the paper's strategies"}
	const trials = 2000
	maj := mustSystem[*systems.Maj]("maj:13")
	tri := mustSystem[*systems.CW]("triang:5")
	tree := mustSystem[*systems.Tree]("tree:3")
	hqs := mustSystem[*systems.HQS]("hqs:2")
	cases := []struct {
		sys   quorum.System
		paper func(o probe.Oracle) probe.Witness
	}{
		{maj, maj.ProbeWitness},
		{tri, tri.ProbeWitness},
		{tree, tree.ProbeWitness},
		{hqs, hqs.ProbeWitness},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.1, 0.5} {
			paper := sim.Estimate(trials, 91, func(rng *rand.Rand) float64 {
				col := coloring.IID(tc.sys.Size(), p, rng)
				return float64(core.DeterministicProbes(col, tc.paper))
			})
			greedy := sim.Estimate(trials, 91, func(rng *rand.Rand) float64 {
				col := coloring.IID(tc.sys.Size(), p, rng)
				return float64(core.DeterministicProbes(col, func(o probe.Oracle) probe.Witness {
					return core.GreedyQuorum(tc.sys, o)
				}))
			})
			r.addf("%-14s n=%-3d p=%.1f  paper=%8.3f  greedy=%8.3f  (greedy/paper = %.2f)",
				tc.sys.Name(), tc.sys.Size(), p, paper.Mean, greedy.Mean, greedy.Mean/paper.Mean)
		}
	}
	r.addf("shape: the generic heuristic is competitive at small p (it gambles on one")
	r.addf("nearly-live quorum) but loses to the structure-aware strategies at p=1/2.")
	return r
}

// LoadMeasure reports the Naor–Wool load of the constructions: the
// uniform strategy vs the optimal one (the exact capacity LP at read
// fraction 1) vs the max(1/c, c/n) lower bound — the companion measure
// cited in §1.2.
func LoadMeasure() Report {
	r := Report{ID: "X4", Title: "Load (Naor–Wool): uniform vs optimal strategies vs max(1/c, c/n)"}
	maj := mustSystem[*systems.Maj]("maj:7")
	wheel := mustSystem[*systems.Wheel]("wheel:8")
	tri := mustSystem[*systems.CW]("triang:3")
	tree := mustSystem[*systems.Tree]("tree:2")
	hqs := mustSystem[*systems.HQS]("hqs:2")
	// Single-role systems load their one role under any read fraction.
	opts := rw.Options{Workload: rw.Workload{ReadFraction: 1}}
	for _, sys := range []quorum.System{maj, wheel, tri, tree, hqs} {
		uni, err := rw.Uniform(sys, opts)
		if err != nil {
			r.addf("%s: error: %v", sys.Name(), err)
			continue
		}
		opt, err := rw.Optimize(sys, opts)
		if err != nil {
			r.addf("%s: error: %v", sys.Name(), err)
			continue
		}
		uniLoad, _ := uni.Load(opts.Workload) // the unit workload always validates
		optLoad, _ := opt.Load(opts.Workload)
		lower := rw.LowerBound(sys)
		ok := "ok"
		if optLoad < lower-1e-9 {
			ok = "DEVIATES (below bound)"
		}
		r.addf("%-14s uniform=%7.4f  optimal=%7.4f  lower max(1/c,c/n)=%7.4f  %s",
			sys.Name(), uniLoad, optLoad, lower, ok)
	}
	r.addf("note: the wheel shows the gap — uniform overloads the hub, the optimum")
	r.addf("shifts mass to the rim quorum.")
	return r
}
