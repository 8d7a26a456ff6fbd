package probequorum_test

// One benchmark per table and figure of the paper (see DESIGN.md's
// experiment index). Each witness-search benchmark reports the custom
// metric probes/op — the paper's probe complexity — next to the usual
// ns/op, so `go test -bench=.` regenerates the measured columns.

import (
	"math/rand/v2"
	"testing"

	"probequorum"
	"probequorum/internal/availability"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/sim"
	"probequorum/internal/stats"
	"probequorum/internal/strategy"
	"probequorum/internal/systems"
	"probequorum/internal/urn"
	"probequorum/internal/walk"
)

// benchWitnessSearch runs a witness search per iteration over colorings
// drawn by mkColoring and reports average probes.
func benchWitnessSearch(b *testing.B, n int,
	mkColoring func(rng *rand.Rand) *coloring.Coloring,
	search func(o probe.Oracle, rng *rand.Rand) probe.Witness) {
	b.Helper()
	rng := rand.New(rand.NewPCG(42, uint64(n)))
	totalProbes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := mkColoring(rng)
		o := probe.NewOracle(col)
		search(o, rng)
		totalProbes += o.Probes()
	}
	b.ReportMetric(float64(totalProbes)/float64(b.N), "probes/op")
}

func iidHalf(n int) func(rng *rand.Rand) *coloring.Coloring {
	return func(rng *rand.Rand) *coloring.Coloring { return coloring.IID(n, 0.5, rng) }
}

// --- Table 1, probabilistic model (p = 1/2) ---

func BenchmarkTable1MajProbabilistic(b *testing.B) {
	m, _ := systems.NewMaj(101)
	benchWitnessSearch(b, m.Size(), iidHalf(m.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return m.ProbeWitness(o) })
}

func BenchmarkTable1TriangProbabilistic(b *testing.B) {
	tri, _ := systems.NewTriang(10)
	benchWitnessSearch(b, tri.Size(), iidHalf(tri.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return tri.ProbeWitness(o) })
}

func BenchmarkTable1TreeProbabilistic(b *testing.B) {
	tr, _ := systems.NewTree(7)
	benchWitnessSearch(b, tr.Size(), iidHalf(tr.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return tr.ProbeWitness(o) })
}

func BenchmarkTable1HQSProbabilistic(b *testing.B) {
	hq, _ := systems.NewHQS(5)
	benchWitnessSearch(b, hq.Size(), iidHalf(hq.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return hq.ProbeWitness(o) })
}

// --- Table 1, randomized worst-case model (adversarial inputs) ---

func BenchmarkTable1MajRandomized(b *testing.B) {
	m, _ := systems.NewMaj(101)
	hard := coloring.FromReds(m.Size(), nil)
	for e := 0; e < m.Threshold(); e++ {
		hard.SetColor(e, coloring.Red)
	}
	benchWitnessSearch(b, m.Size(),
		func(*rand.Rand) *coloring.Coloring { return hard },
		m.ProbeWitnessRandomized)
}

func BenchmarkTable1TriangRandomized(b *testing.B) {
	tri, _ := systems.NewTriang(10)
	benchWitnessSearch(b, tri.Size(),
		func(rng *rand.Rand) *coloring.Coloring { return core.HardCWSample(tri, rng) },
		tri.ProbeWitnessRandomized)
}

func BenchmarkTable1TreeRandomized(b *testing.B) {
	tr, _ := systems.NewTree(7)
	benchWitnessSearch(b, tr.Size(),
		func(rng *rand.Rand) *coloring.Coloring { return core.HardTreeSample(tr, rng) },
		tr.ProbeWitnessRandomized)
}

func BenchmarkTable1HQSRandomized(b *testing.B) {
	hq, _ := systems.NewHQS(5)
	hard := core.WorstCaseHQS(hq, coloring.Green, nil)
	benchWitnessSearch(b, hq.Size(),
		func(*rand.Rand) *coloring.Coloring { return hard },
		hq.ProbeWitnessRandomized)
}

// --- Figures ---

// BenchmarkFigure4Maj3Exact regenerates the §2.3 worked example: the
// optimal PPC of Maj3 by knowledge-state DP.
func BenchmarkFigure4Maj3Exact(b *testing.B) {
	m, _ := systems.NewMaj(3)
	for i := 0; i < b.N; i++ {
		if v, err := strategy.OptimalPPC(m, 0.5); err != nil || v != 2.5 {
			b.Fatalf("OptimalPPC = %v, %v", v, err)
		}
	}
}

// BenchmarkFigure5ProbeCW exercises Algorithm Probe_CW (Fig. 5) on a large
// wall; probes/op tracks the 2k-1 = 19 expectation bound despite n = 1276.
func BenchmarkFigure5ProbeCW(b *testing.B) {
	widths := make([]int, 10)
	widths[0] = 1
	for i := 1; i < 10; i++ {
		widths[i] = 1 + 20*i
	}
	cw, _ := systems.NewCW(widths)
	benchWitnessSearch(b, cw.Size(), iidHalf(cw.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return cw.ProbeWitness(o) })
}

// BenchmarkFigure6HQSOptimality regenerates the Theorem 3.9 comparison:
// the exhaustive optimal PPC of the height-2 HQS.
func BenchmarkFigure6HQSOptimality(b *testing.B) {
	hq, _ := systems.NewHQS(2)
	for i := 0; i < b.N; i++ {
		if v, err := strategy.OptimalPPC(hq, 0.5); err != nil || v <= 0 {
			b.Fatalf("OptimalPPC = %v, %v", v, err)
		}
	}
}

// BenchmarkFigure7RProbeHQS exercises Algorithm R_Probe_HQS (Fig. 7) on
// class-P inputs; probes/op tracks (8/3)^h.
func BenchmarkFigure7RProbeHQS(b *testing.B) {
	hq, _ := systems.NewHQS(5)
	hard := core.WorstCaseHQS(hq, coloring.Green, nil)
	benchWitnessSearch(b, hq.Size(),
		func(*rand.Rand) *coloring.Coloring { return hard },
		func(o probe.Oracle, rng *rand.Rand) probe.Witness { return hq.RecMaj.ProbeWitnessRandomized(o, rng) })
}

// BenchmarkFigure8IRProbeHQS exercises the improved Algorithm IR_Probe_HQS
// (Fig. 8) on the same inputs; its exact expectation (133.45 at h=5) is
// about 1% below Figure 7's (134.85), so long bench times are needed to
// see the gap above sampling noise — the F8 experiment compares the exact
// values instead.
func BenchmarkFigure8IRProbeHQS(b *testing.B) {
	hq, _ := systems.NewHQS(5)
	hard := core.WorstCaseHQS(hq, coloring.Green, nil)
	benchWitnessSearch(b, hq.Size(),
		func(*rand.Rand) *coloring.Coloring { return hard },
		hq.ProbeWitnessRandomized)
}

// BenchmarkFigure9IRConstant regenerates the Fig. 9 computation: the exact
// expected recursion constant of IR_Probe_HQS at height 2.
func BenchmarkFigure9IRConstant(b *testing.B) {
	hq, _ := systems.NewHQS(2)
	colP := core.WorstCaseHQS(hq, coloring.Green, nil)
	for i := 0; i < b.N; i++ {
		if v := core.ExactIRProbeHQS(hq, colP); v <= 7 || v >= 7.1 {
			b.Fatalf("constant = %v", v)
		}
	}
}

// --- Lemmas ---

// BenchmarkLemma22Evasive regenerates the evasiveness computation: exact
// PC of Maj(9) by minimax DP.
func BenchmarkLemma22Evasive(b *testing.B) {
	m, _ := systems.NewMaj(9)
	for i := 0; i < b.N; i++ {
		if pc, err := strategy.OptimalPC(m); err != nil || pc != 9 {
			b.Fatalf("OptimalPC = %v, %v", pc, err)
		}
	}
}

// BenchmarkLemma24Walk regenerates the grid-walk expectation (exact DP).
func BenchmarkLemma24Walk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := walk.ExactExitTime(400, 0.5); v <= 0 {
			b.Fatal("bad exit time")
		}
	}
}

// BenchmarkLemma28Urn regenerates the j-th-red urn experiment.
func BenchmarkLemma28Urn(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	total := 0
	for i := 0; i < b.N; i++ {
		total += urn.SimulateJthRed(5, 20, 2, rng)
	}
	b.ReportMetric(float64(total)/float64(b.N), "draws/op")
}

// BenchmarkLemma29Urn regenerates the both-colors urn experiment.
func BenchmarkLemma29Urn(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	total := 0
	for i := 0; i < b.N; i++ {
		total += urn.SimulateBothColors(2, 30, rng)
	}
	b.ReportMetric(float64(total)/float64(b.N), "draws/op")
}

// --- Propositions and sweeps ---

// BenchmarkProp32MajSweep regenerates the Maj PPC column: the exact
// expectation via the O(N^2) walk DP for n = 1001.
func BenchmarkProp32MajSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := systems.ExpectedProbeMajIID(1001, 0.3); v <= 0 {
			b.Fatal("bad expectation")
		}
	}
}

// BenchmarkProp36TreeSweep regenerates the Tree exponent measurement: the
// exact expectation recursion out to height 32.
func BenchmarkProp36TreeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := systems.ExpectedProbeTreeIID(32, 0.3); v <= 0 {
			b.Fatal("bad expectation")
		}
	}
}

// --- Ablation: the paper's strategy vs baselines on the same workload ---

func BenchmarkAblationProbeCW(b *testing.B) {
	tri, _ := systems.NewTriang(10)
	benchWitnessSearch(b, tri.Size(), iidHalf(tri.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return tri.ProbeWitness(o) })
}

func BenchmarkAblationSequentialScan(b *testing.B) {
	tri, _ := systems.NewTriang(10)
	benchWitnessSearch(b, tri.Size(), iidHalf(tri.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return core.SequentialScan(tri, o) })
}

func BenchmarkAblationUniversal(b *testing.B) {
	tri, _ := systems.NewTriang(10)
	benchWitnessSearch(b, tri.Size(), iidHalf(tri.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return core.Universal(tri, o) })
}

// The greedy heuristic needs the explicit quorum list, so it runs on
// Triang(6) (1237 quorums) rather than the Triang(10) of the other
// ablation rows.
func BenchmarkAblationGreedyQuorum(b *testing.B) {
	tri, _ := systems.NewTriang(6)
	benchWitnessSearch(b, tri.Size(), iidHalf(tri.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return core.GreedyQuorum(tri, o) })
}

// --- Extensions ---

// BenchmarkExtensionVote exercises the weighted-voting generalization.
func BenchmarkExtensionVote(b *testing.B) {
	weights := make([]int, 51)
	for i := range weights {
		weights[i] = 1 + i%5
	}
	if w := sumInts(weights); w%2 == 0 {
		weights[0]++
	}
	v, _ := systems.NewVote(weights)
	benchWitnessSearch(b, v.Size(), iidHalf(v.Size()),
		func(o probe.Oracle, _ *rand.Rand) probe.Witness { return v.ProbeWitness(o) })
}

func sumInts(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// --- Exact DPs over symmetry classes ---
//
// pc, ppc and the strategy trees solve count states over the witness
// table's symmetry classes, so their cost follows the class state count,
// not 3^n: Maj(13) has 105 states, Triang(5) 31,500 and Wheel(18) 513.
// The vote with weights 13, 12, ..., 1 has no two interchangeable
// elements and keeps all 3^13, the worst case at its size. Measured on a
// 2-vCPU Xeon VM (go1.24, GOMAXPROCS 2, three runs each; "dense" is the
// DP over all 3^n element states it replaced, which answered the same
// bits):
//
//	OptimalPPC Maj(13):      dense 76-112 ms   -> classes 47-51 µs
//	OptimalPPC Triang(5):    dense 1.25-1.70 s -> classes 1.0-1.4 ms
//	OptimalPPC Wheel(18):    dense ~85 s (one run, one core)
//	                                           -> classes 1.3-1.4 ms
//	OptimalPPC Vote(13..1):  dense 97-109 ms   -> classes 76-94 ms
//
// The witness test is a bit test against a table indexed by the count
// vector, the memo a dense slice over the packed count states, and the
// root branches expand across GOMAXPROCS goroutines once a system has at
// least 3^10 states.

func BenchmarkOptimalPPCMaskMaj13(b *testing.B) {
	m, _ := systems.NewMaj(13)
	for i := 0; i < b.N; i++ {
		if v, err := strategy.OptimalPPC(m, 0.5); err != nil || v <= 0 {
			b.Fatalf("OptimalPPC = %v, %v", v, err)
		}
	}
}

func BenchmarkOptimalPPCMaskTriang5(b *testing.B) {
	tri, _ := systems.NewTriang(5)
	for i := 0; i < b.N; i++ {
		if v, err := strategy.OptimalPPC(tri, 0.5); err != nil || v <= 0 {
			b.Fatalf("OptimalPPC = %v, %v", v, err)
		}
	}
}

// BenchmarkOptimalPPCMaskWheel18 times the largest universe the DPs
// accept: Wheel(18)'s hub and rim leave 513 class states of its 3^18.
func BenchmarkOptimalPPCMaskWheel18(b *testing.B) {
	w, _ := systems.NewWheel(18)
	for i := 0; i < b.N; i++ {
		if v, err := strategy.OptimalPPC(w, 0.3); err != nil || v <= 0 {
			b.Fatalf("OptimalPPC = %v, %v", v, err)
		}
	}
}

// BenchmarkOptimalPPCMaskVote13 keeps the 3^n worst case timed: the vote
// with weights 13, 12, ..., 1 has no two interchangeable elements.
func BenchmarkOptimalPPCMaskVote13(b *testing.B) {
	weights := make([]int, 13)
	for i := range weights {
		weights[i] = 13 - i
	}
	v, _ := systems.NewVote(weights)
	for i := 0; i < b.N; i++ {
		if x, err := strategy.OptimalPPC(v, 0.5); err != nil || x <= 0 {
			b.Fatalf("OptimalPPC = %v, %v", x, err)
		}
	}
}

// BenchmarkWitnessMask{Word,Bitset} isolate the superset-test primitive
// the DPs hammer: ContainsQuorumWords on a one-word slice (the form
// witness tables are built from) vs bitset materialization plus
// ContainsQuorum. The word path is allocation-free; on a 2-vCPU Xeon VM
// it takes about 1.4 ns/op here, where the concrete call inlines, and
// 3–5 ns/op through the WideMaskSystem interface (probebench's
// witness/mask-word/Maj63), against 110–150 ns/op for the bitset path.
func BenchmarkWitnessMaskWord(b *testing.B) {
	m, _ := systems.NewMaj(63)
	words := make([]uint64, 1)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words[0] = uint64(i) * 0x9E3779B97F4A7C15 >> 1
		if m.ContainsQuorumWords(words) {
			hits++
		}
	}
	witnessHits = hits // the call inlines; a kept result keeps it timed
}

// witnessHits sinks BenchmarkWitnessMaskWord's result.
var witnessHits int

func BenchmarkWitnessMaskBitset(b *testing.B) {
	m, _ := systems.NewMaj(63)
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask := uint64(i) * 0x9E3779B97F4A7C15 >> 1
		s := probequorum.SetFromMask(63, mask)
		if m.ContainsQuorum(s) {
			hits++
		}
	}
	_ = hits
}

// --- Parallel Monte Carlo (PR 1) ---
//
// sim.Estimate fans trials across GOMAXPROCS workers with bit-identical
// summaries (each trial derives its PRNG from (seed, index); accumulation
// replays in trial order). On the single-core PR 1 machine the two paths
// measure within noise of each other — the speedup is cores x on real
// hardware; TestEstimateParallelBitIdentical pins the equivalence.

func benchEstimate(b *testing.B, est func(trials int, seed uint64, f func(rng *rand.Rand) float64) stats.Summary) {
	b.Helper()
	m, _ := systems.NewMaj(101)
	for i := 0; i < b.N; i++ {
		s := est(2000, 17, func(rng *rand.Rand) float64 {
			col := coloring.IID(m.Size(), 0.5, rng)
			o := probe.NewOracle(col)
			m.ProbeWitness(o)
			return float64(o.Probes())
		})
		if s.Mean <= 0 {
			b.Fatalf("mean = %v", s.Mean)
		}
	}
}

func BenchmarkEstimateParallel(b *testing.B)   { benchEstimate(b, sim.Estimate) }
func BenchmarkEstimateSequential(b *testing.B) { benchEstimate(b, sim.EstimateSeq) }

// BenchmarkBruteForceAvailability{Mask,Coloring} compare the exhaustive
// F_p enumerations: one-word ContainsQuorumWords masks with a
// per-red-count probability table vs per-coloring bitsets (0.45–0.5 vs
// about 20 ms/op on Maj(17), 2-vCPU Xeon VM).
func BenchmarkBruteForceAvailabilityMask(b *testing.B) {
	m, _ := systems.NewMaj(17)
	for i := 0; i < b.N; i++ {
		if f := availability.BruteForce(m, 0.3); f <= 0 {
			b.Fatalf("F_p = %v", f)
		}
	}
}

func BenchmarkBruteForceAvailabilityColoring(b *testing.B) {
	m, _ := systems.NewMaj(17)
	sys := struct{ quorum.System }{m} // hide the words method
	for i := 0; i < b.N; i++ {
		if f := availability.BruteForce(sys, 0.3); f <= 0 {
			b.Fatalf("F_p = %v", f)
		}
	}
}

// BenchmarkExtensionLoadBalance exercises the exact load optimizer.
func BenchmarkExtensionLoadBalance(b *testing.B) {
	w, _ := systems.NewWheel(12)
	opts := rw.Options{Workload: rw.Workload{ReadFraction: 1}}
	for i := 0; i < b.N; i++ {
		if _, err := rw.Optimize(w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionAvailability exercises the closed-form availability
// computations across the constructions.
func BenchmarkExtensionAvailability(b *testing.B) {
	widths := make([]int, 20)
	widths[0] = 1
	for i := 1; i < 20; i++ {
		widths[i] = i + 1
	}
	for i := 0; i < b.N; i++ {
		_ = availability.Maj(1001, 0.3)
		_ = availability.CW(widths, 0.3)
		_ = availability.Tree(20, 0.3)
		_ = availability.HQS(12, 0.3)
	}
}
