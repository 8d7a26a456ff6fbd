// Package core holds the probing machinery of Hassin & Peleg, "Average
// probe complexity in quorum systems", that does not belong to any one
// construction. The paper's own strategies live on the constructions in
// internal/systems: the deterministic ones (Probe_Maj, Probe_CW,
// Probe_Tree, Probe_HQS and friends, §3) as probe.Prober methods, the
// randomized worst-case ones (R_Probe_Maj, R_Probe_CW, R_Probe_Tree,
// IR_Probe_HQS and friends, §4) as probe.RandomizedProber methods, and
// their exact IID(p) expectations beside them. R_Probe_HQS (Fig. 7), the
// baseline IR_Probe_HQS improves on, is the randomized strategy of the
// HQS's embedded RecMaj(3, h): hq.RecMaj.ProbeWitnessRandomized. This
// package adds:
//
//   - Resolve — the one strategy resolver every consumer uses: a system's
//     own strategy when it has one, else the generic scan below.
//   - SequentialScan and RandomScan — the generic deterministic and
//     randomized baselines over quorum.Finder systems.
//   - Universal — the quorum-avoiding snoop in the spirit of Peleg &
//     Wool's O(c^2) universal algorithm [15]; GreedyQuorum — the dynamic
//     heuristic of [4,11].
//   - FullParallel, ParallelProbeCW and the round accounting of batch
//     probing.
//   - The exact per-coloring expectation evaluators of the randomized
//     algorithms (exact.go), which integrate over the coin flips; these
//     power the worst-case-input searches and the Table 1 reproduction
//     without Monte Carlo noise.
//   - The hard input distributions of the worst-case lower bounds
//     (hardinputs.go).
package core
