package core

import (
	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// GreedyQuorum is a dynamic probe heuristic in the spirit of the
// strategies tested by Guerni-Mahoui, Kameda & Xiao [4] and Neilson [11]:
// among the quorums not yet known to contain a failed element, it commits
// to one with the fewest unprobed elements — the quorum most likely to be
// fully live under IID failures — and probes it; every red discovery
// triggers re-selection. When every quorum is hit by a known-red element,
// the red set is a transversal, the red witness, narrowed as in scan.
//
// The heuristic needs the explicit quorum list, so it targets small and
// medium systems; the ablation experiment compares it against the paper's
// structure-aware strategies.
func GreedyQuorum(sys quorum.System, o probe.Oracle) probe.Witness {
	n := sys.Size()
	quorums := sys.Quorums()
	knownRed := bitset.New(n)
	knownGreen := bitset.New(n)
	alive := make([]bool, len(quorums)) // quorum has no known red element
	for i := range alive {
		alive[i] = true
	}
	for {
		// Select the live candidate with the fewest unknown elements.
		best, bestUnknown := -1, n+1
		for i, q := range quorums {
			if !alive[i] {
				continue
			}
			unknown := 0
			q.ForEach(func(e int) bool {
				if !knownGreen.Contains(e) {
					unknown++
				}
				return unknown <= bestUnknown
			})
			if unknown < bestUnknown {
				best, bestUnknown = i, unknown
			}
		}
		if best < 0 {
			// knownRed is a transversal: narrow it as scan does.
			for _, q := range quorums {
				if q.SubsetOf(knownRed) && quorum.IsTransversal(sys, q) {
					return probe.Witness{Color: coloring.Red, Set: q.Clone()}
				}
			}
			return probe.Witness{Color: coloring.Red, Set: knownRed}
		}
		q := quorums[best]
		sawRed := false
		q.ForEach(func(e int) bool {
			if knownGreen.Contains(e) {
				return true
			}
			if o.Probe(e) == coloring.Green {
				knownGreen.Add(e)
				return true
			}
			knownRed.Add(e)
			sawRed = true
			return false
		})
		if !sawRed {
			return probe.Witness{Color: coloring.Green, Set: q.Clone()}
		}
		// Invalidate every candidate hit by the new red element.
		for i, cand := range quorums {
			if alive[i] && cand.Intersects(knownRed) {
				alive[i] = false
			}
		}
	}
}
