package core

import (
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

// The paper's randomized worst-case strategies live on the constructions
// as implementations of the probe.RandomizedProber capability
// (internal/systems/randomized.go), which dispatches the HQS to the
// improved IR_Probe_HQS. R_Probe_HQS (Fig. 7) is kept here in full as
// the baseline the improvement is measured against.

// RProbeHQS is Algorithm R_Probe_HQS (Fig. 7, due to Boppana [16]):
// evaluate a uniformly random pair of children of every gate, and the
// third child only when the pair disagrees. PCR = O(n^{log3(8/3)}).
func RProbeHQS(h *systems.HQS, o probe.Oracle, rng *rand.Rand) probe.Witness {
	return rProbeHQSAt(h, o, rng, 0, h.Size())
}

func rProbeHQSAt(h *systems.HQS, o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(h.Size(), []int{start})}
	}
	third := size / 3
	order := rng.Perm(3)
	w0 := rProbeHQSAt(h, o, rng, start+order[0]*third, third)
	w1 := rProbeHQSAt(h, o, rng, start+order[1]*third, third)
	if w0.Color == w1.Color {
		w0.Set.UnionWith(w1.Set)
		return probe.Witness{Color: w0.Color, Set: w0.Set}
	}
	w2 := rProbeHQSAt(h, o, rng, start+order[2]*third, third)
	return mergeMajority(w2, w0, w1)
}

// mergeMajority combines the deciding child witness with whichever of the
// other two child witnesses shares its color, yielding the gate witness.
func mergeMajority(decider, a, b probe.Witness) probe.Witness {
	match := a
	if b.Color == decider.Color {
		match = b
	}
	set := decider.Set.Clone()
	set.UnionWith(match.Set)
	return probe.Witness{Color: decider.Color, Set: set}
}
