package core

import (
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

func TestProbeVoteSound(t *testing.T) {
	for _, weights := range [][]int{
		{1},
		{1, 1, 1},
		{3, 1, 1, 2},
		{7, 2, 2, 1, 1},
		{1, 2, 3, 4, 5},
	} {
		v, err := systems.NewVote(weights)
		if err != nil {
			t.Fatal(err)
		}
		verifyAlg(t, v, v.ProbeWitness)
	}
}

// On unit weights ProbeVote is exactly ProbeMaj: same probes on every
// coloring.
func TestProbeVoteMatchesProbeMajOnUnitWeights(t *testing.T) {
	v, _ := systems.NewVote([]int{1, 1, 1, 1, 1})
	m, _ := systems.NewMaj(5)
	coloring.All(5, func(col *coloring.Coloring) bool {
		a := DeterministicProbes(col, v.ProbeWitness)
		b := DeterministicProbes(col, m.ProbeWitness)
		if a != b {
			t.Fatalf("coloring %s: vote %d probes, maj %d probes", col, a, b)
		}
		return true
	})
}

// A dominant weight resolves the system in one probe when it alone crosses
// the threshold.
func TestProbeVoteDictator(t *testing.T) {
	v, _ := systems.NewVote([]int{7, 2, 2, 1, 1}) // threshold 7: element 0 decides
	for _, reds := range [][]int{{}, {0}, {1, 2}, {0, 1, 2, 3, 4}} {
		col := coloring.FromReds(5, reds)
		probes := DeterministicProbes(col, v.ProbeWitness)
		if probes != 1 {
			t.Errorf("reds=%v: %d probes, want 1 (dictator)", reds, probes)
		}
	}
}

// The generic strategies handle Vote through the System/Finder interfaces.
func TestGenericStrategiesOnVote(t *testing.T) {
	v, _ := systems.NewVote([]int{3, 1, 1, 2})
	verifyAlg(t, v, func(o probe.Oracle) probe.Witness { return SequentialScan(v, o) })
	verifyAlg(t, v, func(o probe.Oracle) probe.Witness { return Universal(v, o) })
	verifyAlg(t, v, func(o probe.Oracle) probe.Witness { return GreedyQuorum(v, o) })
}
