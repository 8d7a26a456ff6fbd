package core

import (
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

func TestGreedyQuorumSound(t *testing.T) {
	maj, _ := systems.NewMaj(7)
	wheel, _ := systems.NewWheel(6)
	cw, _ := systems.NewCW([]int{1, 3, 2})
	tree, _ := systems.NewTree(2)
	hqs, _ := systems.NewHQS(2)
	for _, sys := range []quorum.System{maj, wheel, cw, tree, hqs} {
		t.Run(sys.Name(), func(t *testing.T) {
			verifyAlg(t, sys, func(o probe.Oracle) probe.Witness {
				return GreedyQuorum(sys, o)
			})
		})
	}
}

// On the wheel with a live hub, the heuristic goes straight for a spoke
// pair: two probes.
func TestGreedyQuorumWheelFastPath(t *testing.T) {
	w, _ := systems.NewWheel(10)
	col := coloring.New(10) // all live
	o := probe.NewOracle(col)
	witness := GreedyQuorum(w, o)
	if witness.Color != coloring.Green {
		t.Fatalf("witness color = %s", witness.Color)
	}
	if o.Probes() != 2 {
		t.Errorf("probes = %d, want 2 (hub + one rim)", o.Probes())
	}
}

// The heuristic should never probe more than the universe, and on CW
// workloads it should land in the same league as the paper's strategy.
func TestGreedyQuorumReasonableCost(t *testing.T) {
	tri, _ := systems.NewTriang(4)
	total := 0
	count := 0
	coloring.All(tri.Size(), func(col *coloring.Coloring) bool {
		probes := DeterministicProbes(col, func(o probe.Oracle) probe.Witness {
			return GreedyQuorum(tri, o)
		})
		if probes > tri.Size() {
			t.Fatalf("probes %d > n", probes)
		}
		total += probes
		count++
		return true
	})
	avgGreedy := float64(total) / float64(count)
	// Against Probe_CW's exact uniform-average.
	totalCW := 0
	coloring.All(tri.Size(), func(col *coloring.Coloring) bool {
		totalCW += DeterministicProbes(col, tri.ProbeWitness)
		return true
	})
	avgCW := float64(totalCW) / float64(count)
	if avgGreedy > 2*avgCW {
		t.Errorf("greedy average %.3f more than twice Probe_CW's %.3f", avgGreedy, avgCW)
	}
}
