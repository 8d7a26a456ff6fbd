package core

import (
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

func TestFullParallelSound(t *testing.T) {
	maj, _ := systems.NewMaj(7)
	tri, _ := systems.NewTriang(3)
	for _, sys := range []systemWithFinder{maj, tri} {
		coloring.All(sys.Size(), func(col *coloring.Coloring) bool {
			o := probe.NewBatchOracle(col)
			w := FullParallel(sys, o)
			if err := probe.Verify(sys, w, col, o.Probed()); err != nil {
				t.Fatalf("%s on %s: %v", sys.Name(), col, err)
			}
			if o.Rounds() != 1 {
				t.Fatalf("rounds = %d, want 1", o.Rounds())
			}
			if o.Probes() != sys.Size() {
				t.Fatalf("probes = %d, want n", o.Probes())
			}
			return true
		})
	}
}

func TestParallelProbeCWSound(t *testing.T) {
	for _, widths := range [][]int{{1}, {1, 2}, {1, 3, 2}, {1, 2, 3, 4}} {
		cw, _ := systems.NewCW(widths)
		coloring.All(cw.Size(), func(col *coloring.Coloring) bool {
			o := probe.NewBatchOracle(col)
			w := ParallelProbeCW(cw, o)
			if err := probe.Verify(cw, w, col, o.Probed()); err != nil {
				t.Fatalf("%v on %s: %v", widths, col, err)
			}
			if o.Rounds() > cw.Rows() {
				t.Fatalf("rounds %d > k = %d", o.Rounds(), cw.Rows())
			}
			return true
		})
	}
}

// A monochromatic bottom row finishes in one round.
func TestParallelProbeCWFastBottom(t *testing.T) {
	cw, _ := systems.NewCW([]int{1, 2, 3})
	col := coloring.New(6) // all green: bottom row is a quorum
	probes, rounds := ParallelCost(col, func(o *probe.BatchOracle) probe.Witness {
		return ParallelProbeCW(cw, o)
	})
	if rounds != 1 || probes != 3 {
		t.Errorf("probes=%d rounds=%d, want 3 and 1", probes, rounds)
	}
}

// The batch adapter makes sequential strategies cost one round per probe.
func TestSequentialRounds(t *testing.T) {
	cw, _ := systems.NewCW([]int{1, 2, 3})
	col := coloring.FromReds(6, []int{1, 4})
	probes, rounds := SequentialRounds(cw, col, cw.ProbeWitness)
	if probes != rounds {
		t.Errorf("sequential adapter: probes %d != rounds %d", probes, rounds)
	}
	if probes <= 0 || probes > 6 {
		t.Errorf("probes = %d out of range", probes)
	}
}

// Batch oracle bookkeeping: repeated probes count once, empty batches are
// free.
func TestBatchOracleAccounting(t *testing.T) {
	col := coloring.FromReds(4, []int{2})
	o := probe.NewBatchOracle(col)
	if out := o.ProbeBatch(nil); out != nil {
		t.Error("empty batch returned colors")
	}
	if o.Rounds() != 0 {
		t.Error("empty batch cost a round")
	}
	colors := o.ProbeBatch([]int{0, 2, 2})
	if len(colors) != 3 || colors[1] != coloring.Red || colors[2] != coloring.Red {
		t.Errorf("colors = %v", colors)
	}
	if o.Probes() != 2 || o.Rounds() != 1 {
		t.Errorf("probes=%d rounds=%d, want 2 and 1", o.Probes(), o.Rounds())
	}
	// Oracle interface adapter.
	if got := o.Probe(3); got != coloring.Green {
		t.Errorf("Probe(3) = %v", got)
	}
	if o.Rounds() != 2 {
		t.Errorf("rounds = %d after single probe, want 2", o.Rounds())
	}
}
