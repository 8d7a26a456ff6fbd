package core

import (
	"math/rand/v2"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// Extreme failure injection: on all-green and all-red universes every
// algorithm must return a minimal-cost witness of the right color.
func TestAlgorithmsOnMonochromaticUniverses(t *testing.T) {
	maj, _ := systems.NewMaj(9)
	tri, _ := systems.NewTriang(4)
	tree, _ := systems.NewTree(3)
	hqs, _ := systems.NewHQS(2)
	rng := rand.New(rand.NewPCG(1, 100))

	type algo struct {
		name string
		sys  quorum.System
		run  func(o probe.Oracle) probe.Witness
	}
	algos := []algo{
		{"ProbeMaj", maj, maj.ProbeWitness},
		{"RProbeMaj", maj, func(o probe.Oracle) probe.Witness { return maj.ProbeWitnessRandomized(o, rng) }},
		{"ProbeCW", tri, tri.ProbeWitness},
		{"RProbeCW", tri, func(o probe.Oracle) probe.Witness { return tri.ProbeWitnessRandomized(o, rng) }},
		{"ProbeTree", tree, tree.ProbeWitness},
		{"RProbeTree", tree, func(o probe.Oracle) probe.Witness { return tree.ProbeWitnessRandomized(o, rng) }},
		{"ProbeHQS", hqs, hqs.ProbeWitness},
		{"RProbeHQS", hqs, func(o probe.Oracle) probe.Witness { return hqs.RecMaj.ProbeWitnessRandomized(o, rng) }},
		{"IRProbeHQS", hqs, func(o probe.Oracle) probe.Witness { return hqs.ProbeWitnessRandomized(o, rng) }},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			n := a.sys.Size()
			allGreen := coloring.New(n)
			allRed := coloring.FromRedSet(coloring.New(n).RedSet().Complement())
			for _, tc := range []struct {
				col  *coloring.Coloring
				want coloring.Color
			}{
				{allGreen, coloring.Green},
				{allRed, coloring.Red},
			} {
				o := probe.NewOracle(tc.col)
				w := a.run(o)
				if w.Color != tc.want {
					t.Fatalf("monochromatic universe: witness %s, want %s", w.Color, tc.want)
				}
				if err := probe.Verify(a.sys, w, tc.col, o.Probed()); err != nil {
					t.Fatal(err)
				}
				// A monochromatic universe needs at most max-quorum-size
				// probes for these systems' strategies.
				if o.Probes() > quorum.MaxQuorumSize(a.sys) {
					t.Fatalf("%d probes on a monochromatic universe, max quorum is %d",
						o.Probes(), quorum.MaxQuorumSize(a.sys))
				}
			}
		})
	}
}

// Vote systems with a dictator element are NOT evasive: one probe decides
// the system state — a counterpoint to Lemma 2.2 worth pinning down.
func TestVoteDictatorNotEvasive(t *testing.T) {
	v, err := systems.NewVote([]int{7, 2, 2, 1, 1}) // threshold 7 = w_0
	if err != nil {
		t.Fatal(err)
	}
	coloring.All(v.Size(), func(col *coloring.Coloring) bool {
		probes := DeterministicProbes(col, v.ProbeWitness)
		if probes != 1 {
			t.Fatalf("coloring %s: %d probes, want 1 (dictator decides)", col, probes)
		}
		return true
	})
}

// Large-instance smoke tests: structural evaluation stays sound far beyond
// enumeration range.
func TestLargeInstanceSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 200))
	tree, _ := systems.NewTree(12)       // n = 8191
	hqs, _ := systems.NewHQS(7)          // n = 2187
	recmaj, _ := systems.NewRecMaj(5, 4) // n = 625
	big := []struct {
		sys quorum.System
		run func(o probe.Oracle) probe.Witness
	}{
		{tree, tree.ProbeWitness},
		{hqs, hqs.ProbeWitness},
		{recmaj, recmaj.ProbeWitness},
	}
	for _, tc := range big {
		t.Run(tc.sys.Name(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				col := coloring.IID(tc.sys.Size(), 0.5, rng)
				o := probe.NewOracle(col)
				w := tc.run(o)
				if err := probe.Verify(tc.sys, w, col, o.Probed()); err != nil {
					t.Fatal(err)
				}
				if o.Probes() >= tc.sys.Size() {
					t.Fatalf("probed the whole universe (%d); structure not exploited", o.Probes())
				}
			}
		})
	}
}

// Corollary 4.5(2): the worst-case expectation of R_Probe_CW on the wheel
// representation is n-1, with the maximum attained at the rim row. That
// holds for n >= 5; at n = 4 the Theorem 4.4 maximum sits at the hub row
// instead (1 + n/2 + 1/(n-1) = 10/3 > 3), a small-n edge the corollary's
// "easy to check" skips over.
func TestRProbeCWWheelWorstCase(t *testing.T) {
	for _, n := range []int{5, 7, 10} {
		w, err := systems.NewWheel(n)
		if err != nil {
			t.Fatal(err)
		}
		cw := w.CW
		worst := 0.0
		coloring.All(cw.Size(), func(col *coloring.Coloring) bool {
			if v := ExactRProbeCW(cw, col); v > worst {
				worst = v
			}
			return true
		})
		if want := float64(n - 1); worst != want {
			t.Errorf("n=%d: worst = %v, want n-1 = %v", n, worst, want)
		}
	}
	// The n = 4 exception, exactly.
	w4, _ := systems.NewWheel(4)
	cw4 := w4.CW
	worst := 0.0
	coloring.All(4, func(col *coloring.Coloring) bool {
		if v := ExactRProbeCW(cw4, col); v > worst {
			worst = v
		}
		return true
	})
	if want := 10.0 / 3.0; worst != want {
		t.Errorf("n=4: worst = %v, want 10/3 (hub-row maximizer)", worst)
	}
}

// The oracle's probe accounting is what the exact evaluators integrate:
// replaying a deterministic algorithm twice gives identical probe sets.
func TestDeterministicReplayStability(t *testing.T) {
	tri, _ := systems.NewTriang(5)
	rng := rand.New(rand.NewPCG(3, 300))
	for trial := 0; trial < 50; trial++ {
		col := coloring.IID(tri.Size(), 0.4, rng)
		o1 := probe.NewOracle(col)
		o2 := probe.NewOracle(col)
		tri.ProbeWitness(o1)
		tri.ProbeWitness(o2)
		if !o1.Probed().Equal(o2.Probed()) {
			t.Fatalf("deterministic algorithm probed different sets on replay")
		}
	}
}
