package probequorum

import (
	"math"
	"math/rand/v2"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/strategy"
)

// witnessRulePs are the failure probabilities the witness-rule checks
// solve ppc and its strategy tree at.
var witnessRulePs = []float64{0.3, 0.7}

// checkWitnessRule checks every measure that stops on a witness against
// the one witness rule (a green quorum, or a red set meeting every
// quorum) on a small system, ND or not: pc and ppc are at most n, the PC
// and PPC trees validate with depth pc and expected depth ppc, the Yao
// bound of the uniform distribution over all colorings is ppc at 1/2
// (for n <= 6, where its sparse memo stays cheap), and the witnesses of
// FindWitness, FindWitnessRandomized, Universal and GreedyQuorum verify
// on every coloring.
func checkWitnessRule(t *testing.T, eval *Evaluator, sys quorum.System, rng *rand.Rand) {
	t.Helper()
	n := sys.Size()
	pc, err := eval.ProbeComplexity(sys)
	if err != nil {
		t.Fatalf("%s: pc: %v", sys.Name(), err)
	}
	if pc > n {
		t.Fatalf("%s: pc %d > n = %d", sys.Name(), pc, n)
	}
	tree, err := eval.OptimalStrategyTree(sys)
	if err != nil {
		t.Fatalf("%s: PC tree: %v", sys.Name(), err)
	}
	if err := strategy.Validate(sys, tree); err != nil {
		t.Fatalf("%s: PC tree: %v", sys.Name(), err)
	}
	if d := tree.Depth(); d != pc {
		t.Fatalf("%s: PC tree depth %d, pc %d", sys.Name(), d, pc)
	}
	for _, p := range witnessRulePs {
		ppc, err := eval.AverageProbeComplexity(sys, p)
		if err != nil {
			t.Fatalf("%s: ppc(%v): %v", sys.Name(), p, err)
		}
		if ppc > float64(n) {
			t.Fatalf("%s: ppc(%v) = %v > n = %d", sys.Name(), p, ppc, n)
		}
		tree, err := strategy.BuildOptimalPPC(sys, p)
		if err != nil {
			t.Fatalf("%s: PPC tree at %v: %v", sys.Name(), p, err)
		}
		if err := strategy.Validate(sys, tree); err != nil {
			t.Fatalf("%s: PPC tree at %v: %v", sys.Name(), p, err)
		}
		if d := tree.ExpectedDepth(p); math.Abs(d-ppc) > 1e-9 {
			t.Fatalf("%s: PPC tree expected depth %v at %v, ppc %v", sys.Name(), d, p, ppc)
		}
	}
	if n <= 6 {
		var uniform []coloring.Weighted
		coloring.All(n, func(col *coloring.Coloring) bool {
			uniform = append(uniform, coloring.Weighted{Coloring: col.Clone(), Weight: 1})
			return true
		})
		yao, err := strategy.YaoBound(sys, uniform)
		if err != nil {
			t.Fatalf("%s: Yao bound: %v", sys.Name(), err)
		}
		if ppc, err := eval.AverageProbeComplexity(sys, 0.5); err != nil || math.Abs(yao-ppc) > 1e-9 {
			t.Fatalf("%s: Yao bound of the uniform distribution %v, ppc(0.5) %v, %v", sys.Name(), yao, ppc, err)
		}
	}
	finder := sys.(interface {
		quorum.System
		quorum.Finder
	})
	searches := []struct {
		name string
		run  func(o probe.Oracle) (probe.Witness, error)
	}{
		{"FindWitness", func(o probe.Oracle) (probe.Witness, error) { return FindWitness(sys, o) }},
		{"FindWitnessRandomized", func(o probe.Oracle) (probe.Witness, error) { return FindWitnessRandomized(sys, o, rng) }},
		{"Universal", func(o probe.Oracle) (probe.Witness, error) { return core.Universal(finder, o), nil }},
		{"GreedyQuorum", func(o probe.Oracle) (probe.Witness, error) { return core.GreedyQuorum(sys, o), nil }},
	}
	coloring.All(n, func(col *coloring.Coloring) bool {
		for _, s := range searches {
			o := probe.NewOracle(col)
			w, err := s.run(o)
			if err != nil {
				t.Fatalf("%s: %s on %s: %v", sys.Name(), s.name, col, err)
			}
			if err := probe.Verify(sys, w, col, o.Probed()); err != nil {
				t.Fatalf("%s: %s on %s: %v", sys.Name(), s.name, col, err)
			}
		}
		return true
	})
}

// randomFamily draws a quorum family over n <= 8 elements: up to six
// random nonempty sets reduced to an antichain. With intersecting set,
// sets that miss an earlier kept set are dropped and the family is built
// by NewExplicit; otherwise it is built by NewFamily as drawn.
func randomFamily(t *testing.T, rng *rand.Rand, intersecting bool) *quorum.Explicit {
	t.Helper()
	n := 1 + rng.IntN(8)
	var sets []*bitset.Set
	for k := 1 + rng.IntN(6); k > 0; k-- {
		mask := 1 + rng.Uint64N(uint64(1)<<n-1)
		s := quorum.SetOfMask(n, mask)
		if intersecting && !quorum.IsIntersecting(append(sets, s)) {
			continue
		}
		sets = append(sets, s)
	}
	sets = quorum.Minimize(sets)
	build := quorum.NewFamily
	if intersecting {
		build = quorum.NewExplicit
	}
	sys, err := build("random", n, sets)
	if err != nil {
		t.Fatalf("family %v over %d: %v", sets, n, err)
	}
	return sys
}

// TestWitnessRuleRandomFamilies runs checkWitnessRule over seeded random
// families with n <= 8, intersecting ones (NewExplicit) and arbitrary
// ones (NewFamily, as a read/write pair's read role is), most of them
// not ND.
func TestWitnessRuleRandomFamilies(t *testing.T) {
	const families = 2000
	rng := rand.New(rand.NewPCG(7, 11))
	eval := NewEvaluator()
	notND := 0
	for i := 0; i < families; i++ {
		sys := randomFamily(t, rng, i%2 == 0)
		if quorum.CheckND(sys) != nil {
			notND++
		}
		checkWitnessRule(t, eval, sys, rng)
	}
	if notND == 0 {
		t.Fatal("every family is ND; the test checks nothing beyond Lemma 2.1")
	}
	t.Logf("%d families, %d not ND", families, notND)
}

// TestWitnessRulePinnedAnswers pins pc, ppc and the PC tree of systems
// that are not ND coteries: read/write pairs, measured as their read
// roles, and the dominated family {0, 1} over three elements.
func TestWitnessRulePinnedAnswers(t *testing.T) {
	eval := NewEvaluator()
	dom, err := NewExplicitSystem("dom", 3, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(v float64) func(float64) float64 { return func(float64) float64 { return v } }
	cases := []struct {
		name   string
		sys    System
		pc     int
		leaves int                     // of the PC tree; 0 skips the check
		ps     []float64               // where ppc is checked
		ppc    func(p float64) float64 // exact, or pinned at the one p
	}{
		{"grid:3x3", MustParse("grid:3x3"), 9, 40, []float64{0.3}, pinned(4.574141)},
		{"grid:2x3", MustParse("grid:2x3"), 6, 0, []float64{0.3}, pinned(3.628830)},
		{"rowa:5", MustParse("rowa:5"), 5, 0, []float64{0.1, 0.3, 0.5, 0.77}, func(p float64) float64 { return (1 - math.Pow(p, 5)) / (1 - p) }},
		{"dominated", dom, 2, 0, []float64{0.1, 0.3, 0.5, 0.77}, func(p float64) float64 { return 2 - p }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pc, err := eval.ProbeComplexity(c.sys)
			if err != nil || pc != c.pc {
				t.Errorf("pc = %d, %v; want %d", pc, err, c.pc)
			}
			tree, err := eval.OptimalStrategyTree(c.sys)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Depth() != c.pc || (c.leaves > 0 && tree.Leaves() != c.leaves) {
				t.Errorf("PC tree depth %d with %d leaves, want depth %d with %d", tree.Depth(), tree.Leaves(), c.pc, c.leaves)
			}
			for _, p := range c.ps {
				got, err := eval.AverageProbeComplexity(c.sys, p)
				if want := c.ppc(p); err != nil || math.Abs(got-want) > 5e-7 {
					t.Errorf("ppc(%v) = %.9f, %v; want %.6f", p, got, err, want)
				}
			}
		})
	}
}

// FuzzExplicitMeasures runs checkWitnessRule on the family whose quorums
// are the fuzzed bytes read as element masks over n = 1 + nb%8 elements
// (at most 16 sets, zero masks dropped, reduced to an antichain). The
// checked-in corpus (testdata/fuzz/FuzzExplicitMeasures) starts from the
// dominated family {0, 1} over three elements, Maj(3), read-one's
// singletons, a 2x3 grid's rows and the full set.
func FuzzExplicitMeasures(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb uint8, masks []byte) {
		n := 1 + int(nb)%8
		var sets []*bitset.Set
		for _, b := range masks[:min(len(masks), 16)] {
			if m := uint64(b) & quorum.FullMask(n); m != 0 {
				sets = append(sets, quorum.SetOfMask(n, m))
			}
		}
		if len(sets) == 0 {
			return
		}
		sys, err := quorum.NewFamily("fuzz", n, quorum.Minimize(sets))
		if err != nil {
			t.Fatal(err)
		}
		checkWitnessRule(t, NewEvaluator(), sys, rand.New(rand.NewPCG(uint64(nb), uint64(len(masks)))))
	})
}

// TestSelfDualMatchesCheckND checks WitnessTable.SelfDual, the word-level
// mirror test, against CheckND's enumeration on every registered
// construction with n <= 13 and on seeded random families with n <= 8.
func TestSelfDualMatchesCheckND(t *testing.T) {
	var systems []quorum.System
	for _, sp := range registrySpecs(t) {
		systems = append(systems, MustParse(sp))
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 500; i++ {
		systems = append(systems, randomFamily(t, rng, i%2 == 0))
	}
	nd := 0
	for _, sys := range systems {
		table, err := quorum.BuildWitnessTable(sys)
		if err != nil {
			t.Fatal(err)
		}
		want := quorum.CheckND(sys) == nil
		if got := table.SelfDual(); got != want {
			t.Errorf("%s over %d: SelfDual = %v, CheckND says ND = %v", sys.Name(), sys.Size(), got, want)
		}
		if want {
			nd++
		}
	}
	if nd == 0 || nd == len(systems) {
		t.Fatalf("%d of %d systems are ND; the test needs both kinds", nd, len(systems))
	}
}
