package strategy

import (
	"context"
	"errors"
	"math"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// Lemma 2.2 (from [15]): Maj, Wheel, CW and Tree are evasive — their
// deterministic worst-case probe complexity equals n.
func TestEvasiveSystems(t *testing.T) {
	maj5, _ := systems.NewMaj(5)
	maj7, _ := systems.NewMaj(7)
	wheel5, _ := systems.NewWheel(5)
	cw, _ := systems.NewCW([]int{1, 2, 3})
	tree1, _ := systems.NewTree(1)
	tree2, _ := systems.NewTree(2)
	for _, sys := range []quorum.System{maj5, maj7, wheel5, cw, tree1, tree2} {
		t.Run(sys.Name(), func(t *testing.T) {
			pc, err := OptimalPC(sys)
			if err != nil {
				t.Fatal(err)
			}
			if pc != sys.Size() {
				t.Errorf("PC = %d, want n = %d (evasive)", pc, sys.Size())
			}
		})
	}
}

// The §2.3 worked example, all three quantities for Maj3:
// PC = 3, PPC = 2.5, and the Yao bound under the hard distribution is
// 8/3 (matched by R_Probe_Maj from above, hence PCR = 8/3).
func TestMaj3WorkedExample(t *testing.T) {
	m, _ := systems.NewMaj(3)
	pc, err := OptimalPC(m)
	if err != nil {
		t.Fatal(err)
	}
	if pc != 3 {
		t.Errorf("PC(Maj3) = %d, want 3", pc)
	}
	ppc, err := OptimalPPC(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ppc-2.5) > 1e-12 {
		t.Errorf("PPC(Maj3) = %v, want 2.5", ppc)
	}
	yao, err := YaoBound(m, core.MajHardDistribution(m))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(yao-8.0/3.0) > 1e-12 {
		t.Errorf("Yao bound = %v, want 8/3", yao)
	}
}

// Theorem 4.2 lower bound: the Yao bound for Maj under the uniform
// (n+1)/2-red distribution equals n - (n-1)/(n+3).
func TestMajYaoBoundFormula(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		m, _ := systems.NewMaj(n)
		yao, err := YaoBound(m, core.MajHardDistribution(m))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n) - float64(n-1)/float64(n+3)
		if math.Abs(yao-want) > 1e-9 {
			t.Errorf("n=%d: Yao = %.6f, want %.6f", n, yao, want)
		}
	}
}

// Theorem 4.6: the CW hard distribution (one green per row) forces
// (n+k)/2 expected probes from every deterministic strategy, exactly.
func TestCWYaoBoundFormula(t *testing.T) {
	for _, widths := range [][]int{{1, 2}, {1, 2, 3}, {1, 3, 3}} {
		cw, _ := systems.NewCW(widths)
		yao, err := YaoBound(cw, core.HardCWDistribution(cw))
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, w := range widths {
			want += (float64(w) + 1) / 2
		}
		if math.Abs(yao-want) > 1e-9 {
			t.Errorf("%v: Yao = %.6f, want (n+k)/2 = %.6f", widths, yao, want)
		}
	}
}

// Theorem 4.8: the tree hard distribution forces 2(n+1)/3 expected probes
// (8/3 per height-1 subtree).
func TestTreeYaoBoundFormula(t *testing.T) {
	tr, _ := systems.NewTree(2)
	yao, err := YaoBound(tr, core.HardTreeDistribution(tr))
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * float64(tr.Size()+1) / 3.0
	if math.Abs(yao-want) > 1e-9 {
		t.Errorf("Yao = %.6f, want 2(n+1)/3 = %.6f", yao, want)
	}
}

// Proposition 3.2 / optimality of sequential probing for Maj: the optimal
// PPC equals the exact expectation of Probe_Maj under IID failures.
func TestMajPPCMatchesProbeMaj(t *testing.T) {
	m, _ := systems.NewMaj(5)
	for _, p := range []float64{0.2, 0.5, 0.8} {
		opt, err := OptimalPPC(m, p)
		if err != nil {
			t.Fatal(err)
		}
		exp := 0.0
		coloring.All(5, func(col *coloring.Coloring) bool {
			probes := core.DeterministicProbes(col, m.ProbeWitness)
			exp += float64(probes) * col.Probability(p)
			return true
		})
		if math.Abs(opt-exp) > 1e-9 {
			t.Errorf("p=%.1f: optimal PPC %.6f != Probe_Maj expectation %.6f", p, opt, exp)
		}
	}
}

// probeHQSExpectation returns the exact expected probes of Probe_HQS at
// p = 1/2 by exhaustive enumeration.
func probeHQSExpectation(t *testing.T, hq *systems.HQS) float64 {
	t.Helper()
	exp := 0.0
	coloring.All(hq.Size(), func(col *coloring.Coloring) bool {
		probes := core.DeterministicProbes(col, hq.ProbeWitness)
		exp += float64(probes) * col.Probability(0.5)
		return true
	})
	return exp
}

// Theorems 3.8/3.9: Probe_HQS costs exactly (5/2)^h at p = 1/2 and is
// optimal among directional (h-good) strategies; for h <= 1 it matches
// the unrestricted DP optimum exactly.
func TestHQSDirectionalOptimalityAtHalf(t *testing.T) {
	for h := 0; h <= 1; h++ {
		hq, _ := systems.NewHQS(h)
		opt, err := OptimalPPC(hq, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(2.5, float64(h))
		if math.Abs(opt-want) > 1e-9 {
			t.Errorf("h=%d: optimal PPC = %.6f, want (5/2)^h = %.6f", h, opt, want)
		}
		if exp := probeHQSExpectation(t, hq); math.Abs(exp-opt) > 1e-9 {
			t.Errorf("h=%d: Probe_HQS expectation %.6f != optimal %.6f", h, exp, opt)
		}
	}
}

// Reproduction finding (documented in EXPERIMENTS.md): at height 2 the
// exhaustive DP over all adaptive strategies finds expected probes
// 393/64 = 6.140625, strictly better than Probe_HQS's (5/2)^2 = 6.25.
// The improvement comes from leaving a gate "pending" after two
// disagreeing leaves (its value then equals its unprobed third leaf) and
// resolving it only if the root still needs it — a non-h-good strategy
// outside the class covered by the paper's Theorem 3.9 exchange argument.
func TestHQSHeight2AdaptiveOptimum(t *testing.T) {
	hq, _ := systems.NewHQS(2)
	opt, err := OptimalPPC(hq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := 393.0 / 64.0; math.Abs(opt-want) > 1e-9 {
		t.Errorf("adaptive optimum = %.9f, want 393/64 = %.9f", opt, want)
	}
	if probeHQS := probeHQSExpectation(t, hq); math.Abs(probeHQS-6.25) > 1e-9 {
		t.Errorf("Probe_HQS expectation = %.9f, want (5/2)^2 = 6.25", probeHQS)
	}
	// The DP value is realized by a validated strategy tree: this rules
	// out a DP artifact.
	tree, err := BuildOptimalPPC(hq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(hq, tree); err != nil {
		t.Fatalf("optimal PPC tree invalid: %v", err)
	}
	if got := tree.ExpectedDepth(0.5); math.Abs(got-opt) > 1e-9 {
		t.Errorf("materialized tree expected depth %.9f != DP value %.9f", got, opt)
	}
}

func TestBuildOptimalPPCMaj5(t *testing.T) {
	m, _ := systems.NewMaj(5)
	for _, p := range []float64{0.25, 0.5} {
		tree, err := BuildOptimalPPC(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(m, tree); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		opt, err := OptimalPPC(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.ExpectedDepth(p); math.Abs(got-opt) > 1e-9 {
			t.Errorf("p=%v: tree expected depth %.9f != optimal %.9f", p, got, opt)
		}
	}
}

// Probe_CW is near-optimal in the probabilistic model; the optimum can
// only be smaller, and both respect the 2k-1 bound at p = 1/2.
func TestCWPPCSandwich(t *testing.T) {
	cw, _ := systems.NewCW([]int{1, 3, 2})
	opt, err := OptimalPPC(cw, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	exp := 0.0
	coloring.All(cw.Size(), func(col *coloring.Coloring) bool {
		probes := core.DeterministicProbes(col, cw.ProbeWitness)
		exp += float64(probes) * col.Probability(0.5)
		return true
	})
	if opt > exp+1e-9 {
		t.Errorf("optimal %.6f exceeds Probe_CW expectation %.6f", opt, exp)
	}
	if bound := float64(2*cw.Rows() - 1); exp > bound {
		t.Errorf("Probe_CW expectation %.6f > 2k-1 = %.0f", exp, bound)
	}
}

func TestBuildOptimalPCMaj3(t *testing.T) {
	m, _ := systems.NewMaj(3)
	tree, err := BuildOptimalPC(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m, tree); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tree.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	// The natural Maj3 tree of Fig. 4 also attains the PPC optimum at 1/2.
	if got := tree.ExpectedDepth(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("ExpectedDepth(1/2) = %v, want 2.5", got)
	}
	if got := tree.Leaves(); got != 6 {
		t.Errorf("Leaves = %d, want 6 (Fig. 4 shape)", got)
	}
	// Execute against a concrete coloring.
	col := coloring.FromReds(3, []int{1, 2})
	leaf, probes := tree.Execute(col)
	if leaf != coloring.Red || probes < 2 || probes > 3 {
		t.Errorf("Execute = (%s, %d)", leaf, probes)
	}
}

func TestBuildOptimalPCValidatesForAllSystems(t *testing.T) {
	maj5, _ := systems.NewMaj(5)
	wheel4, _ := systems.NewWheel(4)
	cw, _ := systems.NewCW([]int{1, 2})
	tree1, _ := systems.NewTree(1)
	hqs1, _ := systems.NewHQS(1)
	for _, sys := range []quorum.System{maj5, wheel4, cw, tree1, hqs1} {
		t.Run(sys.Name(), func(t *testing.T) {
			tree, err := BuildOptimalPC(sys)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(sys, tree); err != nil {
				t.Error(err)
			}
			pc, err := OptimalPC(sys)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Depth() != pc {
				t.Errorf("materialized depth %d != optimal PC %d", tree.Depth(), pc)
			}
			// Execute every coloring and cross-check the declared color
			// against the true state.
			coloring.All(sys.Size(), func(col *coloring.Coloring) bool {
				leaf, probes := tree.Execute(col)
				if state := probe.StateOf(sys, col); leaf != state {
					t.Fatalf("tree declares %s on %s, true state %s", leaf, col, state)
				}
				if probes > pc {
					t.Fatalf("path length %d > PC %d", probes, pc)
				}
				return true
			})
		})
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	m, _ := systems.NewMaj(3)
	// A tree that declares green without evidence.
	bad := &Node{Element: -1, Leaf: coloring.Green}
	if err := Validate(m, bad); err == nil {
		t.Error("Validate accepted an evidence-free leaf")
	}
	// A tree probing the same element twice.
	leafG := &Node{Element: -1, Leaf: coloring.Green}
	dup := &Node{Element: 0, OnGreen: &Node{Element: 0, OnGreen: leafG, OnRed: leafG}, OnRed: leafG}
	if err := Validate(m, dup); err == nil {
		t.Error("Validate accepted a duplicate probe")
	}
	// A tree with a missing child.
	hole := &Node{Element: 0, OnGreen: leafG}
	if err := Validate(m, hole); err == nil {
		t.Error("Validate accepted a missing child")
	}
	// A tree probing an element outside the universe.
	oob := &Node{Element: 30, OnGreen: leafG, OnRed: leafG}
	if err := Validate(m, oob); err == nil {
		t.Error("Validate accepted an out-of-universe element")
	}
}

func TestGuards(t *testing.T) {
	big, _ := systems.NewMaj(21)
	if _, err := OptimalPC(big); err == nil {
		t.Error("OptimalPC accepted n > MaxUniverse")
	}
	if _, err := OptimalPPC(big, 0.5); err == nil {
		t.Error("OptimalPPC accepted n > MaxUniverse")
	}
	m, _ := systems.NewMaj(3)
	if _, err := OptimalPPC(m, 1.5); err == nil {
		t.Error("OptimalPPC accepted p > 1")
	}
	if _, err := YaoBound(m, nil); err == nil {
		t.Error("YaoBound accepted an empty distribution")
	}
}

// PPC is monotone-ish in symmetry: by Fact 2.3(2) style symmetry the
// optimal PPC at p and 1-p coincide for self-dual systems.
func TestPPCSymmetry(t *testing.T) {
	maj5, _ := systems.NewMaj(5)
	tree1, _ := systems.NewTree(1)
	hqs1, _ := systems.NewHQS(1)
	for _, sys := range []quorum.System{maj5, tree1, hqs1} {
		for _, p := range []float64{0.1, 0.3} {
			a, err := OptimalPPC(sys, p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := OptimalPPC(sys, 1-p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("%s: PPC(%.1f)=%.6f != PPC(%.1f)=%.6f", sys.Name(), p, a, 1-p, b)
			}
		}
	}
}

func TestOptimalDPsCtxCancelled(t *testing.T) {
	maj, _ := systems.NewMaj(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimalPPCWithTableCtx(ctx, maj, nil, 0.5); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalPPCWithTableCtx: err = %v, want context.Canceled", err)
	}
	if _, err := OptimalPCWithTableCtx(ctx, maj, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalPCWithTableCtx: err = %v, want context.Canceled", err)
	}
	if _, err := BuildOptimalPCWithTableCtx(ctx, maj, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildOptimalPCWithTableCtx: err = %v, want context.Canceled", err)
	}
	// A prebuilt table skips the (ctx-checked) table build, exercising
	// the solver's own stop flag instead.
	table, err := quorum.BuildWitnessTable(maj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimalPPCWithTableCtx(ctx, maj, table, 0.5); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalPPCWithTableCtx with prebuilt table: err = %v, want context.Canceled", err)
	}
}
