package strategy

import (
	"context"
	"math"
	"runtime"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// goldenFixture is a system with the values the map-based reference DPs
// (since deleted) computed for it: PC, PPC at goldenPs, and the Yao bound
// under the uniform distribution over colorings with a minimal quorum's
// worth of reds.
type goldenFixture struct {
	sys quorum.System
	pc  int
	ppc [3]float64
	yao float64
}

// goldenPs are the failure probabilities of goldenFixture.ppc.
var goldenPs = [3]float64{0.2, 0.5, 0.7}

// goldenFixtures returns one n <= 9 instance per construction family.
func goldenFixtures(t *testing.T) []goldenFixture {
	t.Helper()
	maj, err := systems.NewMaj(9)
	if err != nil {
		t.Fatal(err)
	}
	wheel, err := systems.NewWheel(8)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := systems.NewCW([]int{1, 3, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := systems.NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	hqs, err := systems.NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	vote, err := systems.NewVote([]int{4, 2, 2, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return []goldenFixture{
		{maj, 9, [3]float64{6.204275200000001, 7.5390625, 6.858661700000001}, 8.333333333333353},
		{wheel, 8, [3]float64{2.7902720000000003, 2.984375, 2.917427}, 3},
		{cw, 9, [3]float64{3.9994240000000008, 4.984375, 4.501059}, 4.880952380952387},
		{tree, 7, [3]float64{3.903168, 4.6875, 4.310988}, 5.142857142857142},
		{hqs, 9, [3]float64{5.0252697600000005, 6.140625, 5.58068596}, 6.722222222222238},
		{vote, 8, [3]float64{4.116416, 5, 4.5862560000000006}, 5.196428571428567},
	}
}

// OptimalPC must reproduce the reference DP's values exactly.
func TestGoldenOptimalPCMatchesLegacy(t *testing.T) {
	for _, f := range goldenFixtures(t) {
		t.Run(f.sys.Name(), func(t *testing.T) {
			got, err := OptimalPC(f.sys)
			if err != nil {
				t.Fatal(err)
			}
			if got != f.pc {
				t.Errorf("OptimalPC = %d, reference = %d", got, f.pc)
			}
		})
	}
}

// OptimalPPC must match the reference DP's values to within 1e-12 at
// several failure probabilities (both compute the identical
// floating-point expression, so the tolerance has plenty of slack).
func TestGoldenOptimalPPCMatchesLegacy(t *testing.T) {
	for _, f := range goldenFixtures(t) {
		t.Run(f.sys.Name(), func(t *testing.T) {
			for i, p := range goldenPs {
				got, err := OptimalPPC(f.sys, p)
				if err != nil {
					t.Fatal(err)
				}
				if want := f.ppc[i]; math.Abs(got-want) > 1e-12 {
					t.Errorf("p=%v: OptimalPPC = %.15f, reference = %.15f", p, got, want)
				}
			}
		})
	}
}

// YaoBound must match the reference DP's value to within 1e-12 under a
// nontrivial fixed-weight distribution.
func TestGoldenYaoBoundMatchesLegacy(t *testing.T) {
	for _, f := range goldenFixtures(t) {
		t.Run(f.sys.Name(), func(t *testing.T) {
			r := quorum.MinQuorumSize(f.sys)
			dist := coloring.UniformOverWeight(f.sys.Size(), r)
			got, err := YaoBound(f.sys, dist)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-f.yao) > 1e-12 {
				t.Errorf("YaoBound = %.15f, reference = %.15f", got, f.yao)
			}
		})
	}
}

// The parallel root expansion must be invisible in the results: the same
// computation under GOMAXPROCS 1 and 8 returns bit-identical values. The
// weighted vote with weights 10, 9, ..., 1 has no two interchangeable
// elements, so its 3^10 states reach parallelRootStates and the expansion
// really runs.
func TestParallelRootExpansionDeterministic(t *testing.T) {
	vote := asymmetricVote(t, 10)
	if e, err := newEngine(context.Background(), vote, nil); err != nil {
		t.Fatal(err)
	} else if e.states < parallelRootStates {
		t.Fatalf("fixture too small to exercise parallel expansion: %d states", e.states)
	}
	old := runtime.GOMAXPROCS(1)
	seq, err := OptimalPPC(vote, 0.4)
	runtime.GOMAXPROCS(8)
	par, err2 := OptimalPPC(vote, 0.4)
	parPC, err3 := OptimalPC(vote)
	runtime.GOMAXPROCS(1)
	seqPC, err4 := OptimalPC(vote)
	runtime.GOMAXPROCS(old)
	for _, e := range []error{err, err2, err3, err4} {
		if e != nil {
			t.Fatal(e)
		}
	}
	if seq != par {
		t.Errorf("OptimalPPC differs across GOMAXPROCS: %.17g vs %.17g", seq, par)
	}
	if seqPC != parPC {
		t.Errorf("OptimalPC differs across GOMAXPROCS: %d vs %d", seqPC, parPC)
	}
}

// BuildOptimalPPC must survive the float32 memo regime (n = 17-18): the
// rounded target needs a matching acceptance window or no element ever
// attains it. Forcing the float32 path on a small universe reproduces the
// regime in milliseconds; the float64 solve is the reference.
func TestBuildOptimalPPCFloat32Memo(t *testing.T) {
	m, err := systems.NewMaj(7)
	if err != nil {
		t.Fatal(err)
	}
	ps := []float64{0.3, 0.5}
	want := make([]float64, len(ps))
	for i, p := range ps {
		if want[i], err = OptimalPPC(m, p); err != nil {
			t.Fatal(err)
		}
	}
	old := maxFloat64States
	maxFloat64States = 1
	defer func() { maxFloat64States = old }()
	for i, p := range ps {
		tree, err := BuildOptimalPPC(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(m, tree); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if got := tree.ExpectedDepth(p); math.Abs(got-want[i]) > 1e-5 {
			t.Errorf("p=%v: float32-memo tree expected depth %.9f, optimum %.9f", p, got, want[i])
		}
	}
}

// The raised MaxUniverse still guards: 3^19 states are out of reach.
func TestMaxUniverseIs18(t *testing.T) {
	if MaxUniverse != 18 {
		t.Fatalf("MaxUniverse = %d, want 18", MaxUniverse)
	}
	big, err := systems.NewMaj(19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimalPC(big); err == nil {
		t.Error("OptimalPC accepted n = 19")
	}
	if _, err := OptimalPPC(big, 0.5); err == nil {
		t.Error("OptimalPPC accepted n = 19")
	}
}
