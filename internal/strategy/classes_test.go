package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/spec"
	"probequorum/internal/systems"
)

// asymmetricVote returns the weighted threshold with weights n, n-1, ...,
// 1: no two of its elements are interchangeable, so its DPs solve all 3^n
// states. n(n+1)/2 must be odd.
func asymmetricVote(tb testing.TB, n int) *systems.Vote {
	tb.Helper()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = n - i
	}
	v, err := systems.NewVote(weights)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// classInstances maps every registered construction form to instances
// with n <= 12; explicit systems have no spec and are added by hand.
var classInstances = map[string][]string{
	"maj":      {"maj:3", "maj:5", "maj:7", "maj:9", "maj:11"},
	"wheel":    {"wheel:4", "wheel:8", "wheel:12"},
	"cw":       {"cw:1,2", "cw:1,3,2", "cw:1,2,2,2,2", "cw:1,2,3,4"},
	"triang":   {"triang:3", "triang:4"},
	"tree":     {"tree:1", "tree:2"},
	"hqs":      {"hqs:1", "hqs:2"},
	"vote":     {"vote:3,1,1,2", "vote:4,2,2,1,1,1,1,1", "vote:3,3,2,2,1,1,1"},
	"recmaj":   {"recmaj:5x1", "recmaj:3x2"},
	"rw":       {"rw:maj:9", "rw:wheel:6"},
	"rowa":     {"rowa:5"},
	"grid":     {"grid:2x3", "grid:3x3"},
	"explicit": nil,
}

// classFixtures returns classInstances' systems plus the asymmetric vote
// over ten elements and a dominated Explicit (its one quorum {0, 1} over
// three elements leaves colorings with a quorum of neither color).
func classFixtures(t *testing.T) []quorum.System {
	t.Helper()
	var out []quorum.System
	for _, name := range spec.Names() {
		insts, ok := classInstances[name]
		if !ok {
			t.Fatalf("registered construction %q has no instances in classInstances", name)
		}
		for _, s := range insts {
			sys, err := spec.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Size() > 12 {
				t.Fatalf("%s: n = %d, want <= 12", s, sys.Size())
			}
			out = append(out, sys)
		}
	}
	dominated, err := quorum.NewExplicit("dominated", 3, []*bitset.Set{bitset.FromSlice(3, []int{0, 1})})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, asymmetricVote(t, 10), dominated)
}

// diffPs are the failure probabilities the differential solves ppc at.
var diffPs = []float64{0.1, 0.3, 0.5, 0.77}

// answers returns every value the differential compares, one line each:
// pc, the ppc bit patterns at diffPs in both memo precisions, and the
// BuildOptimalPC and BuildOptimalPPC trees, or the panic a descent raises
// on a dominated system.
func answers(t *testing.T, sys quorum.System) []string {
	t.Helper()
	pc, err := OptimalPC(sys)
	if err != nil {
		t.Fatal(err)
	}
	out := []string{fmt.Sprintf("pc %d", pc), "pc tree " + treeOf(func() (*Node, error) { return BuildOptimalPC(sys) })}
	for _, p := range diffPs {
		v, err := OptimalPPC(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("ppc(%v) %#x", p, math.Float64bits(v)),
			fmt.Sprintf("ppc(%v) tree %s", p, treeOf(func() (*Node, error) { return BuildOptimalPPC(sys, p) })))
	}
	old := maxFloat64States
	maxFloat64States = 1
	defer func() { maxFloat64States = old }()
	for _, p := range diffPs {
		v, err := OptimalPPC(sys, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("float32 ppc(%v) %#x", p, math.Float64bits(v)))
	}
	return out
}

// treeOf renders the tree build's result in preorder, or its panic.
func treeOf(build func() (*Node, error)) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprint("panic: ", r)
		}
	}()
	nd, err := build()
	if err != nil {
		return "error: " + err.Error()
	}
	var render func(nd *Node) string
	render = func(nd *Node) string {
		if nd.IsLeaf() {
			return nd.Leaf.String()
		}
		return fmt.Sprintf("(%d %s %s)", nd.Element, render(nd.OnGreen), render(nd.OnRed))
	}
	return render(nd)
}

// The class DP must answer exactly what the DP over all 3^n element
// states answers: equal pc, bit-equal ppc in both memo precisions, and
// structurally equal strategy trees — on symmetric, asymmetric, two-role
// and dominated systems alike.
func TestClassDPMatchesSingletonDP(t *testing.T) {
	for _, sys := range classFixtures(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			got := answers(t, sys)
			singletonClasses = true
			want := answers(t, sys)
			singletonClasses = false
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("classes: %s\nsingletons: %s", got[i], want[i])
				}
			}
		})
	}
}

// Pre-cancelled solves on a prebuilt table skip the ctx-checked table
// build, so they exercise the class engine's own stop flag: a one-class
// system and one without symmetry.
func TestClassDPCtxCancelled(t *testing.T) {
	maj, err := systems.NewMaj(13)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sys := range []quorum.System{maj, asymmetricVote(t, 10)} {
		table, err := quorum.BuildWitnessTable(sys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OptimalPPCWithTableCtx(ctx, sys, table, 0.5); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: OptimalPPCWithTableCtx: err = %v, want context.Canceled", sys.Name(), err)
		}
		if _, err := OptimalPCWithTableCtx(ctx, sys, table); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: OptimalPCWithTableCtx: err = %v, want context.Canceled", sys.Name(), err)
		}
		if _, err := BuildOptimalPCWithTableCtx(ctx, sys, table); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: BuildOptimalPCWithTableCtx: err = %v, want context.Canceled", sys.Name(), err)
		}
	}
}

// A raised stop flag unwinds the recursion at once: the solve returns
// without storing a single memo cell, so nothing of a cancelled solve
// can leak into a value.
func TestClassDPStopFlagUnwinds(t *testing.T) {
	sys := asymmetricVote(t, 10)
	table, err := quorum.BuildWitnessTable(sys)
	if err != nil {
		t.Fatal(err)
	}
	ppc, err := newPPCSolver(context.Background(), sys, table, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := newPCSolver(context.Background(), sys, table)
	if err != nil {
		t.Fatal(err)
	}
	ppc.eng.stop.Store(true)
	pc.eng.stop.Store(true)
	if v := ppc.value(state{}); v != 0 {
		t.Errorf("stopped ppc solve returned %v, want 0", v)
	}
	if v := pc.value(state{}); v != 0 {
		t.Errorf("stopped pc solve returned %v, want 0", v)
	}
	for i, b := range ppc.d64 {
		if b != 0 {
			t.Fatalf("stopped ppc solve stored memo cell %d", i)
		}
	}
	for i, v := range pc.memo {
		if v != 0 {
			t.Fatalf("stopped pc solve stored memo cell %d", i)
		}
	}
}
