package probequorum

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"probequorum/internal/availability"
	"probequorum/internal/strategy"
)

// builtinSpecs is one representative instance per registered
// construction.
var builtinSpecs = []string{
	"maj:7", "wheel:6", "cw:1,3,2", "triang:4",
	"tree:2", "hqs:2", "vote:3,1,1,2", "recmaj:3x2",
}

// TestBuiltinCapabilityConformance pins the API contract: every built-in
// construction implements the words fast path, all three probing
// capabilities, both closed-form capabilities, the renderer and the spec
// round-trip. A built-in without WordsProber would silently leave the
// estimate's words strategy for its generic branch.
func TestBuiltinCapabilityConformance(t *testing.T) {
	for _, spec := range builtinSpecs {
		sys, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		t.Run(sys.Name(), func(t *testing.T) {
			if _, ok := sys.(WideMaskSystem); !ok {
				t.Error("does not implement WideMaskSystem")
			}
			if _, ok := sys.(Prober); !ok {
				t.Error("does not implement Prober")
			}
			if _, ok := sys.(RandomizedProber); !ok {
				t.Error("does not implement RandomizedProber")
			}
			if _, ok := sys.(WordsProber); !ok {
				t.Error("does not implement WordsProber")
			}
			if _, ok := sys.(ExactExpectation); !ok {
				t.Error("does not implement ExactExpectation")
			}
			if _, ok := sys.(ExactAvailability); !ok {
				t.Error("does not implement ExactAvailability")
			}
			if _, ok := sys.(Renderer); !ok {
				t.Error("does not implement Renderer")
			}
			if _, ok := sys.(Specced); !ok {
				t.Error("does not implement Specced")
			}
			if _, ok := sys.(Finder); !ok {
				t.Error("does not implement Finder")
			}
		})
	}
}

// TestExplicitCapabilities pins the optional-capability boundary:
// Explicit systems carry the words path and a display spec but no probing
// strategy, closed form or renderer — they take the generic fallbacks.
func TestExplicitCapabilities(t *testing.T) {
	exp, err := NewExplicitSystem("maj3", 3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exp.(WideMaskSystem); !ok {
		t.Error("Explicit does not implement WideMaskSystem")
	}
	if _, ok := exp.(Specced); !ok {
		t.Error("Explicit does not implement Specced")
	}
	for name, ok := range map[string]bool{
		"Prober":            implements[Prober](exp),
		"RandomizedProber":  implements[RandomizedProber](exp),
		"ExactExpectation":  implements[ExactExpectation](exp),
		"ExactAvailability": implements[ExactAvailability](exp),
		"Renderer":          implements[Renderer](exp),
	} {
		if ok {
			t.Errorf("Explicit unexpectedly implements %s", name)
		}
	}
	// The fallbacks still serve it: sequential scan and brute-force
	// availability.
	col := ColoringFromReds(3, []int{1})
	w, err := FindWitness(exp, NewOracle(col))
	if err != nil {
		t.Fatalf("FindWitness fallback: %v", err)
	}
	if err := VerifyWitness(exp, w, col); err != nil {
		t.Fatalf("fallback witness: %v", err)
	}
	if f := Availability(exp, 0.5); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("Availability fallback = %v, want 0.5", f)
	}
}

func implements[T any](sys System) bool {
	_, ok := sys.(T)
	return ok
}

// NewExplicitSystem is a test helper building an Explicit via the façade
// types.
func NewExplicitSystem(name string, n int, quorums [][]int) (System, error) {
	sets := make([]*Set, len(quorums))
	for i, q := range quorums {
		sets[i] = SetOf(n, q...)
	}
	return NewExplicit(name, n, sets)
}

// TestParseSpecRoundTrip checks Parse against Spec() for every
// construction: the canonical form rebuilds an identical system.
func TestParseSpecRoundTrip(t *testing.T) {
	cases := map[string]string{ // input -> canonical
		"maj:7":          "maj:7",
		"MAJ: 7":         "maj:7",
		"wheel:6":        "wheel:6",
		"cw:1,3,2":       "cw:1,3,2",
		"cw: 1 , 3 ,2":   "cw:1,3,2",
		"triang:4":       "triang:4",
		"tree:2":         "tree:2",
		"hqs:2":          "hqs:2",
		"vote:3,1,1,2":   "vote:3,1,1,2",
		"recmaj:3x2":     "recmaj:3x2",
		"recmaj: 5 x 1 ": "recmaj:5x1",
	}
	for input, canonical := range cases {
		sys, err := Parse(input)
		if err != nil {
			t.Errorf("Parse(%q): %v", input, err)
			continue
		}
		spec, ok := SpecOf(sys)
		if !ok {
			t.Errorf("Parse(%q): no Spec capability", input)
			continue
		}
		if spec != canonical {
			t.Errorf("Parse(%q).Spec() = %q, want %q", input, spec, canonical)
		}
		again, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q) round trip: %v", spec, err)
			continue
		}
		if again.Name() != sys.Name() || again.Size() != sys.Size() {
			t.Errorf("round trip of %q: %s != %s", input, again.Name(), sys.Name())
		}
	}
}

// TestParseErrors checks the registry's error surface, including the
// explicit passthrough.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec   string
		errSub string
	}{
		{"maj", "no ':'"},
		{"zigzag:3", "unknown construction"},
		{"maj:x", "integer"},
		{"maj:4", "odd"},
		{"wheel:2", "n >= 3"},
		{"cw:", "empty"},
		{"cw:2,3", "width 1"},
		{"tree:-1", "height"},
		{"vote:1,x", "integer"},
		{"recmaj:32", "ARITYxHEIGHT"},
		{"recmaj:4x2", "odd"},
		{"explicit:whatever", "NewExplicit"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("Parse(%q) err = %v, want containing %q", c.spec, err, c.errSub)
		}
	}
}

// TestEvaluatorCachedMatchesUncached proves the session caches are
// semantically invisible: cached and uncached measures agree exactly, and
// repeated calls keep agreeing.
func TestEvaluatorCachedMatchesUncached(t *testing.T) {
	eval := NewEvaluator()
	for _, spec := range []string{"maj:7", "triang:4", "vote:3,1,1,2"} {
		sys := MustParse(spec)
		for _, p := range []float64{0.2, 0.5, 0.8} {
			want, err := strategy.OptimalPPC(sys, p)
			if err != nil {
				t.Fatal(err)
			}
			first, err := eval.AverageProbeComplexity(sys, p)
			if err != nil {
				t.Fatal(err)
			}
			second, err := eval.AverageProbeComplexity(sys, p) // memo hit
			if err != nil {
				t.Fatal(err)
			}
			if first != want || second != want {
				t.Errorf("%s p=%v: evaluator %v/%v, uncached %v", spec, p, first, second, want)
			}
		}
		wantPC, err := strategy.OptimalPC(sys)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := eval.ProbeComplexity(sys)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantPC {
				t.Errorf("%s: evaluator PC %d, uncached %d", spec, got, wantPC)
			}
		}
	}
}

// TestEvaluatorAvailabilityPolynomial checks the cached availability
// polynomial of capability-less systems against brute-force enumeration.
func TestEvaluatorAvailabilityPolynomial(t *testing.T) {
	exp, err := NewExplicitSystem("maj5", 5, [][]int{
		{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 2, 3}, {0, 2, 4},
		{0, 3, 4}, {1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator()
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		want := availability.BruteForce(exp, p)
		for i := 0; i < 2; i++ { // second call answers from the polynomial
			if got := eval.Availability(exp, p); math.Abs(got-want) > 1e-12 {
				t.Errorf("p=%v call %d: polynomial %v, brute force %v", p, i, got, want)
			}
		}
	}
}

// TestEvaluatorEstimateDeterminism checks that the session estimate is
// bit-identical across parallelism settings and matches the façade
// helper.
func TestEvaluatorEstimateDeterminism(t *testing.T) {
	sys := MustParse("triang:5")
	mean1, half1, err := NewEvaluator(WithTrials(2000), WithSeed(9)).EstimateAverageProbes(sys, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	mean2, half2, err := NewEvaluator(WithTrials(2000), WithSeed(9), WithParallelism(1)).EstimateAverageProbes(sys, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if mean1 != mean2 || half1 != half2 {
		t.Errorf("parallel %v±%v != sequential %v±%v", mean1, half1, mean2, half2)
	}
	mean3, half3, err := EstimateAverageProbes(sys, 0.4, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if mean1 != mean3 || half1 != half3 {
		t.Errorf("façade %v±%v != session %v±%v", mean3, half3, mean1, half1)
	}
}

// registerThirdOnce guards the process-global test registration below.
var registerThirdOnce sync.Once

// thirdPartySystem is an out-of-package construction: a singleton coterie
// {{0}} over one element, implementing Prober but nothing else — the
// open-API scenario the capability redesign enables.
type thirdPartySystem struct{}

func (thirdPartySystem) Name() string               { return "Third(1)" }
func (thirdPartySystem) Size() int                  { return 1 }
func (thirdPartySystem) ContainsQuorum(s *Set) bool { return s.Contains(0) }
func (thirdPartySystem) Quorums() []*Set            { return []*Set{SetOf(1, 0)} }
func (thirdPartySystem) ProbeWitness(o Oracle) Witness {
	return Witness{Color: o.Probe(0), Set: SetOf(1, 0)}
}

// TestThirdPartyProberPlugsIn checks that a system outside the built-in
// set reaches the paper's machinery through the capability interfaces
// alone.
func TestThirdPartyProberPlugsIn(t *testing.T) {
	sys := thirdPartySystem{}
	col := AllGreen(1)
	w, err := FindWitness(sys, NewOracle(col))
	if err != nil {
		t.Fatalf("FindWitness: %v", err)
	}
	if w.Color != Green {
		t.Errorf("witness color = %v, want green", w.Color)
	}
	// No RandomizedProber, but Finder is absent too: a helpful error.
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := FindWitnessRandomized(sys, NewOracle(col), rng); err == nil {
		t.Error("expected error for randomized search without capability")
	}
	// Registering a third-party spec makes it Parse-able. The registry is
	// process-global, so register exactly once even under -count=N.
	registerThirdOnce.Do(func() {
		RegisterSpec("third", func(arg string) (System, error) { return thirdPartySystem{}, nil })
	})
	got, err := Parse("third:")
	if err != nil {
		t.Fatalf("Parse(third:): %v", err)
	}
	if got.Name() != "Third(1)" {
		t.Errorf("parsed %s", got.Name())
	}
}

// TestWheelStrategiesConstantProbes pins the headline property of the new
// wheel strategy: expected probes stay O(1) as the wheel grows.
func TestWheelStrategiesConstantProbes(t *testing.T) {
	prev := 0.0
	for _, n := range []int{10, 100, 1000} {
		sys := MustParse(fmt.Sprintf("wheel:%d", n))
		exp, err := ExpectedProbes(sys, 0.5)
		if err != nil {
			t.Fatalf("wheel:%d: %v", n, err)
		}
		if exp > 3 {
			t.Errorf("wheel:%d expected probes %v, want <= 3", n, exp)
		}
		if exp < prev {
			t.Errorf("wheel:%d expectation decreased: %v < %v", n, exp, prev)
		}
		prev = exp
	}
}

// TestTwoRolePairsHaveNoWitnessSearch (a name older than the witness
// rule) pins witness search on read/write pairs whose roles differ: such
// a pair is searched as its read role, stopping red once the reds meet
// every read quorum. On rowa:5 one red element settles nothing, and a
// 3x3 grid with a red diagonal holds a read quorum of neither color but
// is settled red. The witnesses of FindWitness and FindWitnessRandomized
// verify, the estimate and the temporal engine answer grid:3x3,
// grid:6x6's bound error lists the estimate, and self-pairs keep the
// scan.
func TestTwoRolePairsHaveNoWitnessSearch(t *testing.T) {
	ctx := context.Background()
	for sp, reds := range map[string][]int{"rowa:5": {0}, "grid:3x3": {0, 4, 8}} {
		sys := MustParse(sp)
		col := ColoringFromReds(sys.Size(), reds)
		want := Green
		if sp == "grid:3x3" {
			want = Red
		}
		w, err := FindWitness(sys, NewOracle(col))
		if err != nil || w.Color != want {
			t.Errorf("FindWitness(%s): %v, %v; want a %s witness", sp, w, err, want)
		} else if err := VerifyWitness(sys, w, col); err != nil {
			t.Errorf("FindWitness(%s): %v", sp, err)
		}
		w, err = FindWitnessRandomized(sys, NewOracle(col), rand.New(rand.NewPCG(1, 2)))
		if err != nil || w.Color != want {
			t.Errorf("FindWitnessRandomized(%s): %v, %v; want a %s witness", sp, w, err, want)
		} else if err := VerifyWitness(sys, w, col); err != nil {
			t.Errorf("FindWitnessRandomized(%s): %v", sp, err)
		}
	}
	eval := NewEvaluator()
	res, err := eval.Do(ctx, Query{Spec: "grid:3x3", Measures: []Measure{MeasureEstimate}, Ps: []float64{0.3}, Trials: 100})
	if err != nil {
		t.Errorf("estimate of grid:3x3: %v", err)
	} else if m := res.Point(0.3).Estimate.Mean; m < 1 || m > 9 {
		t.Errorf("estimate of grid:3x3 = %v probes, want within [1, 9]", m)
	}
	if _, err := eval.Do(ctx, Query{Spec: "grid:3x3", Measures: []Measure{MeasureTimedTTQ}, Ps: []float64{0.3}, Trials: 10}); err != nil {
		t.Errorf("timed-ttq of grid:3x3: %v", err)
	}
	_, err = eval.Do(ctx, Query{Spec: "grid:6x6", Measures: []Measure{MeasurePC}})
	var be *BoundError
	if !errors.As(err, &be) || !slices.Contains(be.Available, string(MeasureEstimate)) {
		t.Errorf("pc of grid:6x6: err = %v, want a bound error listing estimate", err)
	}
	self := MustParse("rw:maj:9")
	col := ColoringFromReds(9, []int{0, 1, 2, 3, 4})
	w, err := FindWitness(self, NewOracle(col))
	if err != nil {
		t.Fatalf("FindWitness(rw:maj:9): %v", err)
	}
	if err := VerifyWitness(self, w, col); err != nil || w.Color != Red {
		t.Errorf("rw:maj:9 witness %+v: %v, want a verified red quorum", w, err)
	}
}
