package probequorum_test

// Planner property tests at the façade level: the exact optimizer never
// loses to the uniform baseline on ANY registered construction, the
// read/write duality check rejects bad explicit pairs, and — the session
// caching contract — optimized strategies and resilience are memoized
// per Evaluator, pinned by the Stats() build counters. These run under
// -race in the CI planner gate.

import (
	"context"
	"math"
	"testing"

	"probequorum"
)

// smallInstance maps every registered construction name to a small
// buildable instance. The test fails if a registered name is missing, so
// new constructions must opt in (or be explicitly skipped) here.
var smallInstance = map[string]string{
	"maj":      "maj:5",
	"wheel":    "wheel:6",
	"cw":       "cw:1,3,2",
	"triang":   "triang:3",
	"tree":     "tree:2",
	"hqs":      "hqs:2",
	"vote":     "vote:3,2,2,1,1",
	"recmaj":   "recmaj:3x1",
	"explicit": "", // not buildable from a spec by design
	"rw":       "rw:maj:5",
	"rowa":     "rowa:5",
	"grid":     "grid:2x3",
}

// The LP optimizer is exact: at every read fraction its strategy load is
// at most the uniform baseline's, for every registered construction.
func TestOptimizedAtMostUniform(t *testing.T) {
	// Names registered by OTHER TESTS in this binary (e.g. "third" from
	// api_test.go) are skipped — the registry is mutable — but every
	// built-in construction must be in the map and every mapped name must
	// still be registered, so the map tracks the shipped registry.
	registered := make(map[string]bool)
	for _, name := range probequorum.SpecNames() {
		registered[name] = true
	}
	for name, inst := range smallInstance {
		if !registered[name] {
			t.Fatalf("construction %q in the instance map is not registered", name)
		}
		if inst == "" {
			continue
		}
		t.Run(inst, func(t *testing.T) {
			sys, err := probequorum.Parse(inst)
			if err != nil {
				t.Fatal(err)
			}
			for _, fr := range []float64{0, 0.25, 0.5, 0.75, 1} {
				opts := probequorum.StrategyOptions{Workload: probequorum.Workload{ReadFraction: fr}}
				uni, err := probequorum.UniformStrategy(sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := probequorum.OptimizeStrategy(sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				ul, err := uni.Load(opts.Workload)
				if err != nil {
					t.Fatal(err)
				}
				ol, err := opt.Load(opts.Workload)
				if err != nil {
					t.Fatal(err)
				}
				if ol > ul+1e-9 {
					t.Errorf("fr=%v: optimized load %v exceeds uniform %v", fr, ol, ul)
				}
			}
		})
	}
}

// An Evaluator memoizes optimized strategies per (system, options key)
// and resilience per system: a second identical planner query answers
// from the session cache without a new build. Pinned through Stats() —
// the acceptance check for "second plan of the same spec hits the memo".
func TestStrategyMemoizedPerSession(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx := context.Background()
	q := probequorum.Query{
		Spec:          "grid:2x3",
		Measures:      []probequorum.Measure{probequorum.MeasureLoad, probequorum.MeasureCapacity, probequorum.MeasureResilience},
		ReadFractions: []float64{0.25, 0.75},
	}
	first, err := eval.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	cold := eval.Stats()
	if got := cold.Builds["strategy"]; got != 2 {
		t.Fatalf("cold query built %d strategies, want 2 (one per read fraction)", got)
	}
	if got := cold.Builds["resilience"]; got != 1 {
		t.Fatalf("cold query ran %d resilience scans, want 1", got)
	}
	second, err := eval.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	warm := eval.Stats()
	if warm.Builds["strategy"] != cold.Builds["strategy"] {
		t.Errorf("second identical query built strategies again: %d -> %d",
			cold.Builds["strategy"], warm.Builds["strategy"])
	}
	if warm.Builds["resilience"] != cold.Builds["resilience"] {
		t.Errorf("second identical query rescanned resilience: %d -> %d",
			cold.Builds["resilience"], warm.Builds["resilience"])
	}
	for i, p := range first.RWPoints {
		w := second.RWPoints[i]
		if p.Load == nil || w.Load == nil || *p.Load != *w.Load || *p.Capacity != *w.Capacity {
			t.Errorf("point %d: warm result differs from cold: %+v vs %+v", i, p, w)
		}
	}
	// A different workload is a different artifact: the memo keys on the
	// options, not just the system.
	q.ReadFractions = []float64{0.5}
	if _, err := eval.Do(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := eval.Stats().Builds["strategy"]; got != 3 {
		t.Errorf("new read fraction should build exactly one more strategy: got %d builds, want 3", got)
	}
}

// The façade's explicit-pair constructor enforces read/write duality.
func TestNewReadWritePairDuality(t *testing.T) {
	reads := []*probequorum.Set{probequorum.SetOf(4, 0, 1), probequorum.SetOf(4, 2, 3)}
	writes := []*probequorum.Set{probequorum.SetOf(4, 0, 2)}
	if _, err := probequorum.NewReadWritePair("quad", 4, reads, writes); err != nil {
		t.Fatalf("dual pair rejected: %v", err)
	}
	badWrites := []*probequorum.Set{probequorum.SetOf(4, 0)}
	if _, err := probequorum.NewReadWritePair("bad", 4, reads, badWrites); err == nil {
		t.Fatal("non-dual pair accepted: write {0} misses read {2,3}")
	}
	if err := probequorum.CheckDuality(probequorum.MustParse("maj:5"), probequorum.MustParse("maj:5")); err != nil {
		t.Errorf("maj:5 is self-dual, got %v", err)
	}
}

// Façade surface smoke: self-pairing, the Naor-Wool bound, the optimal
// strategy meeting it, and f-resilient quorum extraction.
func TestPlannerFacadeSurface(t *testing.T) {
	maj := probequorum.MustParse("maj:5")
	pair := probequorum.SelfPair(maj)
	if rw := probequorum.AsReadWrite(pair); rw != probequorum.ReadWriteSystem(pair) {
		t.Error("AsReadWrite re-wrapped an existing pair")
	}
	if lb := probequorum.NaorWoolLowerBound(maj); lb != 3.0/5.0 {
		t.Errorf("NaorWoolLowerBound(maj:5) = %v, want 0.6", lb)
	}
	s, err := probequorum.OptimizeStrategy(maj, probequorum.StrategyOptions{Workload: probequorum.Workload{ReadFraction: 1}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Load(probequorum.Workload{ReadFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-3.0/5.0) > 1e-9 {
		t.Errorf("optimal load %v, want 0.6", l)
	}
	rq, err := probequorum.ResilientQuorums(context.Background(), maj, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A 1-resilient set of maj:5 must keep 3 live nodes after any single
	// failure, so every minimal one has exactly 4 elements.
	if len(rq) == 0 {
		t.Fatal("maj:5 has no 1-resilient quorums")
	}
	for _, q := range rq {
		if q.Count() != 4 {
			t.Errorf("1-resilient quorum %v has %d elements, want 4", q, q.Count())
		}
	}
	res, err := probequorum.Resilience(maj)
	if err != nil {
		t.Fatal(err)
	}
	if res != 2 {
		t.Errorf("Resilience(maj:5) = %d, want 2", res)
	}
}
