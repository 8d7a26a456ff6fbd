package probequorum_test

// Tests for the persistent artifact store and approximate-answer cache
// tiers (PR 9): a second process sharing a store directory answers
// bit-identically to the first with zero artifact builds, fabricated
// large-n records serve without any compute at all, tolerance-zero
// queries bypass the approximate tier bit-identically, and every
// approximate answer carries an error bound within the caller's
// tolerance. All of these run under -race in the cache-persistence CI
// gate.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"testing"

	"probequorum"
	"probequorum/internal/bitset"
	"probequorum/internal/spec"
	"probequorum/internal/store"
)

// warmSpecs is one spec per registered construction form at a size
// whose exact artifacts compute in milliseconds (every universe is at
// most 14 elements), plus the three read/write pair forms.
var warmSpecs = []string{
	"maj:13", "wheel:12", "cw:1,3,5", "triang:4", "tree:2", "hqs:2",
	"vote:5,3,1,1,1,1,1", "recmaj:3x2", "rw:maj:9", "rowa:6", "grid:3x3",
}

// rwSpecs are the pair forms whose optimized strategies also persist.
var rwSpecs = map[string]bool{"rw:maj:9": true, "rowa:6": true, "grid:3x3": true}

// totalBuilds sums the per-kind build counters of a session.
func totalBuilds(e *probequorum.Evaluator) uint64 {
	var n uint64
	for _, c := range e.Stats().Builds {
		n += c
	}
	return n
}

// TestWarmStartBitIdenticalEveryConstruction is the tentpole contract:
// session A computes pc, ppc, availability and resilience (plus an
// optimized strategy for the pair forms) for every registered
// construction into a store directory; session B — a fresh Evaluator
// with a fresh handle on the same directory, the restarted-process
// scenario — must answer every measure that A answered with the exact
// same bits while building nothing.
func TestWarmStartBitIdenticalEveryConstruction(t *testing.T) {
	const p = 0.3
	opts := probequorum.StrategyOptions{Workload: probequorum.Workload{ReadFraction: 0.75}}
	dir := t.TempDir()
	ctx := context.Background()

	type measured struct {
		pc, resilience       int
		ppc, avail           float64
		okPC, okPPC          bool
		okAvail, okRes       bool
		readProbs, writeProb []float64
	}
	got := map[string]*measured{}

	stA, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	evalA := probequorum.NewEvaluator(probequorum.WithStore(stA))
	for _, sp := range warmSpecs {
		sys, err := probequorum.Parse(sp)
		if err != nil {
			t.Fatalf("parse %s: %v", sp, err)
		}
		m := &measured{}
		if v, err := evalA.ProbeComplexity(sys); err == nil {
			m.pc, m.okPC = v, true
		}
		if v, err := evalA.AverageProbeComplexity(sys, p); err == nil {
			m.ppc, m.okPPC = v, true
		}
		if v, err := evalA.AvailabilityCtx(ctx, sys, p); err == nil {
			m.avail, m.okAvail = v, true
		}
		if v, err := evalA.ResilienceCtx(ctx, sys); err == nil {
			m.resilience, m.okRes = v, true
		}
		if rwSpecs[sp] {
			s, err := evalA.OptimalStrategy(sys, opts)
			if err != nil {
				t.Fatalf("optimize %s: %v", sp, err)
			}
			m.readProbs = append([]float64(nil), s.ReadProbs()...)
			m.writeProb = append([]float64(nil), s.WriteProbs()...)
		}
		if !m.okPC && !m.okPPC && !m.okAvail && !m.okRes {
			t.Fatalf("%s answered no measure at all in the cold session", sp)
		}
		got[sp] = m
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	stB, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	evalB := probequorum.NewEvaluator(probequorum.WithStore(stB))
	for _, sp := range warmSpecs {
		sys := probequorum.MustParse(sp)
		m := got[sp]
		if m.okPC {
			if v, err := evalB.ProbeComplexity(sys); err != nil || v != m.pc {
				t.Errorf("%s warm pc = %d, %v; cold computed %d", sp, v, err, m.pc)
			}
		}
		if m.okPPC {
			v, err := evalB.AverageProbeComplexity(sys, p)
			if err != nil || math.Float64bits(v) != math.Float64bits(m.ppc) {
				t.Errorf("%s warm ppc = %v, %v; cold computed %v", sp, v, err, m.ppc)
			}
		}
		if m.okAvail {
			v, err := evalB.AvailabilityCtx(ctx, sys, p)
			if err != nil || math.Float64bits(v) != math.Float64bits(m.avail) {
				t.Errorf("%s warm availability = %v, %v; cold computed %v", sp, v, err, m.avail)
			}
		}
		if m.okRes {
			if v, err := evalB.ResilienceCtx(ctx, sys); err != nil || v != m.resilience {
				t.Errorf("%s warm resilience = %d, %v; cold computed %d", sp, v, err, m.resilience)
			}
		}
		if rwSpecs[sp] {
			s, err := evalB.OptimalStrategy(sys, opts)
			if err != nil {
				t.Fatalf("warm optimize %s: %v", sp, err)
			}
			for i, rp := range s.ReadProbs() {
				if math.Float64bits(rp) != math.Float64bits(m.readProbs[i]) {
					t.Errorf("%s warm read prob %d = %v, cold %v", sp, i, rp, m.readProbs[i])
				}
			}
			for i, wp := range s.WriteProbs() {
				if math.Float64bits(wp) != math.Float64bits(m.writeProb[i]) {
					t.Errorf("%s warm write prob %d = %v, cold %v", sp, i, wp, m.writeProb[i])
				}
			}
		}
	}
	if n := totalBuilds(evalB); n != 0 {
		t.Errorf("the warm session ran %d artifact builds, want 0: %v", n, evalB.Stats().Builds)
	}
	if misses := evalB.Stats().Misses["store"]; misses != 0 {
		t.Errorf("the warm session missed the store %d times, want 0", misses)
	}
}

// TestWarmStartSpotCheckMaj1025 covers the wide regime the exhaustive
// sweep cannot: resilience of maj:1025 answers from its closed form in
// session A, persists, and session B serves it from disk with zero
// builds.
func TestWarmStartSpotCheckMaj1025(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sys := probequorum.MustParse("maj:1025")

	stA, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	evalA := probequorum.NewEvaluator(probequorum.WithStore(stA))
	want, err := evalA.ResilienceCtx(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	stA.Close()

	stB, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	evalB := probequorum.NewEvaluator(probequorum.WithStore(stB))
	v, err := evalB.ResilienceCtx(ctx, sys)
	if err != nil || v != want {
		t.Fatalf("warm resilience(maj:1025) = %d, %v; cold computed %d", v, err, want)
	}
	if n := totalBuilds(evalB); n != 0 {
		t.Errorf("the warm session ran %d builds, want 0: %v", n, evalB.Stats().Builds)
	}
}

// TestStoreServesN18WithoutCompute pins the acceptance scenario at a
// size whose exact DP costs about a minute of single-core compute:
// records fabricated through the store API — carrying the real
// wheel:18 answers, measured once offline — serve exact pc and ppc
// queries with Builds flat. The env-gated heavy test below verifies
// the same numbers end to end by actually computing them.
func TestStoreServesN18WithoutCompute(t *testing.T) {
	const (
		wheel18PC  = 18
		wheel18PPC = 2.997673749923706 // OptimalPPC(wheel:18, 0.3), measured offline
	)
	sys := probequorum.MustParse("wheel:18")
	specStr, ok := spec.Of(sys)
	if !ok {
		t.Fatal("wheel:18 has no canonical spec")
	}

	dir := t.TempDir()
	st, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutInt("pc", specStr, wheel18PC); err != nil {
		t.Fatal(err)
	}
	if err := st.PutFloat("ppc", store.ParamKey(specStr, 0.3), wheel18PPC); err != nil {
		t.Fatal(err)
	}

	eval := probequorum.NewEvaluator(probequorum.WithStore(st))
	pc, err := eval.ProbeComplexity(sys)
	if err != nil || pc != wheel18PC {
		t.Fatalf("pc(wheel:18) = %d, %v; want %d from the store", pc, err, wheel18PC)
	}
	ppc, err := eval.AverageProbeComplexity(sys, 0.3)
	if err != nil || math.Float64bits(ppc) != math.Float64bits(wheel18PPC) {
		t.Fatalf("ppc(wheel:18, 0.3) = %v, %v; want %v from the store", ppc, err, wheel18PPC)
	}
	if n := totalBuilds(eval); n != 0 {
		t.Fatalf("n=18 answers ran %d builds, want 0: %v", n, eval.Stats().Builds)
	}
	st2 := eval.Stats()
	if st2.Hits["store"] != 2 {
		t.Errorf("store hits = %d, want 2", st2.Hits["store"])
	}
}

// TestHeavyWheel18RoundTrip is the end-to-end version of the test
// above: actually run the ~minute-per-measure wheel:18 DPs, persist,
// and warm-start. Gated behind PROBEQUORUM_HEAVY=1 so routine runs
// stay fast.
func TestHeavyWheel18RoundTrip(t *testing.T) {
	if os.Getenv("PROBEQUORUM_HEAVY") == "" {
		t.Skip("set PROBEQUORUM_HEAVY=1 to run the wheel:18 exact DPs (minutes of single-core compute)")
	}
	dir := t.TempDir()
	sys := probequorum.MustParse("wheel:18")

	stA, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	evalA := probequorum.NewEvaluator(probequorum.WithStore(stA))
	pcA, err := evalA.ProbeComplexity(sys)
	if err != nil {
		t.Fatal(err)
	}
	ppcA, err := evalA.AverageProbeComplexity(sys, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	stA.Close()

	stB, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	evalB := probequorum.NewEvaluator(probequorum.WithStore(stB))
	if v, err := evalB.ProbeComplexity(sys); err != nil || v != pcA {
		t.Fatalf("warm pc = %d, %v; cold %d", v, err, pcA)
	}
	if v, err := evalB.AverageProbeComplexity(sys, 0.3); err != nil || math.Float64bits(v) != math.Float64bits(ppcA) {
		t.Fatalf("warm ppc = %v, %v; cold %v", v, err, ppcA)
	}
	if n := totalBuilds(evalB); n != 0 {
		t.Fatalf("warm session ran %d builds, want 0", n)
	}
}

// ppcQuery is one exact-ppc query of the approximate-tier tests.
func ppcQuery(sp string, p, tol float64) probequorum.Query {
	return probequorum.Query{
		Spec:      sp,
		Measures:  []probequorum.Measure{probequorum.MeasurePPC},
		Ps:        []float64{p},
		Tolerance: tol,
	}
}

// TestApproxServesWithinTolerance seeds the approximate cache with
// exact sample points and checks the contract of a served answer: the
// point carries an ApproxNote, the declared bound respects the
// caller's tolerance, and the true error — against a separately
// computed exact answer — stays within the declared bound.
func TestApproxServesWithinTolerance(t *testing.T) {
	const sp = "maj:11"
	ctx := context.Background()
	eval := probequorum.NewEvaluator(probequorum.WithApprox(probequorum.NewApproxCache()))

	// Exact solves at the bracket endpoints feed the cache. The bracket
	// spread — ppc(maj:11) moves about 0.17 between these ps — is the
	// served bound, so it must sit inside the tolerance below.
	for _, p := range []float64{0.29, 0.31} {
		if _, err := eval.Do(ctx, ppcQuery(sp, p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const tol = 0.25
	res, err := eval.Do(ctx, ppcQuery(sp, 0.30, tol))
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if len(res.Points) != 1 || res.Points[0].PPC == nil {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	pt := res.Points[0]
	if len(pt.Approx) != 1 {
		t.Fatalf("approximate answer carries %d notes, want 1: %+v", len(pt.Approx), pt)
	}
	note := pt.Approx[0]
	if note.Measure != probequorum.MeasurePPC || note.P != 0.30 {
		t.Errorf("note identifies %s at p=%v, want ppc at 0.3", note.Measure, note.P)
	}
	if note.Bound < 0 || note.Bound > tol {
		t.Errorf("declared bound %v exceeds the tolerance %v", note.Bound, tol)
	}
	if hits := eval.Stats().Hits["approx"]; hits != 1 {
		t.Errorf("approx hits = %d, want 1", hits)
	}

	// The declared bound must hold against the true exact answer.
	exactEval := probequorum.NewEvaluator()
	exact, err := exactEval.AverageProbeComplexity(probequorum.MustParse(sp), 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(*pt.PPC - exact); diff > note.Bound {
		t.Errorf("true error %v exceeds the declared bound %v", diff, note.Bound)
	}
}

// sameNameExplicits returns two different explicit systems over five
// elements that share the name "custom", and so the display spec
// "explicit:custom": the majority of 5, and the wheel whose hub 0 pairs
// with each rim element, plus the rim.
func sameNameExplicits(t *testing.T) (maj, wheel *probequorum.ExplicitSystem) {
	t.Helper()
	var majQs, wheelQs []*probequorum.Set
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			for c := b + 1; c < 5; c++ {
				majQs = append(majQs, bitset.FromSlice(5, []int{a, b, c}))
			}
		}
	}
	for x := 1; x < 5; x++ {
		wheelQs = append(wheelQs, bitset.FromSlice(5, []int{0, x}))
	}
	wheelQs = append(wheelQs, bitset.FromSlice(5, []int{1, 2, 3, 4}))
	maj, err := probequorum.NewExplicit("custom", 5, majQs)
	if err != nil {
		t.Fatal(err)
	}
	wheel, err = probequorum.NewExplicit("custom", 5, wheelQs)
	if err != nil {
		t.Fatal(err)
	}
	return maj, wheel
}

// TestStoreServesOnlyCanonicalSpecs pins which specs may key the tiers
// shared across sessions: only one the registry rebuilds to an equal
// spec. An Explicit's display spec names no quorums, so two different
// explicit systems with one name must never answer for each other,
// neither from the store nor from the approximate cache.
func TestStoreServesOnlyCanonicalSpecs(t *testing.T) {
	ctx := context.Background()
	maj, wheel := sameNameExplicits(t)
	want, err := probequorum.NewEvaluator().AverageProbeComplexity(wheel, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stA, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	if _, err := probequorum.NewEvaluator(probequorum.WithStore(stA)).AverageProbeComplexity(maj, 0.3); err != nil {
		t.Fatal(err)
	}
	stB, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	evalB := probequorum.NewEvaluator(probequorum.WithStore(stB))
	got, err := evalB.AverageProbeComplexity(wheel, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("store: PPC_0.3 of the explicit wheel = %v, want %v", got, want)
	}
	if st := evalB.Stats(); st.Builds["ppc"] != 1 || st.Hits["store"] != 0 {
		t.Errorf("store: builds %v, hits %v; want one ppc build and no store hit", st.Builds, st.Hits)
	}

	cache := probequorum.NewApproxCache()
	feed := probequorum.NewEvaluator(probequorum.WithApprox(cache))
	if _, err := feed.Do(ctx, probequorum.Query{System: maj, Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: []float64{0.2, 0.4}}); err != nil {
		t.Fatal(err)
	}
	res, err := probequorum.NewEvaluator(probequorum.WithApprox(cache)).Do(ctx, probequorum.Query{
		System: wheel, Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: []float64{0.3}, Tolerance: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt := res.Points[0]; len(pt.Approx) != 0 || *pt.PPC != want {
		t.Errorf("approx: PPC_0.3 of the explicit wheel = %v with notes %+v, want the exact %v", *pt.PPC, pt.Approx, want)
	}
}

// TestMemoOutranksApprox pins the tier lookup order memo → approx →
// store → compute: a tolerant query whose exact answer is already in
// the session memo gets the bit-exact value with no approximation note
// — the approx tier is never consulted, so the hit is attributed to the
// memo tier, and an interpolation can never shadow a memoized point.
func TestMemoOutranksApprox(t *testing.T) {
	const sp, p = "maj:11", 0.29
	ctx := context.Background()
	eval := probequorum.NewEvaluator(probequorum.WithApprox(probequorum.NewApproxCache()))

	// The exact solve memoizes ppc(p) and seeds the approx series with
	// the same point, so both tiers could answer the re-query below.
	exact, err := eval.Do(ctx, ppcQuery(sp, p, 0))
	if err != nil {
		t.Fatal(err)
	}
	before := eval.Stats()

	res, err := eval.Do(ctx, ppcQuery(sp, p, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].PPC == nil {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if notes := res.Points[0].Approx; len(notes) != 0 {
		t.Errorf("memoized answer served approximately: %+v", notes)
	}
	if math.Float64bits(*res.Points[0].PPC) != math.Float64bits(*exact.Points[0].PPC) {
		t.Errorf("tolerant re-query %v differs from the memoized exact %v",
			*res.Points[0].PPC, *exact.Points[0].PPC)
	}
	after := eval.Stats()
	if after.Hits["approx"] != before.Hits["approx"] || after.Misses["approx"] != before.Misses["approx"] {
		t.Errorf("memoized point consulted the approx tier: hits %d→%d, misses %d→%d",
			before.Hits["approx"], after.Hits["approx"], before.Misses["approx"], after.Misses["approx"])
	}
	if after.Hits["memo"] != before.Hits["memo"]+1 {
		t.Errorf("memo hits %d→%d, want one more", before.Hits["memo"], after.Hits["memo"])
	}
	if after.Builds["ppc"] != before.Builds["ppc"] {
		t.Errorf("memoized point rebuilt: %d→%d", before.Builds["ppc"], after.Builds["ppc"])
	}
}

// TestToleranceZeroBypassesApprox pins the exactness contract: with a
// populated approximate cache, a tolerance-zero query never consults
// it — the answer is bit-identical to a cache-free session's and
// carries no approximation note.
func TestToleranceZeroBypassesApprox(t *testing.T) {
	const sp = "maj:11"
	ctx := context.Background()
	eval := probequorum.NewEvaluator(probequorum.WithApprox(probequorum.NewApproxCache()))
	for _, p := range []float64{0.29, 0.31} {
		if _, err := eval.Do(ctx, ppcQuery(sp, p, 0)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := eval.Do(ctx, ppcQuery(sp, 0.30, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].PPC == nil {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if len(res.Points[0].Approx) != 0 {
		t.Errorf("tolerance-zero answer carries approximation notes: %+v", res.Points[0].Approx)
	}
	stats := eval.Stats()
	if stats.Hits["approx"] != 0 || stats.Misses["approx"] != 0 {
		t.Errorf("tolerance-zero query touched the approx tier: hits %d, misses %d",
			stats.Hits["approx"], stats.Misses["approx"])
	}

	plain := probequorum.NewEvaluator()
	want, err := plain.AverageProbeComplexity(probequorum.MustParse(sp), 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(*res.Points[0].PPC) != math.Float64bits(want) {
		t.Errorf("tolerance-zero answer %v differs from the cache-free session's %v",
			*res.Points[0].PPC, want)
	}
}

// TestEvalStatsGoldenShape pins the wire encoding of the extended
// session counters: the four per-tier maps are always present (empty
// maps encode as {}, never null), so dashboards and the admin endpoint
// can rely on the shape. The scenario is two identical pc queries on a
// fresh store-free session: the first builds (memo miss), the second
// is a memo hit.
func TestEvalStatsGoldenShape(t *testing.T) {
	eval := probequorum.NewEvaluator()
	sys := probequorum.MustParse("maj:5")
	for i := 0; i < 2; i++ {
		if _, err := eval.ProbeComplexity(sys); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(eval.Stats())
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"builds":{"pc":1,"table":1},"coalesced":{},"hits":{"memo":1},"misses":{"memo":2}}`
	if string(data) != golden {
		t.Errorf("EvalStats encoding drifted:\n got %s\nwant %s", data, golden)
	}

	var decoded probequorum.EvalStats
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Builds["pc"] != 1 || decoded.Hits["memo"] != 1 {
		t.Errorf("EvalStats did not round-trip: %+v", decoded)
	}
}

// TestStoreServesEveryKindWithoutCompute pins the on-disk key schema a
// warm start across versions depends on: one record per persisted
// artifact kind, written directly through the store API — table, pc and
// resilience keyed by the canonical spec, ppc by store.ParamKey and
// strategy by store.OptionsKey — must serve a fresh session
// bit-identically with no build and one store hit per kind. (availpoly
// records never serve a spec'd system: every registered construction
// answers availability in closed form.)
func TestStoreServesEveryKindWithoutCompute(t *testing.T) {
	const p = 0.3
	ctx := context.Background()
	opts := probequorum.StrategyOptions{Workload: probequorum.Workload{ReadFraction: 0.5}}
	sys := probequorum.MustParse("grid:3x3")
	specStr, ok := probequorum.SpecOf(sys)
	if !ok {
		t.Fatal("grid:3x3 has no canonical spec")
	}

	// The answers, computed by a store-free session.
	ref := probequorum.NewEvaluator()
	table, err := ref.WitnessTableCtx(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := ref.ProbeComplexityCtx(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	ppc, err := ref.AverageProbeComplexityCtx(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.ResilienceCtx(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := ref.StrategyCtx(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := probequorum.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, err := range []error{
		st.PutTable("table", specStr, table),
		st.PutInt("pc", specStr, pc),
		st.PutFloat("ppc", store.ParamKey(specStr, p), ppc),
		st.PutInt("resilience", specStr, res),
		st.PutStrategy("strategy", store.OptionsKey(specStr, opts.Key()), strat),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	eval := probequorum.NewEvaluator(probequorum.WithStore(st))
	gotTable, err := eval.WitnessTableCtx(ctx, sys)
	if err != nil || !slices.Equal(gotTable.Words(), table.Words()) {
		t.Errorf("table = %v, %v; want the stored table", gotTable, err)
	}
	if v, err := eval.ProbeComplexityCtx(ctx, sys); err != nil || v != pc {
		t.Errorf("pc = %d, %v; want %d", v, err, pc)
	}
	if v, err := eval.AverageProbeComplexityCtx(ctx, sys, p); err != nil || math.Float64bits(v) != math.Float64bits(ppc) {
		t.Errorf("ppc = %v, %v; want %v", v, err, ppc)
	}
	if v, err := eval.ResilienceCtx(ctx, sys); err != nil || v != res {
		t.Errorf("resilience = %d, %v; want %d", v, err, res)
	}
	gotStrat, err := eval.StrategyCtx(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, probs := range [][2][]float64{{gotStrat.ReadProbs(), strat.ReadProbs()}, {gotStrat.WriteProbs(), strat.WriteProbs()}} {
		if !slices.EqualFunc(probs[0], probs[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("strategy probabilities = %v, want %v", probs[0], probs[1])
		}
	}

	stats := eval.Stats()
	if len(stats.Builds) != 0 {
		t.Errorf("the stored session ran builds: %v", stats.Builds)
	}
	if stats.Hits["store"] != 5 || stats.Misses["store"] != 0 {
		t.Errorf("store hits = %d, misses = %d; want 5 and 0", stats.Hits["store"], stats.Misses["store"])
	}
}

// TestStoreCloseKeepsServedTables pins who owns a served table: the
// session that read it. Session A fills a store with maj:19's 2^19-bit
// witness table; session B reads it without a build through a fresh
// handle on the same directory; B's store is then closed, and B's memo
// hit must still answer Contains bit for bit.
func TestStoreCloseKeepsServedTables(t *testing.T) {
	ctx := context.Background()
	sys := probequorum.MustParse("maj:19")
	dir := t.TempDir()
	stA, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	want, err := probequorum.NewEvaluator(probequorum.WithStore(stA)).WitnessTableCtx(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}

	stB, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	evalB := probequorum.NewEvaluator(probequorum.WithStore(stB))
	if _, err := evalB.WitnessTableCtx(ctx, sys); err != nil {
		t.Fatal(err)
	}
	if stats := evalB.Stats(); stats.Builds["table"] != 0 || stats.Hits["store"] != 1 {
		t.Fatalf("session B did not read the table from the store: %+v", stats)
	}
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := evalB.WitnessTableCtx(ctx, sys)
	if err != nil {
		t.Fatal(err)
	}
	if hits := evalB.Stats().Hits["memo"]; hits != 1 {
		t.Fatalf("memo hits = %d, want 1", hits)
	}
	for mask := uint64(0); mask < 1<<19; mask++ {
		if got.Contains(mask) != want.Contains(mask) {
			t.Fatalf("after Close, Contains(%#x) = %t, want %t", mask, got.Contains(mask), want.Contains(mask))
		}
	}
}

// TestExactMeasuresCheckDPBoundFirst pins the order of the exact
// measures past the DP bound: pc, ppc and tree answer the DP's
// BoundError (Max 18) without building — or persisting — a witness
// table first, also where the table would have its own, larger bound to
// report (tree:4, n = 31).
func TestExactMeasuresCheckDPBoundFirst(t *testing.T) {
	ctx := context.Background()
	for _, sp := range []string{"maj:19", "tree:4"} {
		st, err := probequorum.OpenArtifactStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		eval := probequorum.NewEvaluator(probequorum.WithStore(st))
		n := probequorum.MustParse(sp).Size()
		for _, m := range []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureTree} {
			_, err := eval.Do(ctx, probequorum.Query{Spec: sp, Measures: []probequorum.Measure{m}, Ps: []float64{0.3}})
			var be *probequorum.BoundError
			if !errors.As(err, &be) || be.Max != 18 || be.N != n {
				t.Errorf("%s %s: err = %v, want the DP bound error (n = %d, max 18)", sp, m, err, n)
			}
		}
		if b := eval.Stats().Builds["table"]; b != 0 {
			t.Errorf("%s: out-of-reach exact measures built %d witness tables", sp, b)
		}
		stats, err := st.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if r := stats.Kinds["table"].Records; r != 0 {
			t.Errorf("%s: out-of-reach exact measures persisted %d table records", sp, r)
		}
	}
}

// TestAvailabilityPersistsOnlyThePolynomial pins that exact availability
// of a system without a closed form keeps only its n+1 failure counts:
// the 2^n witness table they come from is neither memoized (no "table"
// build) nor persisted (no table record; at n = 25 it is 4 MiB), and a
// restarted session answers bit-identically from the availpoly record
// alone.
func TestAvailabilityPersistsOnlyThePolynomial(t *testing.T) {
	const sp = "grid:5x5"
	ps := []float64{0.1, 0.3}
	ctx := context.Background()
	dir := t.TempDir()
	st, err := probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := probequorum.NewEvaluator(probequorum.WithStore(st))
	q := probequorum.Query{Spec: sp, Measures: []probequorum.Measure{probequorum.MeasureAvailability}, Ps: ps}
	want, err := cold.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if b := cold.Stats().Builds; b["table"] != 0 || b["availpoly"] != 1 {
		t.Errorf("builds = %v, want one availpoly and no table", b)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if r := stats.Kinds["table"].Records; r != 0 {
		t.Errorf("availability persisted %d table records", r)
	}
	if r := stats.Kinds["availpoly"].Records; r != 1 {
		t.Errorf("availability persisted %d availpoly records, want 1", r)
	}
	st.Close()

	st, err = probequorum.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	warm := probequorum.NewEvaluator(probequorum.WithStore(st))
	got, err := warm.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if b := totalBuilds(warm); b != 0 {
		t.Errorf("restarted session built %d artifacts, want 0: %v", b, warm.Stats().Builds)
	}
	for _, p := range ps {
		g, w := *got.Point(p).Availability, *want.Point(p).Availability
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("p=%v: restarted availability %v, want %v bit-identical", p, g, w)
		}
	}
}
