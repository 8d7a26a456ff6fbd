package probequorum_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"probequorum"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/sim"
)

// smallSpecs maps every registered construction to a representative
// word-sized instance; largeSpecs to a wide-universe one.
var (
	smallSpecs = []string{
		"maj:13", "wheel:12", "cw:1,3,2", "triang:5", "tree:4", "hqs:3",
		"vote:5,3,1,1,1,1,1,1,1", "recmaj:3x3",
	}
	largeSpecs = []string{
		"maj:129", "maj:1025", "wheel:300", "cw:1,5,4,3,7,5,4,3,6,5,4,3,7,5,4,3,6,5,4,3,7,5,4,3",
		"triang:45", "tree:6", "tree:9", "hqs:5", "recmaj:3x6", "recmaj:5x4", largeVoteSpec(201),
	}
)

// largeVoteSpec builds a vote spec over n elements with cycling weights
// and an odd total.
func largeVoteSpec(n int) string {
	weights := make([]int, n)
	total := 0
	for i := range weights {
		weights[i] = 1 + i%5
		total += weights[i]
	}
	if total%2 == 0 {
		weights[0]++
	}
	parts := make([]string, n)
	for i, w := range weights {
		parts[i] = strconv.Itoa(w)
	}
	return "vote:" + strings.Join(parts, ",")
}

// TestWideSpecsCoverRegistry keeps the differential spec lists honest:
// every built-in construction must be registered and appear in both
// lists. (Test-registered ad-hoc constructions are exempt.)
func TestWideSpecsCoverRegistry(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range probequorum.SpecNames() {
		registered[name] = true
	}
	for _, name := range []string{"maj", "wheel", "cw", "triang", "tree", "hqs", "vote", "recmaj"} {
		if !registered[name] {
			t.Errorf("built-in construction %q is not registered", name)
			continue
		}
		for listName, list := range map[string][]string{"small": smallSpecs, "large": largeSpecs} {
			found := false
			for _, s := range list {
				if strings.HasPrefix(s, name+":") {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("construction %q missing from the %s differential specs", name, listName)
			}
		}
	}
}

// TestWideDifferentialRegistry pins, for every registered construction
// with n <= 64, the one-word words path to the bitset ContainsQuorum
// reference on random masks.
func TestWideDifferentialRegistry(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 7))
	for _, s := range smallSpecs {
		t.Run(s, func(t *testing.T) {
			sys := probequorum.MustParse(s)
			ws, err := probequorum.AsWideMaskSystem(sys)
			if err != nil {
				t.Fatal(err)
			}
			n := sys.Size()
			full := uint64(1)<<uint(n) - 1
			if n == 64 {
				full = ^uint64(0)
			}
			words := make([]uint64, 1)
			for i := 0; i < 2048; i++ {
				mask := rng.Uint64() & full
				words[0] = mask
				if got, want := ws.ContainsQuorumWords(words), sys.ContainsQuorum(probequorum.SetFromMask(n, mask)); got != want {
					t.Fatalf("mask %#x: words=%v bitset=%v", mask, got, want)
				}
			}
		})
	}
}

// bitsetEstimate reproduces the bitset-oracle Monte Carlo path (the
// pre-wide estimate engine) for cross-pinning: per-worker coloring and
// oracle buffers, FindWitness per trial, probe count as the trial value.
func bitsetEstimate(t *testing.T, sys probequorum.System, p float64, trials int, seed uint64) (mean, halfCI float64) {
	t.Helper()
	n := sys.Size()
	type buffers struct {
		col *coloring.Coloring
		o   *probe.ColoringOracle
	}
	s, err := sim.EstimateAdaptiveCtx(context.Background(), trials, seed, 0,
		func() *buffers {
			col := coloring.New(n)
			return &buffers{col: col, o: probe.NewOracle(col)}
		},
		func(rng *rand.Rand, b *buffers) float64 {
			coloring.IIDInto(b.col, p, rng)
			b.o.Reset()
			w, err := probequorum.FindWitness(sys, b.o)
			if err != nil {
				t.Error(err)
				return 0
			}
			_ = w
			return float64(b.o.Probes())
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.CI95()
	return s.Mean, (hi - lo) / 2
}

// proberOnly hides every capability of a built-in but Prober, so the
// estimate runs it through its generic (non-WordsProber) branch.
type proberOnly struct{ probequorum.System }

func (s proberOnly) ProbeWitness(o probequorum.Oracle) probequorum.Witness {
	return s.System.(probequorum.Prober).ProbeWitness(o)
}

// TestWideEstimateBitIdentical pins the wide Monte Carlo estimates to the
// bitset word-path estimates for the same (trials, seed), on every
// registered construction at both word and wide sizes, and on a
// Prober-only wrapper that takes the estimate loop's generic branch.
func TestWideEstimateBitIdentical(t *testing.T) {
	const trials, seed = 800, 424242
	specs := append(append([]string{}, smallSpecs...), "maj:129", "wheel:300", "tree:6", "hqs:5", "recmaj:3x6", "triang:45")
	cases := make([]struct {
		name string
		sys  probequorum.System
	}, 0, len(specs)+1)
	for _, s := range specs {
		cases = append(cases, struct {
			name string
			sys  probequorum.System
		}{s, probequorum.MustParse(s)})
	}
	cases = append(cases, struct {
		name string
		sys  probequorum.System
	}{"prober-only:tree:6", proberOnly{probequorum.MustParse("tree:6")}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range []float64{0.1, 0.5} {
				mean, half, err := probequorum.EstimateAverageProbes(c.sys, p, trials, seed)
				if err != nil {
					t.Fatal(err)
				}
				wantMean, wantHalf := bitsetEstimate(t, c.sys, p, trials, seed)
				if mean != wantMean || half != wantHalf {
					t.Fatalf("p=%v: wide estimate (%v, %v) != bitset estimate (%v, %v)",
						p, mean, half, wantMean, wantHalf)
				}
			}
		})
	}
}

// TestWideFindWitnessWordsRandomized pins the randomized witness search
// on a words oracle to the same search on a bitset oracle: for the same
// coloring and rng stream both must reach the same color and witness set
// with the same probe count, and leave the rng at the same next draw. It
// runs over every construction at word and wide sizes and over an
// Explicit system, which takes the generic random scan.
func TestWideFindWitnessWordsRandomized(t *testing.T) {
	explicit, err := probequorum.NewExplicit("maj5", 5, probequorum.MustParse("maj:5").Quorums())
	if err != nil {
		t.Fatal(err)
	}
	systems := []probequorum.System{explicit}
	for _, s := range append(append([]string{}, smallSpecs...), largeSpecs...) {
		systems = append(systems, probequorum.MustParse(s))
	}
	colRNG := rand.New(rand.NewPCG(17, 19))
	for _, sys := range systems {
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			wo := probequorum.NewWordsOracle(n)
			for _, p := range []float64{0.2, 0.5, 0.8} {
				for i := 0; i < 4; i++ {
					col := coloring.IID(n, p, colRNG)
					seed := uint64(i)*31 + 1
					bo := probequorum.NewOracle(col)
					wantRNG := rand.New(rand.NewPCG(seed, 2))
					want, err := probequorum.FindWitnessRandomized(sys, bo, wantRNG)
					if err != nil {
						t.Fatal(err)
					}
					wo.SetColoring(col)
					wo.Reset()
					gotRNG := rand.New(rand.NewPCG(seed, 2))
					got, err := probequorum.FindWitnessWordsRandomized(sys, wo, gotRNG)
					if err != nil {
						t.Fatal(err)
					}
					if got.Color != want.Color {
						t.Fatalf("p=%v draw %d: words color %v, bitset %v", p, i, got.Color, want.Color)
					}
					if !quorum.SetOfWords(n, got.Words).Equal(want.Set) {
						t.Fatalf("p=%v draw %d: words witness %v, bitset witness %v", p, i, quorum.SetOfWords(n, got.Words), want.Set)
					}
					if wo.Probes() != bo.Probes() {
						t.Fatalf("p=%v draw %d: words probes %d, bitset %d", p, i, wo.Probes(), bo.Probes())
					}
					if g, w := gotRNG.Uint64(), wantRNG.Uint64(); g != w {
						t.Fatalf("p=%v draw %d: next rng draw %d, want %d", p, i, g, w)
					}
				}
			}
		})
	}
}

// TestEvalLargeSpecs is the acceptance path: estimate and availability
// must succeed for every wide spec through the Query API.
func TestEvalLargeSpecs(t *testing.T) {
	eval := probequorum.NewEvaluator(probequorum.WithTrials(300))
	queries := probequorum.SpecQueries(largeSpecs,
		[]probequorum.Measure{probequorum.MeasureEstimate, probequorum.MeasureAvailability, probequorum.MeasureExpected},
		[]float64{0.2, 0.5})
	results, err := eval.DoBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Error != "" {
			t.Errorf("%s: %s", largeSpecs[i], r.Error)
			continue
		}
		for _, pt := range r.Points {
			if pt.Estimate == nil || pt.Availability == nil || pt.Expected == nil {
				t.Errorf("%s at p=%v: missing measures", largeSpecs[i], pt.P)
				continue
			}
			if pt.Estimate.Mean <= 0 || pt.Estimate.Mean > float64(r.N) {
				t.Errorf("%s at p=%v: estimate %v out of (0, n]", largeSpecs[i], pt.P, pt.Estimate.Mean)
			}
			if *pt.Availability < 0 || *pt.Availability > 1 {
				t.Errorf("%s at p=%v: availability %v out of [0,1]", largeSpecs[i], pt.P, *pt.Availability)
			}
		}
	}
}

// TestBoundErrorsActionable checks the error-reporting satellite: exact
// measures beyond their bounds answer a typed BoundError naming the
// bound and the measures still available, and over-bound specs are
// refused at parse time.
func TestBoundErrorsActionable(t *testing.T) {
	eval := probequorum.NewEvaluator()
	_, err := eval.Do(context.Background(), probequorum.Query{
		Spec:     "maj:1025",
		Measures: []probequorum.Measure{probequorum.MeasurePC},
	})
	if err == nil {
		t.Fatal("exact pc at n=1025 succeeded")
	}
	var be *probequorum.BoundError
	if !errors.As(err, &be) {
		t.Fatalf("want BoundError, got %T: %v", err, err)
	}
	if be.N != 1025 {
		t.Errorf("BoundError.N = %d, want 1025", be.N)
	}
	joined := strings.Join(be.Available, ",")
	for _, m := range []string{"estimate", "availability", "expected"} {
		if !strings.Contains(joined, m) {
			t.Errorf("BoundError.Available %v missing %q", be.Available, m)
		}
	}
	if !strings.Contains(err.Error(), "estimate") {
		t.Errorf("error text %q does not advertise the estimate fallback", err)
	}

	// PPC beyond the DP bound but inside the wide engine.
	_, err = eval.Do(context.Background(), probequorum.Query{
		Spec:     "maj:25",
		Measures: []probequorum.Measure{probequorum.MeasurePPC},
		Ps:       []float64{0.5},
	})
	if !errors.As(err, &be) {
		t.Fatalf("ppc at n=25: want BoundError, got %v", err)
	}

	// Specs beyond the wide engine are refused at parse time.
	_, err = probequorum.Parse("maj:4097")
	if !errors.As(err, &be) || be.Max != 4096 {
		t.Fatalf("Parse(maj:4097): want BoundError at 4096, got %v", err)
	}
}

// TestAvailabilityLargeCustomSystem: a custom system with neither a
// closed form nor a table-sized universe has no exact availability. The
// ctx path answers the typed bound error; the error-less façade form
// panics with it rather than silently returning 0.
func TestAvailabilityLargeCustomSystem(t *testing.T) {
	big, err := probequorum.NewExplicit("big", 30, []*probequorum.Set{
		probequorum.SetOf(30, 0, 1),
		probequorum.SetOf(30, 0, 2),
		probequorum.SetOf(30, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	eval := probequorum.NewEvaluator()
	_, err = eval.AvailabilityCtx(context.Background(), big, 0.5)
	var be *probequorum.BoundError
	if !errors.As(err, &be) {
		t.Fatalf("AvailabilityCtx: want BoundError, got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Availability returned instead of panicking for an impossible exact measure")
		}
	}()
	probequorum.Availability(big, 0.5)
}
