package probequorum

import (
	"context"
	"math"
	"testing"

	"probequorum/internal/availability"
)

// mcAvailability runs the session's availability Monte Carlo loop, the
// deadline-degradation fallback, on a registered construction.
func mcAvailability(t testing.TB, spec string, p float64, trials int, seed uint64) float64 {
	t.Helper()
	s, err := NewEvaluator().estimateAvailabilityCtx(context.Background(), MustParse(spec), p, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s.Mean
}

func TestMonteCarloAgreesWithClosedForm(t *testing.T) {
	p := 0.4
	mc := mcAvailability(t, "tree:3", p, 20000, 5)
	want := availability.Tree(3, p)
	if math.Abs(mc-want) > 0.02 {
		t.Errorf("MC %.4f vs closed form %.4f", mc, want)
	}
}

// At wide sizes the Monte Carlo estimate must land on the closed form.
func TestMonteCarloWideAgreesWithClosedForm(t *testing.T) {
	for _, tc := range []struct {
		spec string
		p    float64
	}{
		{"maj:129", 0.45},
		{"wheel:200", 0.3},
		{"tree:7", 0.5},
		{"hqs:5", 0.55},
	} {
		sys := MustParse(tc.spec)
		exact := availability.Of(sys, tc.p)
		mc := mcAvailability(t, tc.spec, tc.p, 20000, 3)
		if math.Abs(mc-exact) > 0.015 {
			t.Errorf("%s at p=%v: MC %v vs closed form %v", sys.Name(), tc.p, mc, exact)
		}
	}
}

// BenchmarkEstimateAvailabilityMaj1025x2000 times the availability Monte
// Carlo loop at a wide universe: 2000 IID colorings of maj:1025 at
// p = 0.3, each tested with the words membership predicate.
func BenchmarkEstimateAvailabilityMaj1025x2000(b *testing.B) {
	e := NewEvaluator()
	sys := MustParse("maj:1025")
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := e.estimateAvailabilityCtx(ctx, sys, 0.3, 2000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
