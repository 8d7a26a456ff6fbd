package core

import (
	"math"
	"testing"

	"probequorum/internal/availability"
	"probequorum/internal/coloring"
	"probequorum/internal/systems"
)

func TestProbeRecMajSound(t *testing.T) {
	for _, c := range []struct{ m, h int }{{3, 0}, {3, 1}, {3, 2}, {5, 1}} {
		r, err := systems.NewRecMaj(c.m, c.h)
		if err != nil {
			t.Fatal(err)
		}
		verifyAlg(t, r, r.ProbeWitness)
	}
}

// ProbeRecMaj on arity 3 is exactly ProbeHQS: identical probe counts on
// every coloring.
func TestProbeRecMajMatchesProbeHQS(t *testing.T) {
	r, _ := systems.NewRecMaj(3, 2)
	q, _ := systems.NewHQS(2)
	coloring.All(9, func(col *coloring.Coloring) bool {
		a := DeterministicProbes(col, r.ProbeWitness)
		b := DeterministicProbes(col, q.ProbeWitness)
		if a != b {
			t.Fatalf("coloring %s: recmaj %d probes, hqs %d", col, a, b)
		}
		return true
	})
}

func TestExpectedGateEvaluations(t *testing.T) {
	// t = 1: the first child decides: always 1 evaluation.
	if got := systems.ExpectedGateEvaluations(0.3, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("t=1: %v, want 1", got)
	}
	// t = 2, a = 1/2: the paper's 5/2.
	if got := systems.ExpectedGateEvaluations(0.5, 2); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("t=2 a=1/2: %v, want 2.5", got)
	}
	// Symmetry in a and 1-a.
	if x, y := systems.ExpectedGateEvaluations(0.3, 3), systems.ExpectedGateEvaluations(0.7, 3); math.Abs(x-y) > 1e-12 {
		t.Errorf("asymmetric: %v vs %v", x, y)
	}
	// Degenerate a: straight run of t evaluations.
	if got := systems.ExpectedGateEvaluations(1, 3); math.Abs(got-3) > 1e-12 {
		t.Errorf("a=1 t=3: %v, want 3", got)
	}
}

func TestExpectedProbeRecMajMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ m, h int }{{3, 1}, {3, 2}, {5, 1}} {
		r, err := systems.NewRecMaj(c.m, c.h)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.8} {
			got := systems.ExpectedProbeRecMajIID(c.m, c.h, p)
			want := enumerate(r.Size(), p, r.ProbeWitness)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("m=%d h=%d p=%v: recursion %.9f != enumeration %.9f", c.m, c.h, p, got, want)
			}
		}
	}
}

// RecMaj(3) reproduces the HQS expectation recursion exactly.
func TestExpectedProbeRecMaj3MatchesHQS(t *testing.T) {
	for h := 0; h <= 6; h++ {
		for _, p := range []float64{0.2, 0.5} {
			a := systems.ExpectedProbeRecMajIID(3, h, p)
			b := systems.ExpectedProbeHQSIID(h, p)
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("h=%d p=%v: recmaj %.9f != hqs %.9f", h, p, a, b)
			}
		}
	}
}

// Availability cross-checks for RecMaj.
func TestRecMajAvailability(t *testing.T) {
	// Arity 3 equals HQS.
	for h := 0; h <= 5; h++ {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			a := availability.RecMaj(3, h, p)
			b := availability.HQS(h, p)
			if math.Abs(a-b) > 1e-12 {
				t.Errorf("h=%d p=%v: recmaj %v != hqs %v", h, p, a, b)
			}
		}
	}
	// Arity 5 height 1 equals Maj(5), and matches brute force.
	r, _ := systems.NewRecMaj(5, 1)
	for _, p := range []float64{0.2, 0.5, 0.7} {
		got := availability.RecMaj(5, 1, p)
		if want := availability.Maj(5, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v: recmaj %v != maj %v", p, got, want)
		}
		if want := availability.BruteForce(r, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("p=%v: recmaj %v != brute force %v", p, got, want)
		}
		if want := availability.Of(r, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v: Of dispatch %v != %v", p, want, got)
		}
	}
}

// The probe-vs-quorum-size gap of §3.4 persists (and widens) for larger
// arities: expected probes grow strictly faster than quorum size at
// p = 1/2.
func TestRecMajProbeGapGeneralizes(t *testing.T) {
	for _, m := range []int{3, 5, 7} {
		t1 := (m + 1) / 2
		factor := systems.ExpectedGateEvaluations(0.5, t1)
		if factor <= float64(t1) {
			t.Errorf("m=%d: gate factor %.4f not above threshold %d", m, factor, t1)
		}
	}
}
