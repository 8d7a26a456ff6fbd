package core

import (
	"math"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/systems"
)

// enumerate computes the exact IID(p)-weighted expected probes of a
// deterministic algorithm by full enumeration.
func enumerate(n int, p float64, alg func(o probe.Oracle) probe.Witness) float64 {
	total := 0.0
	coloring.All(n, func(col *coloring.Coloring) bool {
		total += col.Probability(p) * float64(DeterministicProbes(col, alg))
		return true
	})
	return total
}

func TestExpectedProbeMajIIDMatchesEnumeration(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9} {
		m, _ := systems.NewMaj(n)
		for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
			got := systems.ExpectedProbeMajIID(n, p)
			want := enumerate(n, p, m.ProbeWitness)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d p=%v: recursion %.9f != enumeration %.9f", n, p, got, want)
			}
		}
	}
}

func TestExpectedProbeCWIIDMatchesEnumeration(t *testing.T) {
	for _, widths := range [][]int{{1}, {1, 2}, {1, 3, 2}, {1, 2, 3, 4}, {1, 5, 5}} {
		cw, _ := systems.NewCW(widths)
		for _, p := range []float64{0, 0.3, 0.5, 0.7, 1} {
			got := systems.ExpectedProbeCWIID(widths, p)
			want := enumerate(cw.Size(), p, cw.ProbeWitness)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%v p=%v: recursion %.9f != enumeration %.9f", widths, p, got, want)
			}
		}
	}
}

func TestExpectedProbeTreeIIDMatchesEnumeration(t *testing.T) {
	for h := 0; h <= 3; h++ {
		tr, _ := systems.NewTree(h)
		for _, p := range []float64{0, 0.25, 0.5, 0.9} {
			got := systems.ExpectedProbeTreeIID(h, p)
			want := enumerate(tr.Size(), p, tr.ProbeWitness)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("h=%d p=%v: recursion %.9f != enumeration %.9f", h, p, got, want)
			}
		}
	}
}

func TestExpectedProbeHQSIIDMatchesEnumeration(t *testing.T) {
	for h := 0; h <= 2; h++ {
		q, _ := systems.NewHQS(h)
		for _, p := range []float64{0, 0.25, 0.5, 0.9} {
			got := systems.ExpectedProbeHQSIID(h, p)
			want := enumerate(q.Size(), p, q.ProbeWitness)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("h=%d p=%v: recursion %.9f != enumeration %.9f", h, p, got, want)
			}
		}
	}
}

// Theorem 3.8 exact: at p = 1/2 the HQS cost is exactly (5/2)^h.
func TestExpectedProbeHQSHalfClosedForm(t *testing.T) {
	for h := 0; h <= 10; h++ {
		got := systems.ExpectedProbeHQSIID(h, 0.5)
		want := math.Pow(2.5, float64(h))
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("h=%d: %.9f != (5/2)^h = %.9f", h, got, want)
		}
	}
}

// Theorem 3.3: the exact CW expectation respects 2k-1 for every p, and is
// independent of row widths in the wide-row limit.
func TestExpectedProbeCWBound(t *testing.T) {
	for _, widths := range [][]int{{1, 2, 3}, {1, 10, 10, 10}, {1, 100, 100}} {
		k := len(widths)
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.95} {
			got := systems.ExpectedProbeCWIID(widths, p)
			if got > float64(2*k-1)+1e-9 {
				t.Errorf("%v p=%v: %.6f > 2k-1 = %d", widths, p, got, 2*k-1)
			}
		}
	}
}

// Proposition 3.6: the per-level growth ratio of Probe_Tree approaches
// 1 + min(p, q) from above as h grows.
func TestExpectedProbeTreeGrowthRatio(t *testing.T) {
	for _, p := range []float64{0.1, 0.3, 0.5} {
		limit := 1 + math.Min(p, 1-p)
		prevRatio := math.Inf(1)
		// Convergence is slow for small p (the additive root term decays
		// like 1/T(h)), so run the O(h) recursion out to height 45.
		for h := 5; h <= 45; h++ {
			ratio := systems.ExpectedProbeTreeIID(h, p) / systems.ExpectedProbeTreeIID(h-1, p)
			if ratio < limit-1e-9 {
				t.Errorf("p=%v h=%d: ratio %.6f below the limit %.6f", p, h, ratio, limit)
			}
			if ratio > prevRatio+1e-9 {
				t.Errorf("p=%v h=%d: ratio %.6f not decreasing (prev %.6f)", p, h, ratio, prevRatio)
			}
			prevRatio = ratio
		}
		if prevRatio > limit*1.02 {
			t.Errorf("p=%v: ratio %.6f did not approach 1+min(p,q) = %.4f", p, prevRatio, limit)
		}
	}
}
