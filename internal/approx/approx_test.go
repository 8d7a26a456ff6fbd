package approx

import (
	"math"
	"sync"
	"testing"
)

func TestExactPointServesWithZeroBound(t *testing.T) {
	c := New()
	c.Insert("maj:7", "ppc", 0.3, 2.5)
	ans, ok := c.Lookup("maj:7", "ppc", 0.3, 1e-9)
	if !ok {
		t.Fatal("exact sampled point must serve at any positive tolerance")
	}
	if ans.Value != 2.5 || ans.Bound != 0 || ans.Lo != 0.3 || ans.Hi != 0.3 {
		t.Fatalf("ans = %+v", ans)
	}
}

func TestZeroToleranceNeverServes(t *testing.T) {
	c := New()
	c.Insert("maj:7", "ppc", 0.3, 2.5)
	for _, tol := range []float64{0, -1} {
		if _, ok := c.Lookup("maj:7", "ppc", 0.3, tol); ok {
			t.Fatalf("tolerance %v must never be served approximately", tol)
		}
	}
}

func TestBracketInterpolatesWithinBound(t *testing.T) {
	c := New()
	c.Insert("maj:7", "ppc", 0.2, 2.0)
	c.Insert("maj:7", "ppc", 0.4, 2.6)
	ans, ok := c.Lookup("maj:7", "ppc", 0.3, 0.7)
	if !ok {
		t.Fatal("bracketed point within tolerance must serve")
	}
	if want := 0.6000000000000001; math.Abs(ans.Bound-0.6) > 1e-15 && ans.Bound != want {
		t.Fatalf("bound = %v, want spread 0.6", ans.Bound)
	}
	if ans.Bound > 0.7 {
		t.Fatalf("bound %v exceeds tolerance", ans.Bound)
	}
	if math.Abs(ans.Value-2.3) > 1e-12 {
		t.Fatalf("value = %v, want midpoint 2.3", ans.Value)
	}
	if ans.Lo != 0.2 || ans.Hi != 0.4 {
		t.Fatalf("bracket = [%v, %v]", ans.Lo, ans.Hi)
	}
	// Tolerance below the spread must refuse.
	if _, ok := c.Lookup("maj:7", "ppc", 0.3, 0.5); ok {
		t.Fatal("bound above tolerance must miss")
	}
}

// TestPPCBracketAroundHalfMisses pins the ppc rule: an ND coterie's ppc
// is symmetric about 1/2 and peaks there, so maj:9's samples at 0.3 and
// 0.7 (both 6.858662) bound nothing at 0.5, whose ppc is 7.539062. A
// bracket ending at 1/2 serves, and availability, monotone everywhere,
// serves across 1/2.
func TestPPCBracketAroundHalfMisses(t *testing.T) {
	c := New()
	c.Insert("maj:9", "ppc", 0.3, 6.858662)
	c.Insert("maj:9", "ppc", 0.7, 6.858662)
	if ans, ok := c.Lookup("maj:9", "ppc", 0.5, 0.05); ok {
		t.Fatalf("ppc bracket [0.3, 0.7] served %+v", ans)
	}
	c.Insert("maj:9", "ppc", 0.5, 7.539062)
	if _, ok := c.Lookup("maj:9", "ppc", 0.4, 1); !ok {
		t.Fatal("ppc bracket [0.3, 0.5] must serve")
	}
	c.Insert("maj:9", "availability", 0.3, 0.1)
	c.Insert("maj:9", "availability", 0.7, 0.9)
	if _, ok := c.Lookup("maj:9", "availability", 0.5, 1); !ok {
		t.Fatal("availability bracket [0.3, 0.7] must serve")
	}
}

func TestNoExtrapolation(t *testing.T) {
	c := New()
	c.Insert("maj:7", "ppc", 0.2, 2.0)
	c.Insert("maj:7", "ppc", 0.4, 2.6)
	for _, p := range []float64{0.1, 0.5} {
		if _, ok := c.Lookup("maj:7", "ppc", p, 10); ok {
			t.Fatalf("p=%v outside sampled range must miss", p)
		}
	}
}

func TestSeriesIsolation(t *testing.T) {
	c := New()
	c.Insert("maj:7", "ppc", 0.3, 2.5)
	if _, ok := c.Lookup("maj:9", "ppc", 0.3, 1); ok {
		t.Fatal("other spec must miss")
	}
	if _, ok := c.Lookup("maj:7", "availability", 0.3, 1); ok {
		t.Fatal("other measure must miss")
	}
}

func TestOverwriteAndIgnoreNonFinite(t *testing.T) {
	c := New()
	c.Insert("maj:7", "ppc", 0.3, 2.5)
	c.Insert("maj:7", "ppc", 0.3, 2.25)
	if ans, ok := c.Lookup("maj:7", "ppc", 0.3, 1); !ok || ans.Value != 2.25 {
		t.Fatalf("overwrite lost: %+v, %v", ans, ok)
	}
	c.Insert("maj:7", "ppc", math.NaN(), 1)
	c.Insert("maj:7", "ppc", 0.5, math.Inf(1))
	c.Insert("", "ppc", 0.5, 1)
	if st := c.Stats(); st.Points != 1 {
		t.Fatalf("non-finite or unspec'd inserts must be ignored: %+v", st)
	}
}

func TestEvictionKeepsEndpoints(t *testing.T) {
	c := New()
	for i := 0; i <= maxPointsPerSeries+100; i++ {
		p := float64(i) / float64(maxPointsPerSeries+100)
		c.Insert("maj:7", "ppc", p, p)
	}
	pts := c.Points("maj:7", "ppc")
	if len(pts) != maxPointsPerSeries {
		t.Fatalf("series size = %d, want cap %d", len(pts), maxPointsPerSeries)
	}
	if pts[0] != 0 || pts[len(pts)-1] != 1 {
		t.Fatalf("endpoints evicted: [%v, %v]", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatalf("points not sorted at %d", i)
		}
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := float64(i%50) / 50
				if g%2 == 0 {
					c.Insert("maj:7", "ppc", p, p*2)
				} else if ans, ok := c.Lookup("maj:7", "ppc", p, 1); ok && math.Abs(ans.Value-p*2) > 1 {
					t.Errorf("lookup %v = %+v", p, ans)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Specs != 1 || st.Series != 1 || st.Points != 50 {
		t.Fatalf("stats = %+v", st)
	}
}
