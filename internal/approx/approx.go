// Package approx is the approximate-answer tier of the evaluation
// cache: an in-memory index of exact measure values at sampled
// parameter points, able to answer a query at a *nearby* parameter
// without running the DP — but only when the caller declared a
// tolerance, and always tagged with the error bound the interpolation
// achieves, so the caller can verify bound ≤ tolerance instead of
// trusting the cache.
//
// A query with tolerance zero (or negative) is never served from this
// tier; the contract is opt-in per query, not a global mode.
package approx

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// maxPointsPerSeries bounds one (spec, measure) series; past it the
// farthest-spaced point is dropped. Exact parameter sweeps rarely pass
// a few dozen points, so the bound is a memory backstop, not a policy.
const maxPointsPerSeries = 512

// Answer is an approximate answer: the served value and the error
// bound the cache can guarantee for it. A bound of zero means the
// parameter hit an exact sampled point.
type Answer struct {
	Value float64
	// Bound is the spread of the bracketing exact values, which bounds
	// the error where the measure is monotone between them. Availability
	// is monotone in p. An ND coterie's PPC_p is symmetric about 1/2 and
	// peaks there, so a "ppc" bracket around 1/2 is a miss; that it is
	// monotone on each half is checked on the registry, not proven. Other
	// systems' ppc may peak anywhere (a grid's does), so the Evaluator
	// offers this tier ppc only for ND coteries.
	Bound float64
	// Lo and Hi are the bracketing sampled parameters (equal on an exact
	// hit); diagnostics for the caller's error tagging.
	Lo, Hi float64
}

// series holds the sampled exact points of one (spec, measure), sorted
// by parameter.
type series struct {
	ps []float64
	vs []float64
}

// Cache indexes exact points by canonical spec and measure name. It is
// safe for concurrent use.
type Cache struct {
	mu sync.RWMutex
	// two-level map rather than a concatenated string key: Lookup is on
	// the request hot path and must not allocate for the common miss.
	specs map[string]map[string]*series

	// Lock-free counters: Lookup runs under the read lock, so shared
	// counters must be atomic.
	hits, misses, inserts atomic.Uint64
}

// New returns an empty approximate-answer cache.
func New() *Cache {
	return &Cache{specs: make(map[string]map[string]*series)}
}

// Insert records an exact value of measure at parameter p for the
// spec'd system. Duplicate parameters overwrite (exact recompute wins);
// non-finite parameters or values are ignored.
func (c *Cache) Insert(spec, measure string, p, v float64) {
	if spec == "" || math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	c.mu.Lock()
	byMeasure := c.specs[spec]
	if byMeasure == nil {
		byMeasure = make(map[string]*series)
		c.specs[spec] = byMeasure
	}
	ser := byMeasure[measure]
	if ser == nil {
		ser = &series{}
		byMeasure[measure] = ser
	}
	i := sort.SearchFloat64s(ser.ps, p)
	if i < len(ser.ps) && ser.ps[i] == p {
		ser.vs[i] = v
	} else {
		ser.ps = append(ser.ps, 0)
		ser.vs = append(ser.vs, 0)
		copy(ser.ps[i+1:], ser.ps[i:])
		copy(ser.vs[i+1:], ser.vs[i:])
		ser.ps[i] = p
		ser.vs[i] = v
		if len(ser.ps) > maxPointsPerSeries {
			ser.evictWidestGap()
		}
	}
	c.inserts.Add(1)
	c.mu.Unlock()
}

// evictWidestGap drops the interior point whose removal widens the
// bracketing least: the point with the smallest combined gap to its
// neighbors. Endpoints stay — they anchor the served range.
func (s *series) evictWidestGap() {
	drop := 1
	best := math.Inf(1)
	for i := 1; i < len(s.ps)-1; i++ {
		if gap := s.ps[i+1] - s.ps[i-1]; gap < best {
			best = gap
			drop = i
		}
	}
	s.ps = append(s.ps[:drop], s.ps[drop+1:]...)
	s.vs = append(s.vs[:drop], s.vs[drop+1:]...)
}

// Lookup serves measure at parameter p within tol, if the sampled
// points bracket p tightly enough. tol <= 0 never serves — exact
// queries bypass this tier entirely. An exact sampled point serves with
// bound zero at any positive tolerance.
//
//quorum:hotpath
func (c *Cache) Lookup(spec, measure string, p, tol float64) (Answer, bool) {
	if tol <= 0 || spec == "" {
		return Answer{}, false
	}
	c.mu.RLock()
	ser := c.specs[spec][measure]
	if ser == nil || len(ser.ps) == 0 {
		c.misses.Add(1)
		c.mu.RUnlock()
		return Answer{}, false
	}
	// Manual binary search: sort.SearchFloat64s takes a closure-free fast
	// path, but inlining the loop keeps this allocation-free under every
	// compiler and is trivially auditable.
	lo, hi := 0, len(ser.ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ser.ps[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first index with ps[lo] >= p.
	if lo < len(ser.ps) && ser.ps[lo] == p {
		ans := Answer{Value: ser.vs[lo], Bound: 0, Lo: p, Hi: p}
		c.hits.Add(1)
		c.mu.RUnlock()
		return ans, true
	}
	if lo == 0 || lo == len(ser.ps) {
		// p outside the sampled range: no bracket, no extrapolation.
		c.misses.Add(1)
		c.mu.RUnlock()
		return Answer{}, false
	}
	p0, p1 := ser.ps[lo-1], ser.ps[lo]
	v0, v1 := ser.vs[lo-1], ser.vs[lo]
	bound := math.Abs(v1 - v0)
	if bound > tol || measure == "ppc" && p0 < 0.5 && 0.5 < p1 {
		// Too wide, or a ppc bracket around its peak (see Answer.Bound).
		c.misses.Add(1)
		c.mu.RUnlock()
		return Answer{}, false
	}
	t := (p - p0) / (p1 - p0)
	ans := Answer{Value: v0 + t*(v1-v0), Bound: bound, Lo: p0, Hi: p1}
	c.hits.Add(1)
	c.mu.RUnlock()
	return ans, true
}

// Points returns the sampled parameters of one series, for diagnostics
// and warm planning.
func (c *Cache) Points(spec, measure string) []float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ser := c.specs[spec][measure]
	if ser == nil {
		return nil
	}
	return append([]float64(nil), ser.ps...)
}

// Stats is a snapshot of the cache: series and point counts plus
// lifetime lookup counters.
type Stats struct {
	Specs   int    `json:"specs"`
	Series  int    `json:"series"`
	Points  int    `json:"points"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Inserts uint64 `json:"inserts"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{Specs: len(c.specs), Hits: c.hits.Load(), Misses: c.misses.Load(), Inserts: c.inserts.Load()}
	for _, byMeasure := range c.specs {
		st.Series += len(byMeasure)
		for _, ser := range byMeasure {
			st.Points += len(ser.ps)
		}
	}
	return st
}
