package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	pq "probequorum"
)

// checker validates answers. check runs inline on every answered
// request (cheap, against references computed before timing); finish
// runs after the timed phase for the checks that need recomputation.
// Both return one line per mismatch.
type checker interface {
	check(i int, r *request, res []*pq.Result) []string
	finish(ctx context.Context) []string
}

func newChecker(ctx context.Context, w *workload, p *plan) (checker, error) {
	switch w {
	case serveHot:
		return newHotChecker(ctx, p)
	case estimateWide:
		return newEstimateChecker(ctx)
	case timedSim:
		return &timedChecker{}, nil
	case coldSweep:
		return &coldChecker{}, nil
	}
	return nil, fmt.Errorf("no checker for %s", w.name)
}

// bitsEqual compares two float64 answers bit for bit.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// hotChecker compares every exact answer with a reference session
// computed from scratch (no tiers) before the timed phase, and every
// approx-served point's bound with its tolerance.
type hotChecker struct {
	ref map[string]float64 // spec|measure@p (or @fr) -> value
	pc  map[string]int
}

func newHotChecker(ctx context.Context, p *plan) (*hotChecker, error) {
	// The warm-up batch plus the closed-form measures at the off-grid
	// points, which tolerant queries get exactly.
	qs := slices.Clone(p.warm)
	for _, s := range hotSpecs {
		qs = append(qs, pq.Query{Spec: s, Measures: []pq.Measure{pq.MeasureAvailability, pq.MeasureExpected}, Ps: hotMidpoints()})
	}
	res, err := pq.NewEvaluator().DoBatch(ctx, qs)
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	c := &hotChecker{ref: map[string]float64{}, pc: map[string]int{}}
	for i, r := range res {
		if r.Error != "" {
			return nil, fmt.Errorf("reference %s: %s", qs[i].Spec, r.Error)
		}
		spec := qs[i].Spec
		if r.PC != nil {
			c.pc[spec] = *r.PC
		}
		for _, pt := range r.Points {
			for m, v := range map[string]*float64{"ppc": pt.PPC, "availability": pt.Availability, "expected": pt.Expected} {
				if v != nil {
					c.ref[key(spec+"|"+m, pt.P)] = *v
				}
			}
		}
		for _, rp := range r.RWPoints {
			c.ref[key(spec+"|load", rp.ReadFraction)] = *rp.Load
			c.ref[key(spec+"|capacity", rp.ReadFraction)] = *rp.Capacity
		}
	}
	return c, nil
}

func (c *hotChecker) check(i int, r *request, res []*pq.Result) []string {
	var bad []string
	cmp := func(q int, spec, m string, at float64, got *float64) {
		want, ok := c.ref[key(spec+"|"+m, at)]
		switch {
		case got == nil:
			bad = append(bad, fmt.Sprintf("req %d query %d: %s %s@%v missing", i, q, spec, m, at))
		case !ok:
			bad = append(bad, fmt.Sprintf("req %d query %d: %s %s@%v has no reference", i, q, spec, m, at))
		case !bitsEqual(*got, want):
			bad = append(bad, fmt.Sprintf("req %d query %d: %s %s@%v = %v, reference %v", i, q, spec, m, at, *got, want))
		}
	}
	for qi, q := range r.Queries {
		out := res[qi]
		if slices.Contains(q.Measures, pq.MeasurePC) {
			if out.PC == nil || *out.PC != c.pc[q.Spec] {
				bad = append(bad, fmt.Sprintf("req %d query %d: %s pc = %v, reference %d", i, qi, q.Spec, out.PC, c.pc[q.Spec]))
			}
		}
		if len(out.Points) != len(q.Ps) || len(out.RWPoints) != len(q.ReadFractions) {
			bad = append(bad, fmt.Sprintf("req %d query %d: %d points for %d ps", i, qi, len(out.Points), len(q.Ps)))
			continue
		}
		for j, pt := range out.Points {
			for _, m := range q.Measures {
				var got *float64
				switch m {
				case pq.MeasurePPC:
					got = pt.PPC
				case pq.MeasureAvailability:
					got = pt.Availability
				case pq.MeasureExpected:
					got = pt.Expected
				default:
					continue
				}
				if note := approxNote(pt.Approx, m); note != nil {
					if !(note.Bound <= q.Tolerance) || note.P != q.Ps[j] || got == nil {
						bad = append(bad, fmt.Sprintf("req %d query %d: %s %s@%v approx bound %v > tolerance %v", i, qi, q.Spec, m, q.Ps[j], note.Bound, q.Tolerance))
					}
					continue
				}
				cmp(qi, q.Spec, string(m), q.Ps[j], got)
			}
		}
		for j, rp := range out.RWPoints {
			cmp(qi, q.Spec, "load", q.ReadFractions[j], rp.Load)
			cmp(qi, q.Spec, "capacity", q.ReadFractions[j], rp.Capacity)
		}
	}
	return bad
}

func (c *hotChecker) finish(context.Context) []string { return nil }

func approxNote(notes []pq.ApproxNote, m pq.Measure) *pq.ApproxNote {
	for i := range notes {
		if notes[i].Measure == m {
			return &notes[i]
		}
	}
	return nil
}

// sampleEvery picks the deterministic sample of requests whose answers
// are recomputed in process and compared bit for bit.
const sampleEvery = 16

// sampled keeps the answers of the sampled requests for finish.
type sampled struct {
	mu   sync.Mutex
	reqs []*request
	res  [][]*pq.Result
}

func (s *sampled) add(i int, r *request, res []*pq.Result) {
	if i%sampleEvery != 0 {
		return
	}
	s.mu.Lock()
	s.reqs = append(s.reqs, r)
	s.res = append(s.res, res)
	s.mu.Unlock()
}

// replay recomputes every sampled request on a fresh in-process session
// and reports the answers that differ.
func (s *sampled) replay(ctx context.Context, same func(got, want *pq.Result) bool) []string {
	var bad []string
	ev := pq.NewEvaluator()
	for i, r := range s.reqs {
		want, err := ev.DoBatch(ctx, r.Queries)
		if err != nil {
			return append(bad, fmt.Sprintf("in-process replay: %v", err))
		}
		for qi := range want {
			if !same(s.res[i][qi], want[qi]) {
				bad = append(bad, fmt.Sprintf("sampled %s seed %d: served answer differs from the in-process run", r.Queries[qi].Spec, r.Queries[qi].Seed))
			}
		}
	}
	return bad
}

// estimateChecker checks every estimate against the closed-form
// expectation and its own stopping rule, and a deterministic sample
// bit for bit against an in-process run with the same seed.
type estimateChecker struct {
	expected map[string]float64
	sample   sampled
}

func newEstimateChecker(ctx context.Context) (*estimateChecker, error) {
	var qs []pq.Query
	for _, s := range wideSpecs {
		qs = append(qs, pq.Query{Spec: s, Measures: []pq.Measure{pq.MeasureExpected}, Ps: widePs})
	}
	res, err := pq.NewEvaluator().DoBatch(ctx, qs)
	if err != nil {
		return nil, err
	}
	c := &estimateChecker{expected: map[string]float64{}}
	for i, r := range res {
		if r.Error != "" {
			return nil, fmt.Errorf("reference %s: %s", qs[i].Spec, r.Error)
		}
		for _, pt := range r.Points {
			c.expected[key(qs[i].Spec, pt.P)] = *pt.Expected
		}
	}
	return c, nil
}

func (c *estimateChecker) check(i int, r *request, res []*pq.Result) []string {
	var bad []string
	for qi, q := range r.Queries {
		for j, pt := range res[qi].Points {
			est := pt.Estimate
			e := c.expected[key(q.Spec, q.Ps[j])]
			switch {
			case est == nil:
				bad = append(bad, fmt.Sprintf("req %d: %s estimate missing", i, q.Spec))
			case !(math.Abs(est.Mean-e) <= 5*est.HalfCI):
				bad = append(bad, fmt.Sprintf("req %d: %s@%v mean %v is %.2f half-CIs from the expectation %v", i, q.Spec, q.Ps[j], est.Mean, math.Abs(est.Mean-e)/est.HalfCI, e))
			case !(est.HalfCI <= q.Tolerance || est.Trials == q.Trials):
				bad = append(bad, fmt.Sprintf("req %d: %s@%v half-CI %v above tolerance %v after %d of %d trials", i, q.Spec, q.Ps[j], est.HalfCI, q.Tolerance, est.Trials, q.Trials))
			}
		}
	}
	c.sample.add(i, r, res)
	return bad
}

func (c *estimateChecker) finish(ctx context.Context) []string {
	return c.sample.replay(ctx, func(got, want *pq.Result) bool {
		for j := range want.Points {
			g, w := got.Points[j].Estimate, want.Points[j].Estimate
			if g == nil || w == nil || !bitsEqual(g.Mean, w.Mean) || !bitsEqual(g.HalfCI, w.HalfCI) || g.Trials != w.Trials {
				return false
			}
		}
		return true
	})
}

// timedChecker checks every timed summary for shape and range, and a
// deterministic sample bit for bit against an in-process run.
type timedChecker struct{ sample sampled }

func (c *timedChecker) check(i int, r *request, res []*pq.Result) []string {
	var bad []string
	for qi, q := range r.Queries {
		for j, pt := range res[qi].Points {
			switch {
			case pt.TimedTTQ == nil || pt.TimedInFlight == nil || pt.TimedReach == nil:
				bad = append(bad, fmt.Sprintf("req %d: %s@%v timed measures missing", i, q.Spec, q.Ps[j]))
			case !(*pt.TimedReach >= 0 && *pt.TimedReach <= 1) || !(pt.TimedTTQ.MeanMS > 0) || pt.TimedTTQ.P50MS > pt.TimedTTQ.MaxMS:
				bad = append(bad, fmt.Sprintf("req %d: %s@%v timed summary out of range: %+v reach %v", i, q.Spec, q.Ps[j], *pt.TimedTTQ, *pt.TimedReach))
			case pt.TimedInFlight.IssuedMean < pt.TimedInFlight.StaticMean && q.Churn == "":
				bad = append(bad, fmt.Sprintf("req %d: %s@%v issued %v probes below the static %v", i, q.Spec, q.Ps[j], pt.TimedInFlight.IssuedMean, pt.TimedInFlight.StaticMean))
			}
		}
	}
	c.sample.add(i, r, res)
	return bad
}

func (c *timedChecker) finish(ctx context.Context) []string {
	return c.sample.replay(ctx, func(got, want *pq.Result) bool {
		for j := range want.Points {
			g, w := got.Points[j], want.Points[j]
			if g.TimedTTQ == nil || g.TimedInFlight == nil || g.TimedReach == nil ||
				*g.TimedTTQ != *w.TimedTTQ || *g.TimedInFlight != *w.TimedInFlight || !bitsEqual(*g.TimedReach, *w.TimedReach) {
				return false
			}
		}
		return true
	})
}

// coldChecker records every exact answer and compares them all after the
// timed phase with a reference session that computes them from scratch.
type coldChecker struct {
	mu     sync.Mutex
	answer map[string]float64 // spec|measure@p -> served value
	pc     map[string]int
}

func (c *coldChecker) check(i int, r *request, res []*pq.Result) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.answer == nil {
		c.answer, c.pc = map[string]float64{}, map[string]int{}
	}
	var bad []string
	record := func(k string, v *float64) {
		if v == nil {
			bad = append(bad, fmt.Sprintf("req %d: %s missing", i, k))
			return
		}
		if old, ok := c.answer[k]; ok && !bitsEqual(old, *v) {
			bad = append(bad, fmt.Sprintf("req %d: %s answered %v, earlier %v", i, k, *v, old))
		}
		c.answer[k] = *v
	}
	for qi, q := range r.Queries {
		out := res[qi]
		if slices.Contains(q.Measures, pq.MeasurePC) {
			if out.PC == nil {
				bad = append(bad, fmt.Sprintf("req %d: %s pc missing", i, q.Spec))
			} else {
				c.pc[q.Spec] = *out.PC
			}
		}
		for j, pt := range out.Points {
			record(key(q.Spec+"|ppc", q.Ps[j]), pt.PPC)
			if slices.Contains(q.Measures, pq.MeasureAvailability) {
				record(key(q.Spec+"|availability", q.Ps[j]), pt.Availability)
			}
		}
	}
	return bad
}

func (c *coldChecker) finish(ctx context.Context) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	// One reference query per spec with all its answered points.
	ps := map[string][]float64{}
	for k := range c.answer {
		if spec, m, p := splitKey(k); m == "ppc" {
			ps[spec] = append(ps[spec], p)
		}
	}
	var qs []pq.Query
	for _, s := range sortedKeys(ps) {
		ms := []pq.Measure{pq.MeasurePPC, pq.MeasureAvailability}
		if _, ok := c.pc[s]; ok {
			ms = append(ms, pq.MeasurePC)
		}
		slices.Sort(ps[s])
		qs = append(qs, pq.Query{Spec: s, Measures: ms, Ps: ps[s]})
	}
	res, err := pq.NewEvaluator().DoBatch(ctx, qs)
	if err != nil {
		return []string{fmt.Sprintf("reference session: %v", err)}
	}
	var bad []string
	for i, r := range res {
		q := qs[i]
		if r.Error != "" {
			bad = append(bad, fmt.Sprintf("reference %s: %s", q.Spec, r.Error))
			continue
		}
		if pc, ok := c.pc[q.Spec]; ok && (r.PC == nil || *r.PC != pc) {
			bad = append(bad, fmt.Sprintf("%s pc served %d, reference %v", q.Spec, pc, r.PC))
		}
		for j, pt := range r.Points {
			p := q.Ps[j]
			if v := c.answer[key(q.Spec+"|ppc", p)]; !bitsEqual(v, *pt.PPC) {
				bad = append(bad, fmt.Sprintf("%s ppc@%v served %v, reference %v", q.Spec, p, v, *pt.PPC))
			}
			if v, ok := c.answer[key(q.Spec+"|availability", p)]; ok && !bitsEqual(v, *pt.Availability) {
				bad = append(bad, fmt.Sprintf("%s availability@%v served %v, reference %v", q.Spec, p, v, *pt.Availability))
			}
		}
	}
	return bad
}
