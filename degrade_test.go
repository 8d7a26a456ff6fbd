package probequorum_test

// Tests for deadline budgets and graceful degradation (PR 6): a query
// whose DeadlineMS cannot cover its exact measures comes back as a
// degraded answer — typed notes for exact-only measures, Monte Carlo
// estimates with confidence intervals where a sampling fallback exists —
// never as a hard error, and deterministically so for a fixed seed.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"probequorum"
)

// opaqueVote is the weighted threshold over n elements with weights n,
// n-1, ..., 1 (n(n+1)/2 odd, so every coloring holds a quorum of one
// color), exposing only the generic capabilities: no closed-form
// availability (the built-in constructions all have one and so never
// degrade it) and no native strategies, so every exact measure needs the
// 2^n witness table and the fallbacks go through the generic Monte Carlo
// machinery. No two of its elements are interchangeable, so the exact DPs
// solve all 3^n knowledge states. The words capability keeps table builds
// cancellable without enumerating the minimal quorums; the
// quorum-enumeration entry point must never be reached on these paths and
// panics if it is.
type opaqueVote struct{ n int }

// holds reports whether weight w exceeds half the total weight.
func (o opaqueVote) holds(w int) bool { return 2*w > o.n*(o.n+1)/2 }

func (o opaqueVote) Name() string { return fmt.Sprintf("OpaqueVote(%d..1)", o.n) }
func (o opaqueVote) Size() int    { return o.n }
func (o opaqueVote) ContainsQuorum(s *probequorum.Set) bool {
	w := 0
	for _, e := range s.Elements() {
		w += o.n - e
	}
	return o.holds(w)
}
func (o opaqueVote) ContainsQuorumWords(words []uint64) bool {
	w := 0
	for i, word := range words {
		for ; word != 0; word &= word - 1 {
			w += o.n - (64*i + bits.TrailingZeros64(word))
		}
	}
	return o.holds(w)
}
func (o opaqueVote) Quorums() []*probequorum.Set {
	panic("opaqueVote: Quorums must not be needed")
}

// ProbeWitness probes elements in index order until either color holds
// more than half the weight — the minimal Prober capability the ppc
// fallback needs.
func (o opaqueVote) ProbeWitness(oc probequorum.Oracle) probequorum.Witness {
	greens, reds := probequorum.NewSet(o.n), probequorum.NewSet(o.n)
	gw, rw := 0, 0
	for e := 0; e < o.n; e++ {
		if oc.Probe(e) == probequorum.Green {
			greens.Add(e)
			if gw += o.n - e; o.holds(gw) {
				return probequorum.Witness{Color: probequorum.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			if rw += o.n - e; o.holds(rw) {
				return probequorum.Witness{Color: probequorum.Red, Set: reds}
			}
		}
	}
	return probequorum.Witness{Color: probequorum.Red, Set: reds}
}

// degradedQuery is an exact workload that cannot finish inside 1ms: the
// pc DP over the 3^13 knowledge states of n = 13 takes about 200ms on one
// core, and once it has spent the budget the ppc and availability
// artifacts find it gone, while the Monte Carlo fallbacks need only the
// wide-mask view and the probing strategy.
func degradedQuery() probequorum.Query {
	return probequorum.Query{
		System: opaqueVote{13},
		Measures: []probequorum.Measure{
			probequorum.MeasurePC,
			probequorum.MeasurePPC,
			probequorum.MeasureAvailability,
		},
		Ps:         []float64{0.3},
		Seed:       7,
		DeadlineMS: 1,
	}
}

func TestDeadlineDegradesToEstimates(t *testing.T) {
	eval := probequorum.NewEvaluator()
	res, err := eval.Do(context.Background(), degradedQuery())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}

	// pc has no sampling fallback: a note only, and no value.
	if res.PC != nil {
		t.Errorf("PC = %v, want nil under an impossible deadline", *res.PC)
	}
	foundPC := false
	for _, d := range res.Degraded {
		if d.Measure == probequorum.MeasurePC {
			foundPC = true
			if d.Reason != probequorum.DegradeDeadline {
				t.Errorf("pc degradation reason = %q, want %q", d.Reason, probequorum.DegradeDeadline)
			}
			if d.Estimate != nil {
				t.Errorf("pc degradation carries an estimate; pc has no sampling fallback")
			}
		}
	}
	if !foundPC {
		t.Fatalf("no pc degradation note in %+v", res.Degraded)
	}

	// ppc and availability degrade per point, to seeded Monte Carlo
	// estimates with confidence intervals.
	if len(res.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(res.Points))
	}
	pt := res.Points[0]
	if pt.PPC != nil || pt.Availability != nil {
		t.Errorf("exact point values survived an impossible deadline: ppc=%v avail=%v", pt.PPC, pt.Availability)
	}
	got := map[probequorum.Measure]*probequorum.Degradation{}
	for i := range pt.Degraded {
		got[pt.Degraded[i].Measure] = &pt.Degraded[i]
	}
	for _, m := range []probequorum.Measure{probequorum.MeasurePPC, probequorum.MeasureAvailability} {
		d := got[m]
		if d == nil {
			t.Fatalf("no %s degradation at the point; have %+v", m, pt.Degraded)
		}
		if d.Reason != probequorum.DegradeDeadline {
			t.Errorf("%s reason = %q, want %q", m, d.Reason, probequorum.DegradeDeadline)
		}
		if d.Estimate == nil {
			t.Fatalf("%s degradation has no fallback estimate", m)
		}
		if d.Estimate.Trials <= 0 || d.Estimate.HalfCI <= 0 {
			t.Errorf("%s estimate = %+v, want positive trials and a CI", m, *d.Estimate)
		}
	}
	if ppc := got[probequorum.MeasurePPC].Estimate; ppc.Mean < 1 || ppc.Mean > 13 {
		t.Errorf("ppc fallback mean = %v, want within [1, n]", ppc.Mean)
	}
	if av := got[probequorum.MeasureAvailability].Estimate; av.Mean < 0 || av.Mean > 1 {
		t.Errorf("availability fallback mean = %v, want a probability", av.Mean)
	}
}

// TestDeadlineDegradationDeterministic pins that the fallback estimates
// are a pure function of the query seed: the client retry path and the
// bit-identical acceptance check both rely on it.
func TestDeadlineDegradationDeterministic(t *testing.T) {
	extract := func() (ppc, avail probequorum.Estimate) {
		eval := probequorum.NewEvaluator()
		res, err := eval.Do(context.Background(), degradedQuery())
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if len(res.Points) != 1 {
			t.Fatalf("got %d points, want 1", len(res.Points))
		}
		for _, d := range res.Points[0].Degraded {
			if d.Estimate == nil {
				t.Fatalf("%s degradation has no estimate", d.Measure)
			}
			switch d.Measure {
			case probequorum.MeasurePPC:
				ppc = *d.Estimate
			case probequorum.MeasureAvailability:
				avail = *d.Estimate
			}
		}
		return ppc, avail
	}
	ppc1, avail1 := extract()
	ppc2, avail2 := extract()
	if ppc1 != ppc2 {
		t.Errorf("ppc fallback not deterministic: %+v vs %+v", ppc1, ppc2)
	}
	if avail1 != avail2 {
		t.Errorf("availability fallback not deterministic: %+v vs %+v", avail1, avail2)
	}
}

// TestDeadlineKeepsBoundErrors pins that a deadline degrades only exact
// work it cuts short: pc and ppc past the DP bound (n = 25) answer the
// bound error at once, as they do without a deadline, instead of
// degrading.
func TestDeadlineKeepsBoundErrors(t *testing.T) {
	eval := probequorum.NewEvaluator()
	for _, m := range []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC} {
		q := degradedQuery()
		q.System, q.Measures = opaqueVote{25}, []probequorum.Measure{m}
		_, err := eval.Do(context.Background(), q)
		var be *probequorum.BoundError
		if !errors.As(err, &be) || be.Max != 18 {
			t.Errorf("%s of OpaqueVote(25..1) under a deadline: err = %v, want the DP bound error", m, err)
		}
	}
}

// slowSize is opaqueVote with a Size that outlasts a 1ms budget, so the
// deadline has always passed by the time a measure asks the DP bound.
type slowSize struct{ opaqueVote }

func (s slowSize) Size() int {
	time.Sleep(3 * time.Millisecond)
	return s.n
}

// TestDeadlineKeepsBoundErrorsOnSlowSystem pins that pc and ppc check the
// DP bound before the deadline can win: past the bound they answer the
// bound error even when the budget is spent before they start.
func TestDeadlineKeepsBoundErrorsOnSlowSystem(t *testing.T) {
	eval := probequorum.NewEvaluator()
	for _, m := range []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC} {
		q := degradedQuery()
		q.System, q.Measures = slowSize{opaqueVote{25}}, []probequorum.Measure{m}
		_, err := eval.Do(context.Background(), q)
		var be *probequorum.BoundError
		if !errors.As(err, &be) || be.Max != 18 {
			t.Errorf("%s of a slow OpaqueVote(25..1) under a 1ms deadline: err = %v, want the DP bound error", m, err)
		}
	}
}

// TestDeadlineZeroUnchanged pins that queries without a deadline are
// untouched by the degradation machinery.
func TestDeadlineZeroUnchanged(t *testing.T) {
	eval := probequorum.NewEvaluator()
	res, err := eval.Do(context.Background(), probequorum.Query{
		Spec:     "maj:5",
		Measures: []probequorum.Measure{probequorum.MeasurePC},
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.PC == nil || *res.PC != 5 {
		t.Fatalf("PC = %v, want 5", res.PC)
	}
	if len(res.Degraded) != 0 {
		t.Fatalf("unexpected degradations: %+v", res.Degraded)
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	eval := probequorum.NewEvaluator()
	_, err := eval.Do(context.Background(), probequorum.Query{
		Spec:       "maj:3",
		Measures:   []probequorum.Measure{probequorum.MeasurePC},
		DeadlineMS: -1,
	})
	if err == nil {
		t.Fatal("negative DeadlineMS accepted")
	}
}
