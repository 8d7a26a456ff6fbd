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

// opaqueMaj is majority over n elements exposing only the generic
// capabilities: no closed-form availability (the built-in constructions
// all have one and so never degrade it) and no native strategies, so
// every exact measure needs the 2^n witness table and the fallbacks go
// through the generic Monte Carlo machinery. The words capability keeps
// table builds cancellable without enumerating the C(n, n/2+1) minimal
// quorums; the quorum-enumeration entry point must never be reached on
// these paths and panics if it is.
type opaqueMaj struct{ n int }

func (o opaqueMaj) Name() string                           { return fmt.Sprintf("OpaqueMaj(%d)", o.n) }
func (o opaqueMaj) Size() int                              { return o.n }
func (o opaqueMaj) ContainsQuorum(s *probequorum.Set) bool { return s.Count() > o.n/2 }
func (o opaqueMaj) ContainsQuorumWords(words []uint64) bool {
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
	}
	return total > o.n/2
}
func (o opaqueMaj) Quorums() []*probequorum.Set {
	panic("opaqueMaj: Quorums must not be needed")
}

// ProbeWitness probes elements in index order until either color has a
// majority — the minimal Prober capability the ppc fallback needs.
func (o opaqueMaj) ProbeWitness(oc probequorum.Oracle) probequorum.Witness {
	need := o.n/2 + 1
	greens, reds := probequorum.NewSet(o.n), probequorum.NewSet(o.n)
	for e := 0; e < o.n; e++ {
		if oc.Probe(e) == probequorum.Green {
			greens.Add(e)
			if greens.Count() == need {
				return probequorum.Witness{Color: probequorum.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			if reds.Count() == need {
				return probequorum.Witness{Color: probequorum.Red, Set: reds}
			}
		}
	}
	return probequorum.Witness{Color: probequorum.Red, Set: reds}
}

// degradedQuery is an exact workload that cannot finish inside 1ms: the
// pc DP over the 3^13 knowledge states of n = 13 takes about 100ms, and
// once it has spent the budget the ppc and availability artifacts find
// it gone, while the Monte Carlo fallbacks need only the wide-mask view
// and the probing strategy.
func degradedQuery() probequorum.Query {
	return probequorum.Query{
		System: opaqueMaj{13},
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
		q.System, q.Measures = opaqueMaj{25}, []probequorum.Measure{m}
		_, err := eval.Do(context.Background(), q)
		var be *probequorum.BoundError
		if !errors.As(err, &be) || be.Max != 18 {
			t.Errorf("%s of OpaqueMaj(25) under a deadline: err = %v, want the DP bound error", m, err)
		}
	}
}

// slowSize is opaqueMaj with a Size that outlasts a 1ms budget, so the
// deadline has always passed by the time a measure asks the DP bound.
type slowSize struct{ opaqueMaj }

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
		q.System, q.Measures = slowSize{opaqueMaj{25}}, []probequorum.Measure{m}
		_, err := eval.Do(context.Background(), q)
		var be *probequorum.BoundError
		if !errors.As(err, &be) || be.Max != 18 {
			t.Errorf("%s of a slow OpaqueMaj(25) under a 1ms deadline: err = %v, want the DP bound error", m, err)
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
