package probequorum_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"probequorum"
)

// timedDifferentialSpecs covers every registered construction family.
var timedDifferentialSpecs = []string{
	"maj:9", "wheel:8", "cw:1,3,5", "triang:3", "tree:2", "hqs:2",
	"vote:3,1,1,1,1", "recmaj:3x2",
}

// TestTimedZeroScenarioDifferential pins the temporal engine to the
// static one through the public API: with zero latency, zero churn and
// the sequential discipline, a timed trial issues exactly the static
// strategy's probe sequence, so over the same (trials, seed) the issued
// mean, the static mean and the estimate measure's mean are the same
// number bit for bit, every probe completes instantly, and at most one
// probe is ever in flight.
func TestTimedZeroScenarioDifferential(t *testing.T) {
	eval := probequorum.NewEvaluator()
	for _, spec := range timedDifferentialSpecs {
		for _, strat := range []string{"d", "r"} {
			res, err := eval.Do(context.Background(), probequorum.Query{
				Spec: spec,
				Measures: []probequorum.Measure{
					probequorum.MeasureEstimate,
					probequorum.MeasureTimedTTQ,
					probequorum.MeasureTimedInFlight,
				},
				Ps:            []float64{0.3},
				Trials:        400,
				Seed:          11,
				TimedStrategy: strat,
			})
			if err != nil {
				t.Fatalf("%s strategy %s: %v", spec, strat, err)
			}
			pt := res.Points[0]
			if pt.TimedInFlight == nil || pt.TimedTTQ == nil || pt.Estimate == nil {
				t.Fatalf("%s strategy %s: missing timed fields: %+v", spec, strat, pt)
			}
			fl := *pt.TimedInFlight
			if fl.IssuedMean != fl.StaticMean {
				t.Errorf("%s strategy %s: issued %v != static %v under the zero scenario",
					spec, strat, fl.IssuedMean, fl.StaticMean)
			}
			// The deterministic scheduler runs the same strategy the
			// estimate measure runs, on the same coloring stream; the two
			// means differ only by accumulation order (Welford vs direct
			// sum), so they agree to float tolerance.
			if strat == "d" && math.Abs(fl.IssuedMean-pt.Estimate.Mean) > 1e-9*(1+pt.Estimate.Mean) {
				t.Errorf("%s: timed issued mean %v != estimate mean %v",
					spec, fl.IssuedMean, pt.Estimate.Mean)
			}
			if *pt.TimedTTQ != (probequorum.TimedDist{}) {
				t.Errorf("%s strategy %s: nonzero TTQ %+v under zero latency", spec, strat, *pt.TimedTTQ)
			}
			if fl.MaxInFlight != 1 {
				t.Errorf("%s strategy %s: peak in flight %d, want 1 (sequential)", spec, strat, fl.MaxInFlight)
			}
		}
	}
}

// TestTimedMeasuresEndToEnd runs a full temporal scenario through Do
// and checks each timed field lands on its own measure.
func TestTimedMeasuresEndToEnd(t *testing.T) {
	eval := probequorum.NewEvaluator()
	q := probequorum.Query{
		Spec: "maj:31",
		Measures: []probequorum.Measure{
			probequorum.MeasureTimedTTQ,
			probequorum.MeasureTimedReach,
			probequorum.MeasureTimedInFlight,
		},
		Ps:              []float64{0.1, 0.3},
		Trials:          300,
		Seed:            5,
		Latency:         "exp:4",
		Churn:           "flap:50,10",
		Window:          3,
		HedgeMS:         8,
		TimedDeadlineMS: 200,
	}
	res, err := eval.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.TimedTTQ == nil || pt.TimedReach == nil || pt.TimedInFlight == nil {
			t.Fatalf("point p=%v missing timed fields: %+v", pt.P, pt)
		}
		ttq := *pt.TimedTTQ
		if !(ttq.MeanMS > 0 && ttq.P50MS <= ttq.P99MS && ttq.P99MS <= ttq.MaxMS) {
			t.Errorf("p=%v: malformed TTQ distribution %+v", pt.P, ttq)
		}
		if !(*pt.TimedReach >= 0 && *pt.TimedReach <= 1) {
			t.Errorf("p=%v: reach %v outside [0,1]", pt.P, *pt.TimedReach)
		}
		fl := *pt.TimedInFlight
		if fl.MaxInFlight < 2 {
			t.Errorf("p=%v: window-3 run peaked at %d in flight", pt.P, fl.MaxInFlight)
		}
		// Churn shifts observed colors, so issued can land on either side
		// of the static baseline; both must simply be real probe counts.
		if !(fl.IssuedMean > 0 && fl.StaticMean > 0) {
			t.Errorf("p=%v: degenerate probe accounting %+v", pt.P, fl)
		}
	}
	// Identical query, identical results: the run is a pure function of
	// (spec, scenario, p, trials, seed).
	res2, err := probequorum.NewEvaluator().Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Errorf("timed results differ across evaluators:\n%+v\n%+v", res, res2)
	}
}

// TestUnknownMeasureRejected pins the typed rejection of unknown
// measure names — on queries and on the flag-level parser — naming the
// offending measure.
func TestUnknownMeasureRejected(t *testing.T) {
	eval := probequorum.NewEvaluator()
	_, err := eval.Do(context.Background(), probequorum.Query{
		Spec:     "maj:5",
		Measures: []probequorum.Measure{probequorum.MeasurePC, "timed-banana"},
	})
	var qe *probequorum.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("unknown measure error %v (%T), want *QueryError", err, err)
	}
	if !strings.Contains(qe.Msg, "timed-banana") {
		t.Errorf("error %q does not name the unknown measure", qe.Msg)
	}
	if _, err := probequorum.ParseMeasures("pc,bogus"); err == nil {
		t.Fatal("ParseMeasures accepted an unknown measure")
	} else if !errors.As(err, &qe) || !strings.Contains(qe.Msg, "bogus") {
		t.Errorf("ParseMeasures error %v does not carry a typed name", err)
	}
	// The new timed measures parse.
	ms, err := probequorum.ParseMeasures("timed-ttq, timed-reach,timed-inflight")
	if err != nil || len(ms) != 3 {
		t.Fatalf("ParseMeasures(timed measures) = %v, %v", ms, err)
	}
}

// TestTimedQueryValidation pins the typed scenario validation on the
// query path.
func TestTimedQueryValidation(t *testing.T) {
	eval := probequorum.NewEvaluator()
	bad := []probequorum.Query{
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureTimedTTQ}, Ps: []float64{0.3}, Latency: "warp:1"},
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureTimedTTQ}, Ps: []float64{0.3}, Churn: "quake:1"},
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureTimedTTQ}, Ps: []float64{0.3}, Window: -2},
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureTimedTTQ}, Ps: []float64{0.3}, TimedStrategy: "x"},
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureTimedReach}, Ps: []float64{0.3}},
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureTimedTTQ}},
	}
	for _, q := range bad {
		_, err := eval.Do(context.Background(), q)
		var qe *probequorum.QueryError
		if !errors.As(err, &qe) {
			t.Errorf("query %+v: error %v (%T), want *QueryError", q, err, err)
		}
	}
	// A non-timed query ignores the timed knobs entirely, even bad ones.
	if _, err := eval.Do(context.Background(), probequorum.Query{
		Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasurePC}, Latency: "warp:1",
	}); err != nil {
		t.Errorf("inert bad latency rejected on a non-timed query: %v", err)
	}
}

// TestTimedCancellationLeavesCachesUntouched mirrors
// TestDeadlineDegradationDeterministic for the temporal engine: a
// cancelled timed stream must leave the session answering later queries
// exactly as a fresh session would.
func TestTimedCancellationLeavesCachesUntouched(t *testing.T) {
	q := probequorum.Query{
		Spec:     "maj:11",
		Measures: []probequorum.Measure{probequorum.MeasurePPC, probequorum.MeasureTimedTTQ, probequorum.MeasureTimedInFlight},
		Ps:       []float64{0.2, 0.4},
		Trials:   300,
		Seed:     3,
		Latency:  "exp:2",
		Window:   2,
	}
	eval := probequorum.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cells := 0
	var streamErr error
	for _, err := range eval.Stream(ctx, q) {
		if err != nil {
			streamErr = err
			break
		}
		cells++
		if cells == 2 {
			// Mid-query: the first grid point is in flight.
			cancel()
		}
	}
	cancel()
	if streamErr == nil {
		t.Fatal("cancelled stream finished cleanly")
	}
	after, err := eval.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := probequorum.NewEvaluator().Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fresh) {
		t.Errorf("post-cancellation session answers differ from a fresh session:\n%+v\n%+v", after, fresh)
	}
}

// TestTimedStreamFoldMatchesDo pins that folding a timed cell stream
// reproduces Do, and that timed cells carry the full summary.
func TestTimedStreamFoldMatchesDo(t *testing.T) {
	q := probequorum.Query{
		Spec:            "maj:31",
		Measures:        []probequorum.Measure{probequorum.MeasureTimedTTQ, probequorum.MeasureTimedReach},
		Ps:              []float64{0.25},
		Trials:          200,
		Seed:            9,
		Latency:         "uniform:1,5",
		TimedDeadlineMS: 100,
	}
	eval := probequorum.NewEvaluator()
	var cells []probequorum.Cell
	for c, err := range eval.Stream(context.Background(), q) {
		if err != nil {
			t.Fatal(err)
		}
		if c.Measure.Timed() && c.Timed == nil {
			t.Fatalf("timed cell without summary: %+v", c)
		}
		cells = append(cells, c)
	}
	folded, err := probequorum.FoldCells(probequorum.CellSeq(cells), 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := eval.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(folded[0], direct) {
		t.Errorf("folded stream differs from Do:\n%+v\n%+v", folded[0], direct)
	}
}
