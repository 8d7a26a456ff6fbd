package probequorum_test

// Tests for the Query evaluation API: validation, batch fan-out, the
// stable wire encoding, and — load-bearing for the probeserved service —
// cancellation: a done context aborts mid-sweep promptly with ctx.Err()
// and leaves every Evaluator cache consistent for later callers. The
// cancellation tests are run under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"probequorum"
)

func TestQueryValidation(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx := context.Background()
	for name, q := range map[string]probequorum.Query{
		"no system":        {Measures: []probequorum.Measure{probequorum.MeasurePC}},
		"no measures":      {Spec: "maj:3"},
		"unknown measure":  {Spec: "maj:3", Measures: []probequorum.Measure{"zoom"}},
		"missing grid":     {Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePPC}},
		"p out of range":   {Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: []float64{1.5}},
		"negative trials":  {Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePC}, Trials: -1},
		"trials over cap":  {Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasureEstimate}, Ps: []float64{0.5}, Trials: probequorum.MaxQueryTrials + 1},
		"NaN probability":  {Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: []float64{math.NaN()}},
		"unparseable spec": {Spec: "grid:4", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	} {
		if _, err := eval.Do(ctx, q); err == nil {
			t.Errorf("%s: Do accepted %+v", name, q)
		}
	}
	// Measures are case-insensitive and deduplicated; a grid without any
	// p-dependent measure is inert.
	res, err := eval.Do(ctx, probequorum.Query{
		Spec:     "maj:3",
		Measures: []probequorum.Measure{"PC", "pc"},
		Ps:       []float64{0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PC == nil || *res.PC != 3 || len(res.Points) != 0 {
		t.Errorf("result = %+v, want pc=3 and no points", res)
	}
}

func TestDoBatchPerItemErrors(t *testing.T) {
	eval := probequorum.NewEvaluator()
	results, err := eval.DoBatch(context.Background(), []probequorum.Query{
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasurePC}},
		{Spec: "nope:2", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Error != "" || results[0].PC == nil || *results[0].PC != 5 {
		t.Errorf("healthy item: %+v", results[0])
	}
	if results[1].Error == "" || !strings.Contains(results[1].Error, "unknown construction") {
		t.Errorf("failed item: %+v", results[1])
	}
}

func TestDoBatchPreCancelled(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eval.DoBatch(ctx, []probequorum.Query{
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	})
	if !errors.Is(err, context.Canceled) || results != nil {
		t.Errorf("pre-cancelled batch: results=%v err=%v, want nil/Canceled", results, err)
	}
}

// TestDoBatchCancelMidSweep cancels a p-sweep whose full evaluation
// takes about a second and requires a prompt ctx.Err() return, then
// verifies the session's caches survived the abort unpolluted: the same
// Evaluator must afterwards answer the aborted queries bit-identically
// to a fresh session.
func TestDoBatchCancelMidSweep(t *testing.T) {
	eval := probequorum.NewEvaluator()
	// triang:5's 240 expectimax solves over its 31,500 class states take
	// milliseconds each and do not finish in 50ms, so the cancel lands
	// mid-batch; maj:13's 105 states solve in microseconds and add
	// nothing. The deadline below only guards promptness.
	ps := make([]float64, 240)
	for i := range ps {
		ps[i] = float64(i+1) / float64(len(ps)+1)
	}
	queries := []probequorum.Query{
		{Spec: "maj:13", Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: ps},
		{Spec: "triang:5", Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: ps},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, err := eval.DoBatch(ctx, queries)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v (results %v), want context.Canceled", err, results)
	}
	if elapsed > 30*time.Second {
		t.Errorf("cancelled batch took %v to return; not prompt", elapsed)
	}

	// Cache consistency: the aborted session answers the same measures
	// bit-identically to an untouched one. One grid point keeps the
	// -race run affordable; it hits the same memo paths as many.
	fresh := probequorum.NewEvaluator()
	check := probequorum.Query{
		Spec:     "maj:13",
		Measures: []probequorum.Measure{probequorum.MeasurePPC, probequorum.MeasureAvailability},
		Ps:       []float64{ps[0]},
	}
	got, err := eval.Do(context.Background(), check)
	if err != nil {
		t.Fatalf("post-cancel Do on the aborted session: %v", err)
	}
	want, err := fresh.Do(context.Background(), check)
	if err != nil {
		t.Fatalf("post-cancel Do on a fresh session: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("aborted session diverged from fresh session:\n%s\n%s", gotJSON, wantJSON)
	}
}

// TestCancelDuringTableBuildLeavesCacheClean aborts the very first
// artifact build (the witness table) and checks the entry is not
// poisoned with a cancellation error.
func TestCancelDuringTableBuildLeavesCacheClean(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := probequorum.Query{Spec: "cw:1,2,3,4", Measures: []probequorum.Measure{probequorum.MeasurePC}}
	if _, err := eval.Do(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, err := eval.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("Do after aborted table build: %v", err)
	}
	if res.PC == nil || *res.PC != 10 {
		t.Errorf("PC = %v, want 10 (CW systems are evasive)", res.PC)
	}
}

// TestEstimateCancellation aborts a Monte Carlo estimate mid-loop.
func TestEstimateCancellation(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := eval.Do(ctx, probequorum.Query{
		Spec:     "maj:101",
		Measures: []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:       []float64{0.5},
		Trials:   probequorum.MaxQueryTrials, // tens of seconds uncancelled
		Seed:     3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("estimate: err = %v, want context.Canceled", err)
	}
	// The session still estimates normally afterwards.
	res, err := eval.Do(context.Background(), probequorum.Query{
		Spec:     "maj:101",
		Measures: []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:       []float64{0.5},
		Trials:   2000,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := probequorum.MustParse("maj:101")
	mean, half, err := probequorum.EstimateAverageProbes(sys, 0.5, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est := res.Point(0.5).Estimate; est.Mean != mean || est.HalfCI != half {
		t.Errorf("post-cancel estimate %+v, façade (%v, %v)", est, mean, half)
	}
}

// TestResultWireEncoding pins the field names of the shared JSON
// encoding that probeserved, the client and quorumctl -json exchange.
func TestResultWireEncoding(t *testing.T) {
	eval := probequorum.NewEvaluator()
	res, err := eval.Do(context.Background(), probequorum.Query{
		Spec:     "maj:3",
		Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureEstimate},
		Ps:       []float64{0.5},
		Trials:   100,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"spec":"maj:3"`, `"name":"Maj(3)"`, `"n":3`, `"pc":3`, `"points":[`, `"p":0.5`, `"ppc":2.5`, `"mean":`, `"half_ci":`, `"trials":100`, `"seed":2`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("wire encoding missing %s:\n%s", key, data)
		}
	}
	var back probequorum.Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != res.Spec || *back.PC != *res.PC || *back.Points[0].PPC != *res.Points[0].PPC {
		t.Errorf("round trip lost data: %+v vs %+v", back, res)
	}
}

// TestBatchSharesSpecCache checks that two queries naming the same
// construction share one artifact cache entry: the second is answered
// from the memo, bit-identically.
func TestBatchSharesSpecCache(t *testing.T) {
	eval := probequorum.NewEvaluator()
	q := probequorum.Query{Spec: "maj:9", Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: []float64{0.3}}
	ctx := context.Background()
	results, err := eval.DoBatch(ctx, []probequorum.Query{q, q})
	if err != nil {
		t.Fatal(err)
	}
	if *results[0].Points[0].PPC != *results[1].Points[0].PPC {
		t.Errorf("same-spec queries disagree: %v vs %v", *results[0].Points[0].PPC, *results[1].Points[0].PPC)
	}
}
