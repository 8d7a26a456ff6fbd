package probequorum_test

// Tests for the streaming evaluation API: the Cell protocol, the
// determinism contract (cell sequences identical across parallelism),
// Do/DoBatch as folds over the streams, adaptive-precision stopping
// under Query.Tolerance, and — load-bearing for the probeserved
// /v1/stream endpoint — cancellation mid-stream leaving every session
// cache as if the query never ran. The cancellation and determinism
// tests run under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"probequorum"
)

// collectCells drains a stream into a cell slice, failing the test on a
// stream error.
func collectCells(t *testing.T, cells func(func(probequorum.Cell, error) bool)) []probequorum.Cell {
	t.Helper()
	var out []probequorum.Cell
	for c, err := range cells {
		if err != nil {
			t.Fatalf("stream error after %d cells: %v", len(out), err)
		}
		out = append(out, c)
	}
	return out
}

// TestStreamCellOrderDeterministic pins the determinism contract: the
// exact cell sequence of a batch stream — headers, values, estimate
// progress cells included — is byte-identical across parallelism
// settings, because emission follows the canonical (query, measure,
// point) order and every estimate checkpoint is a fixed trial prefix.
func TestStreamCellOrderDeterministic(t *testing.T) {
	queries := probequorum.SpecQueries(
		[]string{"maj:9", "wheel:8", "triang:4", "cw:1,3,2"},
		[]probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureAvailability, probequorum.MeasureEstimate},
		[]float64{0.2, 0.5},
	)
	for i := range queries {
		queries[i].Trials = 2000
		queries[i].Seed = 7
	}
	encode := func(cs []probequorum.Cell) string {
		var b strings.Builder
		for _, c := range cs {
			data, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
			b.WriteByte('\n')
		}
		return b.String()
	}
	var want string
	for _, par := range []int{1, 2, 8} {
		eval := probequorum.NewEvaluator(probequorum.WithParallelism(par))
		got := encode(collectCells(t, eval.StreamBatch(context.Background(), queries)))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("parallelism %d produced a different cell sequence", par)
		}
	}
	// The sequence is grouped by query index in query order.
	eval := probequorum.NewEvaluator()
	last := -1
	for _, c := range collectCells(t, eval.StreamBatch(context.Background(), queries)) {
		if c.Query < last {
			t.Fatalf("cell for query %d after query %d: emission not in query order", c.Query, last)
		}
		last = c.Query
	}
}

// TestStreamFoldMatchesDoBatch pins the single-evaluation-path
// guarantee at the façade: folding StreamBatch cells reproduces DoBatch
// bit for bit (DoBatch *is* that fold, so this guards the fold against
// drift), and a per-query failure becomes an error cell that folds into
// Result.Error without disturbing batch mates.
func TestStreamFoldMatchesDoBatch(t *testing.T) {
	queries := []probequorum.Query{
		{Spec: "maj:9", Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureTree}, Ps: []float64{0.3, 0.5}},
		{Spec: "nope:3", Measures: []probequorum.Measure{probequorum.MeasurePC}},
		{Spec: "wheel:8", Measures: []probequorum.Measure{probequorum.MeasureEstimate, probequorum.MeasureExpected}, Ps: []float64{0.4}, Trials: 1000, Seed: 5},
	}
	folded, err := probequorum.FoldCells(probequorum.NewEvaluator().StreamBatch(context.Background(), queries), len(queries))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := probequorum.NewEvaluator().DoBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		gotJSON, _ := json.Marshal(folded[i])
		wantJSON, _ := json.Marshal(direct[i])
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("query %d: fold %s != DoBatch %s", i, gotJSON, wantJSON)
		}
	}
	if folded[1].Error == "" || !strings.Contains(folded[1].Error, "unknown construction") {
		t.Errorf("failed query folded to %+v, want unknown-construction error", folded[1])
	}
}

// TestFoldCellsRejectsOutOfOrderPoint pins the fold's check of a cell's
// grid point. A valid stream emits each query's done cells in grid
// order, so a point below zero or beyond the next one is a malformed
// stream: the fold must refuse it with a *QueryError, on the p grid and
// on the read-fraction grid alike, instead of panicking or padding the
// result with empty points.
func TestFoldCellsRejectsOutOfOrderPoint(t *testing.T) {
	p, fr := 0.3, 0.5
	grids := []struct {
		name string
		cell func(point int) probequorum.Cell
	}{
		{"p", func(point int) probequorum.Cell {
			return probequorum.Cell{Measure: probequorum.MeasurePPC, P: &p, Point: point, Value: 1, Done: true}
		}},
		{"read-fraction", func(point int) probequorum.Cell {
			return probequorum.Cell{Measure: probequorum.MeasureLoad, ReadFraction: &fr, Point: point, Value: 1, Done: true}
		}},
	}
	fold := func(cell func(int) probequorum.Cell, points ...int) ([]*probequorum.Result, error) {
		cells := []probequorum.Cell{{Spec: "maj:3", Name: "Maj(3)", N: 3}}
		for _, pt := range points {
			cells = append(cells, cell(pt))
		}
		return probequorum.FoldCells(probequorum.CellSeq(cells), 1)
	}
	for _, g := range grids {
		for _, points := range [][]int{{-1}, {1}, {0, 0, 2}, {0, 1, 1000000}} {
			res, err := fold(g.cell, points...)
			var qe *probequorum.QueryError
			if !errors.As(err, &qe) {
				t.Errorf("%s grid, points %v: FoldCells = %v, %v; want a *QueryError", g.name, points, res, err)
			}
		}
		// Two measures per point, in grid order, still fold.
		res, err := fold(g.cell, 0, 0, 1, 1)
		if err != nil {
			t.Fatalf("%s grid, in-order points: %v", g.name, err)
		}
		if got := len(res[0].Points) + len(res[0].RWPoints); got != 2 {
			t.Errorf("%s grid, in-order points: folded %d points, want 2", g.name, got)
		}
	}
}

// TestStreamEstimateProgress checks the incremental contract of the
// estimate measure: progress cells stream before the final one, with
// monotonically increasing trial counts, each a prefix of the same
// deterministic trial sequence, and the final Done cell matching the
// fixed-trial façade estimate exactly.
func TestStreamEstimateProgress(t *testing.T) {
	const trials, seed = 4096, 7
	eval := probequorum.NewEvaluator()
	cells := collectCells(t, eval.Stream(context.Background(), probequorum.Query{
		Spec:     "maj:63",
		Measures: []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:       []float64{0.5},
		Trials:   trials,
		Seed:     seed,
	}))
	if cells[0].Measure != "" || cells[0].Name != "Maj(63)" || cells[0].N != 63 || cells[0].Trials != trials || cells[0].Seed != seed {
		t.Fatalf("header cell = %+v", cells[0])
	}
	var progress []probequorum.Cell
	var final *probequorum.Cell
	for i := range cells[1:] {
		c := cells[1+i]
		if c.Measure != probequorum.MeasureEstimate || c.P == nil || *c.P != 0.5 {
			t.Fatalf("unexpected cell %+v", c)
		}
		if c.Done {
			final = &c
		} else {
			progress = append(progress, c)
		}
	}
	if len(progress) < 3 {
		t.Fatalf("only %d progress cells for %d trials, want several", len(progress), trials)
	}
	lastTrials := 0
	for _, c := range progress {
		if c.Trials <= lastTrials {
			t.Errorf("progress trials not increasing: %d after %d", c.Trials, lastTrials)
		}
		lastTrials = c.Trials
		if c.HalfCI <= 0 || c.StdErr <= 0 {
			t.Errorf("progress cell without CI: %+v", c)
		}
		// Each progress value is the exact prefix estimate.
		sys := probequorum.MustParse("maj:63")
		mean, half, err := probequorum.EstimateAverageProbes(sys, 0.5, c.Trials, seed)
		if err != nil {
			t.Fatal(err)
		}
		if c.Value != mean || c.HalfCI != half {
			t.Errorf("progress at %d trials (%v, %v) != prefix estimate (%v, %v)", c.Trials, c.Value, c.HalfCI, mean, half)
		}
	}
	if final == nil {
		t.Fatal("no final estimate cell")
	}
	mean, half, err := probequorum.EstimateAverageProbes(probequorum.MustParse("maj:63"), 0.5, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	if final.Value != mean || final.HalfCI != half || final.Trials != trials {
		t.Errorf("final cell (%v, %v, %d) != façade (%v, %v, %d)", final.Value, final.HalfCI, final.Trials, mean, half, trials)
	}
}

// adaptiveSpecs is one spec per registered construction at two scales:
// one-word universes around n=64 and wide universes around n=1025,
// exactly the adaptive-stopping matrix the streaming API serves.
var adaptiveSpecs = map[string][]string{
	"n~64": {
		"maj:63", "wheel:64", "cw:1,3,5,7,9,11,13,15", "tree:5", "hqs:4",
		"vote:" + onesVote(32, 63), "recmaj:3x4", "triang:10",
	},
	"n~1025": {
		"maj:1025", "wheel:1025", "cw:" + longWall(45), "tree:9", "hqs:6",
		"vote:" + onesVote(512, 1023), "recmaj:3x6", "triang:45",
	},
}

// onesVote builds a vote spec of hub weight plus n unit weights.
func onesVote(hub, n int) string {
	parts := make([]string, n+1)
	parts[0] = fmt.Sprint(hub)
	for i := 1; i <= n; i++ {
		parts[i] = "1"
	}
	return strings.Join(parts, ",")
}

// longWall builds a crumbling wall of k rows with widths 1,3,5,...
func longWall(k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = fmt.Sprint(2*i + 1)
	}
	return strings.Join(parts, ",")
}

// TestAdaptiveAgreesWithFixed is the adaptive-stopping correctness gate:
// for every construction at both scales, the tolerance-stopped estimate
// agrees with the fixed-trial estimate within the sum of their reported
// 95% confidence half-intervals, stops on a chunk boundary at or past
// the minimum prefix, and achieves its tolerance when it stops before
// the budget.
func TestAdaptiveAgreesWithFixed(t *testing.T) {
	const fixedTrials, seed = 2000, 7
	eval := probequorum.NewEvaluator()
	for scale, specs := range adaptiveSpecs {
		for _, spec := range specs {
			sys := probequorum.MustParse(spec)
			mean, half, err := probequorum.EstimateAverageProbes(sys, 0.5, fixedTrials, seed)
			if err != nil {
				t.Fatalf("%s %s: fixed estimate: %v", scale, spec, err)
			}
			// Target a precision the budget comfortably reaches: twice
			// the fixed run's achieved half-interval.
			tol := 2 * half
			res, err := eval.Do(context.Background(), probequorum.Query{
				Spec:      spec,
				Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
				Ps:        []float64{0.5},
				Trials:    fixedTrials,
				Seed:      seed,
				Tolerance: tol,
			})
			if err != nil {
				t.Fatalf("%s %s: adaptive query: %v", scale, spec, err)
			}
			est := res.Points[0].Estimate
			if est.Trials < 256 || est.Trials > fixedTrials {
				t.Errorf("%s %s: stopped at %d trials, want within [256, %d]", scale, spec, est.Trials, fixedTrials)
			}
			if est.Trials%64 != 0 && est.Trials != fixedTrials {
				t.Errorf("%s %s: stop point %d not a chunk boundary", scale, spec, est.Trials)
			}
			if est.Trials < fixedTrials && est.HalfCI > tol {
				t.Errorf("%s %s: stopped early at %d trials with half-CI %v > tolerance %v", scale, spec, est.Trials, est.HalfCI, tol)
			}
			if diff := est.Mean - mean; diff > est.HalfCI+half || -diff > est.HalfCI+half {
				t.Errorf("%s %s: adaptive %v±%v vs fixed %v±%v disagree beyond CI", scale, spec, est.Mean, est.HalfCI, mean, half)
			}
		}
	}
}

// TestAdaptiveStopsBeforeBudget is the acceptance-criteria shape: a
// tolerance-driven estimate with no explicit trial count runs against
// the MaxQueryTrials budget and stops far before it.
func TestAdaptiveStopsBeforeBudget(t *testing.T) {
	eval := probequorum.NewEvaluator()
	res, err := eval.Do(context.Background(), probequorum.Query{
		Spec:      "maj:1025",
		Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:        []float64{0.5},
		Seed:      11,
		Tolerance: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != probequorum.MaxQueryTrials {
		t.Errorf("adaptive budget = %d, want MaxQueryTrials", res.Trials)
	}
	est := res.Points[0].Estimate
	if est.Trials >= 10000 {
		t.Errorf("tolerance 2.0 consumed %d trials; expected to stop within a few hundred", est.Trials)
	}
	if est.HalfCI > 2.0 {
		t.Errorf("achieved half-CI %v exceeds tolerance 2.0", est.HalfCI)
	}
	// The stopping point is deterministic: a second session stops at the
	// same trial count with the same mean.
	again, err := probequorum.NewEvaluator(probequorum.WithParallelism(1)).Do(context.Background(), probequorum.Query{
		Spec:      "maj:1025",
		Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:        []float64{0.5},
		Seed:      11,
		Tolerance: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	est2 := again.Points[0].Estimate
	if est2.Trials != est.Trials || est2.Mean != est.Mean || est2.HalfCI != est.HalfCI {
		t.Errorf("adaptive stop not deterministic across parallelism: %+v vs %+v", est, est2)
	}
}

// fixedGoldens pins the estimate values of the pre-streaming engine
// (PR 4): the chunked in-order accumulation behind the streaming API
// must reproduce them bit for bit whenever Tolerance <= 0.
var fixedGoldens = []struct {
	spec   string
	p      float64
	trials int
	seed   uint64
	mean   float64
	half   float64
}{
	{"maj:63", 0.5, 2000, 7, 57.79199999999994, 0.18277876727125886},
	{"maj:1025", 0.5, 400, 11, 1000.6375000000003, 1.7393331187744252},
	{"wheel:64", 0.3, 2000, 7, 3.041499999999999, 0.08132669158206918},
	{"tree:5", 0.5, 2000, 7, 21.151500000000016, 0.4187750991047743},
	{"cw:1,3,5,7,9,11,13,15", 0.5, 2000, 7, 14.74150000000002, 0.15180978877932816},
	{"hqs:3", 0.5, 2000, 7, 15.613000000000001, 0.17228717769036983},
	{"recmaj:3x4", 0.5, 2000, 7, 39.40849999999998, 0.43196690666925264},
}

// TestToleranceZeroBitIdenticalToPR4Goldens pins fixed-trial behavior
// against literal values recorded from the PR 4 engine: Tolerance <= 0
// must answer exactly what the pre-streaming evaluator answered.
func TestToleranceZeroBitIdenticalToPR4Goldens(t *testing.T) {
	eval := probequorum.NewEvaluator()
	for _, g := range fixedGoldens {
		for _, tol := range []float64{0, -1} {
			res, err := eval.Do(context.Background(), probequorum.Query{
				Spec:      g.spec,
				Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
				Ps:        []float64{g.p},
				Trials:    g.trials,
				Seed:      g.seed,
				Tolerance: tol,
			})
			if err != nil {
				t.Fatalf("%s: %v", g.spec, err)
			}
			est := res.Points[0].Estimate
			if est.Mean != g.mean || est.HalfCI != g.half {
				t.Errorf("%s tol=%v: (%v, %v) != PR 4 golden (%v, %v)", g.spec, tol, est.Mean, est.HalfCI, g.mean, g.half)
			}
			if est.Trials != g.trials || res.Trials != g.trials {
				t.Errorf("%s tol=%v: consumed %d/%d trials, want the full %d", g.spec, tol, est.Trials, res.Trials, g.trials)
			}
		}
	}
}

// TestStreamCancelMidStream cancels a consumer mid-iteration and
// verifies the streaming path honors the same cache-consistency contract
// as Do: the aborted session afterwards answers bit-identically to a
// fresh one, as if the cancelled stream never ran. As in
// TestDoBatchCancelMidSweep, triang:5's 240 solves of milliseconds each
// keep the stream running past the 50ms cancel; maj:13's solve in
// microseconds.
func TestStreamCancelMidStream(t *testing.T) {
	eval := probequorum.NewEvaluator()
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
	var streamErr error
	cellCount := 0
	for _, err := range eval.StreamBatch(ctx, queries) {
		if err != nil {
			streamErr = err
			break
		}
		cellCount++
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("cancelled stream: err = %v after %d cells, want context.Canceled", streamErr, cellCount)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancelled stream took %v to end; not prompt", elapsed)
	}

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

// TestStreamConsumerBreak stops consuming after the first cell; the
// producers must unwind without leaking goroutines or poisoning caches,
// and a later query on the same session must evaluate normally.
func TestStreamConsumerBreak(t *testing.T) {
	eval := probequorum.NewEvaluator()
	queries := probequorum.SpecQueries(
		[]string{"maj:11", "triang:4", "wheel:10"},
		[]probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC},
		[]float64{0.2, 0.5},
	)
	seen := 0
	for c, err := range eval.StreamBatch(context.Background(), queries) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		_ = c
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("consumed %d cells, want 1", seen)
	}
	res, err := eval.Do(context.Background(), probequorum.Query{
		Spec: "maj:11", Measures: []probequorum.Measure{probequorum.MeasurePC},
	})
	if err != nil || *res.PC != 11 {
		t.Errorf("session unusable after consumer break: res=%+v err=%v", res, err)
	}
}

// TestStreamPreCancelled mirrors TestDoBatchPreCancelled for streams.
func TestStreamPreCancelled(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got error
	for _, err := range eval.StreamBatch(ctx, []probequorum.Query{
		{Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	}) {
		got = err
	}
	if !errors.Is(got, context.Canceled) {
		t.Errorf("pre-cancelled stream yielded err %v, want context.Canceled", got)
	}
}

// TestStreamEstimateCancellation aborts an adaptive estimate mid-loop
// through the streaming path and checks the session estimates normally
// afterwards (no cache poisoning from the aborted trial loop).
func TestStreamEstimateCancellation(t *testing.T) {
	eval := probequorum.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	var streamErr error
	for _, err := range eval.Stream(ctx, probequorum.Query{
		Spec:      "maj:101",
		Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:        []float64{0.5},
		Tolerance: 1e-9, // unreachable: runs against the full MaxQueryTrials budget
		Seed:      3,
	}) {
		if err != nil {
			streamErr = err
		}
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream err = %v, want context.Canceled", streamErr)
	}
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
	mean, half, err := probequorum.EstimateAverageProbes(probequorum.MustParse("maj:101"), 0.5, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est := res.Point(0.5).Estimate; est.Mean != mean || est.HalfCI != half {
		t.Errorf("post-cancel estimate %+v, façade (%v, %v)", est, mean, half)
	}
}

// TestStreamCapacityErrorsDeterministic pins that a query with more than
// one bad capacity vector always fails with the same text: the roles are
// checked in a fixed order, read before write, so a retried batch gets
// the same bytes back.
func TestStreamCapacityErrorsDeterministic(t *testing.T) {
	eval := probequorum.NewEvaluator()
	for name, q := range map[string]probequorum.Query{
		"lengths": {Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureLoad},
			ReadFractions: []float64{0.5}, Capacities: []float64{1, 1, 1}},
		"values": {Spec: "maj:5", Measures: []probequorum.Measure{probequorum.MeasureLoad},
			ReadFractions: []float64{0.5}, ReadCapacities: []float64{-1}, WriteCapacities: []float64{0}},
	} {
		texts := map[string]int{}
		for i := 0; i < 64; i++ {
			_, err := eval.Do(context.Background(), q)
			if err == nil {
				t.Fatalf("%s: query succeeded", name)
			}
			texts[err.Error()]++
		}
		if len(texts) != 1 {
			t.Errorf("%s: 64 runs gave %d error texts: %v", name, len(texts), texts)
		}
	}
}
