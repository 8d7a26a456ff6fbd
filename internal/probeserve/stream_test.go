package probeserve_test

// Tests for the /v1/stream NDJSON endpoint: the golden wire format
// (field order, cell/done/error frames), the façade↔server equivalence
// (folding stream cells reproduces /v1/eval bit for bit for every
// registered construction), and — run under -race in CI — client
// disconnect mid-stream cancelling the evaluation while leaving the
// shared Evaluator's caches exactly as if the queries never ran, with
// the stream ending in a terminal error frame rather than silent EOF.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"probequorum"
	"probequorum/internal/probeserve"
)

// postStream submits a stream request and returns the raw NDJSON lines.
func postStream(t *testing.T, ts *httptest.Server, req probeserve.EvalRequest) []string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stream status = %s", res.Status)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []string
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// parseFrames decodes NDJSON lines into frames.
func parseFrames(t *testing.T, lines []string) []probeserve.StreamFrame {
	t.Helper()
	frames := make([]probeserve.StreamFrame, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &frames[i]); err != nil {
			t.Fatalf("frame %d %q: %v", i, line, err)
		}
	}
	return frames
}

// TestStreamNDJSONGolden pins the exact wire bytes of a deterministic
// stream: field names, field order, which zero fields are omitted, and
// the terminal done frame. Every value in the query below is exactly
// representable, so the encoding is stable byte for byte.
func TestStreamNDJSONGolden(t *testing.T) {
	ts := newTestServer(t)
	lines := postStream(t, ts, probeserve.EvalRequest{Queries: []probequorum.Query{{
		Spec:     "maj:3",
		Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureAvailability},
		Ps:       []float64{0.5},
	}}})
	want := []string{
		`{"cell":{"query":0,"spec":"maj:3","name":"Maj(3)","n":3,"value":0,"done":false}}`,
		`{"cell":{"query":0,"spec":"maj:3","measure":"pc","value":3,"done":true}}`,
		`{"cell":{"query":0,"spec":"maj:3","measure":"ppc","p":0.5,"value":2.5,"done":true}}`,
		`{"cell":{"query":0,"spec":"maj:3","measure":"availability","p":0.5,"value":0.5,"done":true}}`,
		`{"done":{"cells":4,"queries":1}}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d frames, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("frame %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// TestStreamErrorCellFrame pins the failed-query shape: a bad spec
// produces a terminal error cell for its query — batch mates unharmed —
// and the stream still ends with a done frame.
func TestStreamErrorCellFrame(t *testing.T) {
	ts := newTestServer(t)
	lines := postStream(t, ts, probeserve.EvalRequest{Queries: []probequorum.Query{
		{Spec: "nope:1", Measures: []probequorum.Measure{probequorum.MeasurePC}},
		{Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	}})
	frames := parseFrames(t, lines)
	if len(frames) < 2 {
		t.Fatalf("too few frames: %v", lines)
	}
	errCell := frames[0].Cell
	if errCell == nil || errCell.Query != 0 || errCell.Err == "" || !errCell.Done {
		t.Errorf("first frame = %s, want terminal error cell for query 0", lines[0])
	}
	if !strings.Contains(errCell.Err, "unknown construction") {
		t.Errorf("error cell message %q, want unknown construction", errCell.Err)
	}
	last := frames[len(frames)-1]
	if last.Done == nil || last.Done.Queries != 2 {
		t.Errorf("terminal frame = %s, want done frame over 2 queries", lines[len(lines)-1])
	}
	// The healthy batch mate still answered.
	foundPC := false
	for _, f := range frames {
		if f.Cell != nil && f.Cell.Query == 1 && f.Cell.Measure == probequorum.MeasurePC {
			foundPC = true
		}
	}
	if !foundPC {
		t.Error("no pc cell for the healthy query 1")
	}
}

// TestStreamFoldBitIdenticalToEval is the façade↔server acceptance gate
// of the streaming API: folding the /v1/stream cells reproduces the
// /v1/eval Result byte for byte for every registered construction.
func TestStreamFoldBitIdenticalToEval(t *testing.T) {
	ts := newTestServer(t)
	const trials, seed = 1000, 7
	ps := []float64{0.1, 0.5}
	queries := make([]probequorum.Query, len(sevenSpecs))
	for i, s := range sevenSpecs {
		queries[i] = probequorum.Query{
			Spec:     s,
			Measures: probequorum.AllMeasures(),
			Ps:       ps,
			Trials:   trials,
			Seed:     seed,
		}
	}
	frames := parseFrames(t, postStream(t, ts, probeserve.EvalRequest{Queries: queries}))
	if frames[len(frames)-1].Done == nil {
		t.Fatal("stream did not end with a done frame")
	}
	cells := make([]probequorum.Cell, 0, len(frames))
	for _, f := range frames {
		if f.Cell != nil {
			cells = append(cells, *f.Cell)
		}
	}
	folded, err := probequorum.FoldCells(probequorum.CellSeq(cells), len(queries))
	if err != nil {
		t.Fatal(err)
	}

	_, evalOut := postEval(t, ts, probeserve.EvalRequest{Queries: queries})
	if len(evalOut.Results) != len(folded) {
		t.Fatalf("eval answered %d results, fold %d", len(evalOut.Results), len(folded))
	}
	for i, s := range sevenSpecs {
		foldJSON, _ := json.Marshal(folded[i])
		evalJSON, _ := json.Marshal(evalOut.Results[i])
		if string(foldJSON) != string(evalJSON) {
			t.Errorf("%s: folded stream != /v1/eval:\nfold: %s\neval: %s", s, foldJSON, evalJSON)
		}
	}
}

// TestStreamDisconnectCancelsAndLeavesCachesClean drives the handler
// directly with a cancellable request context — the client-disconnect
// path — over a p-sweep too slow to finish: the handler must return
// promptly with a terminal error frame (not silent EOF), and the shared
// Evaluator must afterwards answer as if the aborted queries never ran,
// bit-identically to a fresh session. Each of triang:5's 240 expectimax
// solves takes milliseconds (31,500 class states), so the sweep outlasts
// the 50ms before the disconnect.
func TestStreamDisconnectCancelsAndLeavesCachesClean(t *testing.T) {
	shared := probequorum.NewEvaluator()
	handler := probeserve.New(shared).Handler()

	ps := make([]float64, 240)
	for i := range ps {
		ps[i] = float64(i+1) / float64(len(ps)+1)
	}
	body, err := json.Marshal(probeserve.EvalRequest{Queries: []probequorum.Query{
		{Spec: "triang:5", Measures: []probequorum.Measure{probequorum.MeasurePPC}, Ps: ps},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	handler.ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("disconnected stream handler took %v to return; not prompt", elapsed)
	}

	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var last probeserve.StreamFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("terminal line %q: %v", lines[len(lines)-1], err)
	}
	if last.Error == "" || !strings.Contains(last.Error, "context canceled") {
		t.Errorf("terminal frame = %q, want an error frame carrying the cancellation", lines[len(lines)-1])
	}

	// Cache consistency: the shared session answers bit-identically to a
	// fresh one after the abort.
	check := probequorum.Query{
		Spec:     "triang:5",
		Measures: []probequorum.Measure{probequorum.MeasurePPC, probequorum.MeasureAvailability},
		Ps:       []float64{ps[0]},
	}
	got, err := shared.Do(context.Background(), check)
	if err != nil {
		t.Fatalf("post-disconnect Do on the shared session: %v", err)
	}
	want, err := probequorum.NewEvaluator().Do(context.Background(), check)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("shared session diverged after disconnect:\n%s\n%s", gotJSON, wantJSON)
	}
}

// TestStreamBadRequests mirrors the /v1/eval validation on /v1/stream:
// malformed bodies are refused with a 400 JSON error before any NDJSON
// is written.
func TestStreamBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for name, body := range map[string]string{
		"empty batch": `{"queries":[]}`,
		"not json":    `{"queries":`,
	} {
		res, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e probeserve.ErrorResponse
		json.NewDecoder(res.Body).Decode(&e)
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status = %s, error = %q; want 400 with message", name, res.Status, e.Error)
		}
	}
}

// TestStreamAdaptiveOverWire runs a tolerance-driven estimate through
// the NDJSON endpoint: progress cells refine monotonically and the
// final cell stops before the budget with the achieved CI recorded.
func TestStreamAdaptiveOverWire(t *testing.T) {
	ts := newTestServer(t)
	frames := parseFrames(t, postStream(t, ts, probeserve.EvalRequest{Queries: []probequorum.Query{{
		Spec:      "maj:65",
		Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
		Ps:        []float64{0.5},
		Seed:      7,
		Tolerance: 0.5,
	}}}))
	lastTrials, progress := 0, 0
	var final *probequorum.Cell
	for _, f := range frames {
		c := f.Cell
		if c == nil || c.Measure != probequorum.MeasureEstimate {
			continue
		}
		if c.Trials <= lastTrials {
			t.Errorf("estimate cells not refining: %d after %d trials", c.Trials, lastTrials)
		}
		lastTrials = c.Trials
		if c.Done {
			final = c
		} else {
			progress++
		}
	}
	if progress == 0 || final == nil {
		t.Fatalf("got %d progress cells, final %v; want both", progress, final)
	}
	if final.HalfCI > 0.5 {
		t.Errorf("achieved half-CI %v exceeds tolerance 0.5", final.HalfCI)
	}
	if final.Trials >= probequorum.MaxQueryTrials {
		t.Errorf("adaptive run consumed the whole %d budget", final.Trials)
	}
}
