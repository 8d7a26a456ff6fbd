package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"probequorum"
	"probequorum/client"
	"probequorum/internal/probeserve"
)

func newPair(t *testing.T) *client.Client {
	t.Helper()
	ts := httptest.NewServer(probeserve.New(nil).Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

func TestEvalRoundTrip(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	results, err := c.Eval(ctx, []probequorum.Query{
		{
			Spec:     "maj:7",
			Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureAvailability},
			Ps:       []float64{0.5},
		},
		{Spec: "bogus:1", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	maj := probequorum.MustParse("maj:7")
	pc, _ := probequorum.ProbeComplexity(maj)
	ppc, _ := probequorum.AverageProbeComplexity(maj, 0.5)
	avail := probequorum.Availability(maj, 0.5)
	r := results[0]
	if r.Error != "" || r.PC == nil || *r.PC != pc {
		t.Errorf("remote PC = %+v, want %d", r, pc)
	}
	if pt := r.Point(0.5); pt == nil || pt.PPC == nil || *pt.PPC != ppc || pt.Availability == nil || *pt.Availability != avail {
		t.Errorf("remote point = %+v, want ppc=%v avail=%v", r.Point(0.5), ppc, avail)
	}
	if results[1].Error == "" {
		t.Errorf("bad spec should fail in its Result: %+v", results[1])
	}
}

// TestEvalPlannerRoundTrip pins the PR 7 planner measures through the
// client: load, capacity and resilience of a read/write pair round-trip
// the wire bit-identically to the local façade, and the streamed cells
// match the local stream frame for frame.
func TestEvalPlannerRoundTrip(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	queries := []probequorum.Query{{
		Spec:          "grid:2x3",
		Measures:      []probequorum.Measure{probequorum.MeasureLoad, probequorum.MeasureCapacity, probequorum.MeasureResilience},
		ReadFractions: []float64{0.25, 0.75},
	}}
	results, err := c.Eval(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Error != "" {
		t.Fatalf("remote planner query failed: %s", r.Error)
	}
	sys := probequorum.MustParse("grid:2x3")
	wantRes, err := probequorum.Resilience(sys)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resilience == nil || *r.Resilience != wantRes {
		t.Errorf("remote resilience = %+v, want %d", r.Resilience, wantRes)
	}
	if len(r.RWPoints) != 2 {
		t.Fatalf("got %d rw points, want 2", len(r.RWPoints))
	}
	for _, fr := range []float64{0.25, 0.75} {
		pt := r.RWPoint(fr)
		if pt == nil {
			t.Fatalf("no rw point at read fraction %v", fr)
		}
		w := probequorum.Workload{ReadFraction: fr}
		s, err := probequorum.OptimizeStrategy(sys, probequorum.StrategyOptions{Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		load, err := s.Load(w)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Load == nil || *pt.Load != load || pt.Capacity == nil || *pt.Capacity != 1/load {
			t.Errorf("fr=%v: remote point %+v, want load=%v capacity=%v", fr, pt, load, 1/load)
		}
	}
	var remote, local []probequorum.Cell
	for cell, err := range c.StreamEval(ctx, queries) {
		if err != nil {
			t.Fatal(err)
		}
		remote = append(remote, cell)
	}
	for cell, err := range probequorum.NewEvaluator().StreamBatch(ctx, queries) {
		if err != nil {
			t.Fatal(err)
		}
		local = append(local, cell)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote stream has %d cells, local %d", len(remote), len(local))
	}
	for i := range remote {
		rj, _ := json.Marshal(remote[i])
		lj, _ := json.Marshal(local[i])
		if string(rj) != string(lj) {
			t.Errorf("cell %d differs:\nremote %s\nlocal  %s", i, rj, lj)
		}
	}
}

func TestEvalRejectsSystemValues(t *testing.T) {
	c := newPair(t)
	sys := probequorum.MustParse("maj:3")
	_, err := c.Eval(context.Background(), []probequorum.Query{
		{System: sys, Measures: []probequorum.Measure{probequorum.MeasurePC}},
	})
	if err == nil || !strings.Contains(err.Error(), "Spec") {
		t.Errorf("err = %v, want a Spec-required error", err)
	}
	var reqErr *client.RequestError
	if !errors.As(err, &reqErr) {
		t.Errorf("err = %T, want *client.RequestError", err)
	}
}

func TestSystemsRenderHealth(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	specs, err := c.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := probequorum.SpecNames()
	if len(specs) != len(want) {
		t.Errorf("Systems = %v, want %v", specs, want)
	}
	art, err := c.Render(ctx, "maj:5")
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := probequorum.RenderSystem(probequorum.MustParse("maj:5"), nil)
	if art != direct {
		t.Errorf("Render = %q, want %q", art, direct)
	}
	if _, err := c.Render(ctx, "nope:1"); err == nil || !strings.Contains(err.Error(), "unknown construction") {
		t.Errorf("Render of bad spec: err = %v, want server message", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Errorf("Health: %v", err)
	}
}

func TestServerGone(t *testing.T) {
	ts := httptest.NewServer(probeserve.New(nil).Handler())
	c := client.New(ts.URL)
	ts.Close()
	if err := c.Health(context.Background()); err == nil {
		t.Error("Health against a closed server should fail")
	}
}

// TestStreamEvalMatchesLocal pins remote streaming against the local
// iterator: the cells StreamEval yields are exactly what a local
// StreamBatch produces (same canonical order, same values), and folding
// them reproduces the Eval results.
func TestStreamEvalMatchesLocal(t *testing.T) {
	c := newPair(t)
	queries := []probequorum.Query{
		{
			Spec:     "maj:9",
			Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureEstimate},
			Ps:       []float64{0.2, 0.5},
			Trials:   1000,
			Seed:     7,
		},
		{Spec: "wheel:8", Measures: []probequorum.Measure{probequorum.MeasureAvailability}, Ps: []float64{0.3}},
	}
	var remote []probequorum.Cell
	for cell, err := range c.StreamEval(context.Background(), queries) {
		if err != nil {
			t.Fatalf("stream error after %d cells: %v", len(remote), err)
		}
		remote = append(remote, cell)
	}
	var local []probequorum.Cell
	for cell, err := range probequorum.NewEvaluator().StreamBatch(context.Background(), queries) {
		if err != nil {
			t.Fatal(err)
		}
		local = append(local, cell)
	}
	if len(remote) != len(local) {
		t.Fatalf("remote stream has %d cells, local %d", len(remote), len(local))
	}
	for i := range remote {
		rj, _ := json.Marshal(remote[i])
		lj, _ := json.Marshal(local[i])
		if string(rj) != string(lj) {
			t.Errorf("cell %d differs:\nremote %s\nlocal  %s", i, rj, lj)
		}
	}

	folded, err := probequorum.FoldCells(probequorum.CellSeq(remote), len(queries))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := c.Eval(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		fj, _ := json.Marshal(folded[i])
		dj, _ := json.Marshal(direct[i])
		if string(fj) != string(dj) {
			t.Errorf("query %d: folded stream != Eval:\n%s\n%s", i, fj, dj)
		}
	}
}

func TestStreamEvalRejectsSystemValues(t *testing.T) {
	c := newPair(t)
	var got error
	for _, err := range c.StreamEval(context.Background(), []probequorum.Query{
		{System: probequorum.MustParse("maj:3"), Measures: []probequorum.Measure{probequorum.MeasurePC}},
	}) {
		got = err
	}
	if got == nil || !strings.Contains(got.Error(), "Spec") {
		t.Errorf("err = %v, want a Spec-required error", got)
	}
	var reqErr *client.RequestError
	if !errors.As(got, &reqErr) {
		t.Errorf("err = %T, want *client.RequestError", got)
	}
}

// TestStreamEvalTerminalFrames pins the client's handling of the three
// stream endings: an error frame surfaces as the terminal iterator
// error, EOF without a terminal frame reports ErrStreamTruncated, and a
// line beyond the reader bound fails loudly instead of being split.
func TestStreamEvalTerminalFrames(t *testing.T) {
	cases := map[string]struct {
		body    string
		wantErr string
	}{
		"error frame": {
			body:    `{"cell":{"query":0,"value":0,"done":false}}` + "\n" + `{"error":"context canceled"}` + "\n",
			wantErr: "stream failed: context canceled",
		},
		"silent EOF": {
			body:    `{"cell":{"query":0,"value":0,"done":false}}` + "\n",
			wantErr: client.ErrStreamTruncated.Error(),
		},
		"empty frame": {
			body:    `{}` + "\n",
			wantErr: "empty stream frame",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			var got error
			for _, err := range client.New(ts.URL).StreamEval(context.Background(), []probequorum.Query{
				{Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePC}},
			}) {
				if err != nil {
					got = err
				}
			}
			if got == nil || !strings.Contains(got.Error(), tc.wantErr) {
				t.Errorf("err = %v, want containing %q", got, tc.wantErr)
			}
		})
	}
}

// TestStreamEvalBoundedLineReader feeds a frame far beyond the line
// bound; the iterator must fail with a read error rather than hang or
// mis-parse.
func TestStreamEvalBoundedLineReader(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"cell":{"query":0,"spec":"`))
		filler := bytes.Repeat([]byte("x"), 1<<20)
		for i := 0; i < 9; i++ {
			w.Write(filler)
		}
		w.Write([]byte(`","value":0,"done":false}}` + "\n"))
	}))
	defer ts.Close()
	var got error
	for _, err := range client.New(ts.URL).StreamEval(context.Background(), []probequorum.Query{
		{Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePC}},
	}) {
		if err != nil {
			got = err
		}
	}
	if got == nil || !strings.Contains(got.Error(), "read stream") {
		t.Errorf("err = %v, want a bounded-read failure", got)
	}
}

// TestStreamEvalBreakCancelsServer breaks out of the iteration after
// the first cell; the deferred body close must cancel the server-side
// evaluation (observable as the shared session staying consistent) and
// later calls must work.
func TestStreamEvalBreakCancelsServer(t *testing.T) {
	c := newPair(t)
	queries := []probequorum.Query{{
		Spec:     "maj:11",
		Measures: []probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC},
		Ps:       []float64{0.1, 0.2, 0.3},
	}}
	seen := 0
	for _, err := range c.StreamEval(context.Background(), queries) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("consumed %d cells, want 1", seen)
	}
	results, err := c.Eval(context.Background(), queries)
	if err != nil || results[0].Error != "" {
		t.Errorf("Eval after broken stream: results=%+v err=%v", results, err)
	}
}
