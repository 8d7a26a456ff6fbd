package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	pq "probequorum"
	"probequorum/internal/coloring"
	"probequorum/internal/des"
	"probequorum/internal/probe"
	"probequorum/internal/probeserve"
	"probequorum/internal/quorum"
	"probequorum/internal/sim"
	"probequorum/internal/stats"
	"probequorum/internal/strategy"
)

// The traced run replays the first traceReqs requests of the workload's
// sequence, one at a time, down a ladder of public entry points. Every
// rung starts from the same cache state: a fresh system with the
// workload's setup replayed.
//
//	rung 1  client → loopback HTTP → probeserve handler (run untraced and
//	        traced; the traced run records the handler span and its
//	        socket writes through middleware)
//	rung 2  probeserve Handler().ServeHTTP with an in-memory writer
//	rung 3  Evaluator.DoBatch / StreamBatch
//	rung 4  tier and engine calls: Evaluator.{ProbeComplexity,
//	        AverageProbeComplexity,Availability}Ctx, StrategyCtx, the
//	        approx lookup, sim.EstimateAdaptiveCtx over the words trial
//	        loop, des.RunCtx; every estimate and timed run is compared
//	        bit for bit with the answer rung 1 served
//	rung 5  below the tiers: quorum.BuildWitnessTableCtx and
//	        strategy.Optimal{PPC,PC}WithTableCtx (cold-sweep), or the
//	        primitives coloring.IIDWordsInto + ProbeWitnessWords for the
//	        trials rung 4 ran (estimate-wide); timed-sim has none, as
//	        des.RunCtx drives its own colorings and witness search
//
// Per request, a layer's self time is its rung minus the rung below:
// client = client span − handler span (rung 1), probeserve = rung 2 −
// rung 3 + the handler's socket time, evaluator = rung 3 − rung 4, the
// tiers (or sim, or des) = rung 4 − rung 5, and rung 5 itself. Because
// the differences telescope, a request's self times add up to its traced
// top rung exactly when the in-memory handler (rung 2) plus its socket
// time accounts for the handler span of rung 1. trace.closure_error is
// the median over requests of the signed miss, as a share of the median
// top rung, and tests that pair alone; each rung runs on a system of its
// own, so one request's miss is mostly noise, and its median is not.
// The other rungs are held by two rules: no layer's median self time may
// be negative beyond selfSlack of the top rung, and rung 4's Monte Carlo
// and timed answers must equal the served ones. A run that breaks either
// rule, or whose closure error exceeds maxClosure, fails.
type ladder struct {
	w    *workload
	p    *plan
	reqs []request
	tmp  string
	n    int

	top0, top1, handler, wire, r2, r3, r4, r5 []time.Duration
	first3                                    []time.Duration
	spans                                     []span

	attempts, bytes, flushes, cells3, allocs3 int64
	queries                                   int
	// served holds rung 1's traced answers, engine4 rung 4's estimates
	// and timed runs, per request, for the bit-for-bit comparison.
	served  [][]*pq.Result
	engine4 [][]engineAnswer
	// c0 and c1 are the traced rung-1 system's counters around the
	// replay.
	c0, c1    counters
	memoHitNS []float64

	// Engine-level accounting from rungs 4 and 5.
	simTime, desTime           time.Duration
	simAllocs, desAllocs       uint64
	simTrials, desTrials       int
	events                     int
	probeSum, staticSum, issue float64
	colorTime, primTime        time.Duration
	primTrials, estPoints      int
	reqTrials                  [][]int // per request, the trials of each rung-4 engine call
	tableMS, ppcMS, pcMS       []float64
}

// span is one recorded interval of the traced run.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var traceEpoch = time.Now()

func (l *ladder) span(name, parent string, i int, start, end time.Time) {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Req: i, Start: start.Sub(traceEpoch).Nanoseconds(), End: end.Sub(traceEpoch).Nanoseconds()})
}

// runLadder replays the workload down the rungs and returns the
// per-layer metrics, plus one line per rule the replay broke.
func runLadder(ctx context.Context, out io.Writer, w *workload, p *plan, cfg config, m *measured, rt0, rt1 runtimeStats) (map[string]described, []string, error) {
	n := min(w.traceReqs, len(p.reqs))
	if cfg.small {
		// Enough requests for the closure rules' medians to hold.
		n = min(n, 64)
	}
	l := &ladder{w: w, p: p, reqs: p.reqs[:n], tmp: cfg.tmp, n: n}
	for _, r := range l.reqs {
		l.queries += len(r.Queries)
	}
	for _, d := range []*[]time.Duration{&l.top0, &l.top1, &l.handler, &l.wire, &l.r2, &l.r3, &l.r4, &l.r5, &l.first3} {
		*d = make([]time.Duration, n)
	}
	l.reqTrials = make([][]int, n)
	l.served, l.engine4 = make([][]*pq.Result, n), make([][]engineAnswer, n)
	var envs [4]*env
	for k := range envs {
		e, err := newEnv(w, p, k == 1, cfg.tmp)
		if err != nil {
			return nil, nil, err
		}
		defer e.close()
		envs[k] = e
	}
	// Rungs 2 and 3 call the server in process: their setup connections
	// go, so the replay holds at most two.
	envs[2].tr.CloseIdleConnections()
	envs[3].tr.CloseIdleConnections()
	t, err := l.newTwin(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer t.close()
	l.c0 = envs[1].counters()
	steps := []func(i int) error{
		func(i int) error { return l.fullPath(ctx, envs[0], i, false) },
		func(i int) error { return l.fullPath(ctx, envs[1], i, true) },
		func(i int) error { return l.handlerStep(ctx, envs[2], i) },
		func(i int) error { return l.evaluatorStep(ctx, envs[3], i) },
		func(i int) error { return l.engineStep(ctx, t, i) },
	}
	tables := map[string]*quorum.WitnessTable{}
	var bad []string
	for i := range l.reqs {
		// Each request runs down every rung before the next request, so
		// outside noise lands on all rungs alike; the order rotates so no
		// rung always finds caches the previous one warmed. Rung 5 needs
		// rung 4's trial counts and runs last.
		for k := range steps {
			if err := steps[(i+k)%len(steps)](i); err != nil {
				return nil, nil, fmt.Errorf("traced request %d: %w", i, err)
			}
		}
		if err := l.primitiveStep(ctx, t, tables, i); err != nil {
			return nil, nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		bad = append(bad, l.compareServed(i)...)
	}
	l.c1 = envs[1].counters()
	if err := l.dumpSpans(filepath.Join(cfg.tmp, "spans-"+w.name+".jsonl")); err != nil {
		return nil, nil, err
	}
	res, broken := l.metrics(out, m, rt0, rt1)
	return res, append(bad, broken...), nil
}

func (l *ladder) dumpSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	return f.Close()
}

// fullPath is rung 1: the request through the client and the real
// loopback server.
func (l *ladder) fullPath(ctx context.Context, e *env, i int, traced bool) error {
	id := strconv.Itoa(i)
	start := time.Now()
	a := e.send(ctx, &l.reqs[i], id)
	end := time.Now()
	if msg := a.failed(); msg != "" {
		return fmt.Errorf("rung 1: %s", msg)
	}
	if !traced {
		l.top0[i] = end.Sub(start)
		return nil
	}
	l.top1[i] = end.Sub(start)
	l.served[i] = a.results
	hs, err := e.mw.await(id)
	if err != nil {
		return fmt.Errorf("rung 1: %w", err)
	}
	l.handler[i], l.wire[i] = hs.end.Sub(hs.start), hs.wire
	l.flushes += int64(hs.flushes)
	l.attempts += a.info.attempts.Load()
	l.bytes += a.info.bytes.Load()
	l.span("client", "", i, start, end)
	l.span("probeserve.handler", "client", i, hs.start, hs.end)
	return nil
}

func diffCounts(after, before map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

var errNoSpan = errors.New("no handler span recorded")

// await returns the handler span of a request, waiting briefly for a
// stream handler that is still returning after its last frame.
func (m *middleware) await(id string) (handlerSpan, error) {
	for deadline := time.Now().Add(time.Second); ; {
		if s, ok := m.span(id); ok {
			return s, nil
		}
		if time.Now().After(deadline) {
			return handlerSpan{}, errNoSpan
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// handlerStep is rung 2: the probeserve handler with an in-memory
// writer.
func (l *ladder) handlerStep(ctx context.Context, e *env, i int) error {
	body, err := json.Marshal(probeserve.EvalRequest{Queries: l.reqs[i].Queries})
	if err != nil {
		return err
	}
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, l.reqs[i].path(), bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	e.srv.Handler().ServeHTTP(rec, req)
	end := time.Now()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("rung 2: status %d: %s", rec.Code, rec.Body.String())
	}
	l.r2[i] = end.Sub(start)
	l.span("rung2.handler", "", i, start, end)
	return nil
}

// evaluatorStep is rung 3: Evaluator.DoBatch for an /v1/eval request,
// StreamBatch for an /v1/stream one.
func (l *ladder) evaluatorStep(ctx context.Context, e *env, i int) error {
	r := &l.reqs[i]
	rt := readRuntime()
	var first time.Duration
	cells := 0
	start := time.Now()
	if r.Stream {
		for c, err := range e.ev.StreamBatch(ctx, r.Queries) {
			if err != nil {
				return fmt.Errorf("rung 3: %w", err)
			}
			if first == 0 && c.Measure != "" && c.Err == "" {
				first = time.Since(start)
			}
			cells++
		}
	} else {
		res, err := e.ev.DoBatch(ctx, r.Queries)
		if err != nil {
			return fmt.Errorf("rung 3: %w", err)
		}
		first = time.Since(start)
		cells = answeredCells(res)
	}
	end := time.Now()
	l.allocs3 += int64(allocsSince(rt))
	l.cells3 += int64(cells)
	l.r3[i], l.first3[i] = end.Sub(start), first
	l.span("rung3.evaluator", "", i, start, end)
	return nil
}

// answeredCells counts the final cells a batch of results folds: one
// header per query plus one per answered value.
func answeredCells(res []*pq.Result) int {
	n := 0
	for _, r := range res {
		n++
		if r.PC != nil {
			n++
		}
		for _, pt := range r.Points {
			for _, v := range []bool{pt.PPC != nil, pt.Availability != nil, pt.Expected != nil, pt.Estimate != nil,
				pt.TimedTTQ != nil, pt.TimedReach != nil, pt.TimedInFlight != nil} {
				if v {
					n++
				}
			}
		}
		for _, rp := range r.RWPoints {
			if rp.Load != nil {
				n++
			}
			if rp.Capacity != nil {
				n++
			}
		}
	}
	return n
}

// twin is rung 4's session: the workload's tiers on a fresh evaluator
// keyed by the benchmark's own System values (the server's are private
// to it), warmed with the same setup batch.
type twin struct {
	ev      *pq.Evaluator
	dir     string
	systems map[string]pq.System
	canon   map[string]string
	scen    map[string]*des.Scenario
}

func (l *ladder) newTwin(ctx context.Context) (*twin, error) {
	t := &twin{systems: map[string]pq.System{}, canon: map[string]string{}, scen: map[string]*des.Scenario{}}
	opts := []pq.EvaluatorOption{pq.WithParallelism(l.w.parallelism)}
	if l.w.approx {
		opts = append(opts, pq.WithApprox(pq.NewApproxCache()))
	}
	if l.w.store {
		dir, err := os.MkdirTemp(l.tmp, "twin-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
		st, err := pq.OpenArtifactStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opts = append(opts, pq.WithStore(st))
	}
	t.ev = pq.NewEvaluator(opts...)
	queries := append([]pq.Query(nil), l.p.warm...)
	for _, r := range l.reqs {
		queries = append(queries, r.Queries...)
	}
	for _, q := range queries {
		if _, ok := t.systems[q.Spec]; ok {
			continue
		}
		sys, err := pq.Parse(q.Spec)
		if err != nil {
			t.close()
			return nil, err
		}
		t.systems[q.Spec] = sys
		t.canon[q.Spec], _ = pq.SpecOf(sys)
	}
	if len(l.p.warm) > 0 {
		warm := make([]pq.Query, len(l.p.warm))
		for i, q := range l.p.warm {
			q.System = t.systems[q.Spec]
			warm[i] = q
		}
		res, err := t.ev.DoBatch(ctx, warm)
		if err != nil {
			t.close()
			return nil, err
		}
		for _, r := range res {
			if r.Error != "" {
				t.close()
				return nil, fmt.Errorf("twin warm-up: %s", r.Error)
			}
		}
	}
	return t, nil
}

func (t *twin) close() {
	if st := t.ev.ArtifactStore(); st != nil {
		st.Close()
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// timed runs one call and adds its duration to *d.
func timed[T any](d *time.Duration, f func() (T, error)) (T, error) {
	start := time.Now()
	v, err := f()
	*d += time.Since(start)
	return v, err
}

// engineStep is rung 4: the tier and engine calls the evaluator makes
// for the request's queries, each timed on its own.
func (l *ladder) engineStep(ctx context.Context, t *twin, i int) error {
	start := time.Now()
	for qi, q := range l.reqs[i].Queries {
		if err := l.engineQuery(ctx, t, i, qi, q); err != nil {
			return fmt.Errorf("rung 4 %s: %w", q.Spec, err)
		}
	}
	l.span("rung4.engines", "", i, start, start.Add(l.r4[i]))
	return nil
}

func (l *ladder) engineQuery(ctx context.Context, t *twin, i, qi int, q pq.Query) error {
	ev, sys, d := t.ev, t.systems[q.Spec], &l.r4[i]
	// memo times one call and, when the session counted it as a memo hit
	// and nothing else, keeps its duration as a memo-hit sample.
	memo := func(f func() error) error {
		before := ev.Stats()
		var cd time.Duration
		_, err := timed(&cd, func() (struct{}, error) { return struct{}{}, f() })
		*d += cd
		after := ev.Stats()
		if after.Hits["memo"] == before.Hits["memo"]+1 && after.Misses["memo"] == before.Misses["memo"] {
			l.memoHitNS = append(l.memoHitNS, float64(cd.Nanoseconds()))
		}
		return err
	}
	has := func(m pq.Measure) bool { return slices.Contains(q.Measures, m) }
	if has(pq.MeasurePC) {
		if err := memo(func() error { _, err := ev.ProbeComplexityCtx(ctx, sys); return err }); err != nil {
			return err
		}
	}
	for j, p := range q.Ps {
		at := engineAnswer{query: qi, point: j}
		if has(pq.MeasurePPC) {
			served := false
			if q.Tolerance > 0 && ev.Approx() != nil {
				served, _ = timed(d, func() (bool, error) {
					_, ok := ev.Approx().Lookup(t.canon[q.Spec], string(pq.MeasurePPC), p, q.Tolerance)
					return ok, nil
				})
			}
			if !served {
				if err := memo(func() error { _, err := ev.AverageProbeComplexityCtx(ctx, sys, p); return err }); err != nil {
					return err
				}
			}
		}
		if has(pq.MeasureAvailability) {
			if _, err := timed(d, func() (float64, error) { return ev.AvailabilityCtx(ctx, sys, p) }); err != nil {
				return err
			}
		}
		if has(pq.MeasureExpected) {
			if _, err := timed(d, func() (float64, error) { return ev.ExpectedProbes(sys, p) }); err != nil {
				return err
			}
		}
		if has(pq.MeasureEstimate) {
			if err := l.estimateCall(ctx, i, at, sys, q, p); err != nil {
				return err
			}
		}
		if has(pq.MeasureTimedTTQ) {
			if err := l.desCall(ctx, t, i, at, sys, q, p); err != nil {
				return err
			}
		}
	}
	for _, fr := range q.ReadFractions {
		opts := pq.StrategyOptions{Workload: pq.Workload{ReadFraction: fr}}
		err := memo(func() error {
			s, err := ev.StrategyCtx(ctx, sys, opts)
			if err == nil {
				_, err = s.Load(opts.Workload)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// engineAnswer is one rung-4 estimate or timed run, at a point of a
// query of the request.
type engineAnswer struct {
	query, point int
	est          *stats.Summary
	timed        *des.Result
}

// minAdaptiveTrials is the trial floor below which the evaluator's
// adaptive estimates never stop. Rung 4 repeats the evaluator's trial
// loop and stopping rule, which are not exported; compareServed fails
// the run when the two drift apart.
const minAdaptiveTrials = 256

// estimateCall runs the adaptive estimate the evaluator runs for q at p:
// the words trial loop under the same stopping rule.
func (l *ladder) estimateCall(ctx context.Context, i int, at engineAnswer, sys pq.System, q pq.Query, p float64) error {
	wp, ok := sys.(probe.WordsProber)
	if !ok {
		return fmt.Errorf("%s has no words prober", q.Spec)
	}
	n := sys.Size()
	rt := readRuntime()
	var cd time.Duration
	s, err := timed(&cd, func() (stats.Summary, error) {
		return sim.EstimateAdaptiveCtx(ctx, q.Trials, q.Seed, l.w.parallelism,
			func() *probe.WordsOracle { return probe.NewWordsOracle(n) },
			func(rng *rand.Rand, o *probe.WordsOracle) float64 {
				coloring.IIDWordsInto(o.RedWords(), n, p, rng)
				o.Reset()
				wp.ProbeWitnessWords(o)
				return float64(o.Probes())
			},
			func(ch sim.Chunk) bool {
				lo, hi := ch.Summary.CI95()
				return ch.Trials >= minAdaptiveTrials && (hi-lo)/2 <= q.Tolerance
			})
	})
	if err != nil {
		return err
	}
	l.r4[i] += cd
	l.simTime += cd
	l.simAllocs += allocsSince(rt)
	l.simTrials += s.N
	l.estPoints++
	l.probeSum += s.Mean * float64(s.N)
	l.reqTrials[i] = append(l.reqTrials[i], s.N)
	at.est = &s
	l.engine4[i] = append(l.engine4[i], at)
	return nil
}

// desCall runs the timed run the evaluator runs for q at p.
func (l *ladder) desCall(ctx context.Context, t *twin, i int, at engineAnswer, sys pq.System, q pq.Query, p float64) error {
	o := des.Options{Latency: q.Latency, Churn: q.Churn, Window: q.Window, HedgeMS: q.HedgeMS, DeadlineMS: q.TimedDeadlineMS}
	k := fmt.Sprintf("%+v", o)
	sc := t.scen[k]
	if sc == nil {
		var err error
		if sc, err = des.Compile(o); err != nil {
			return err
		}
		t.scen[k] = sc
	}
	rt := readRuntime()
	var cd time.Duration
	res, err := timed(&cd, func() (des.Result, error) {
		return des.RunCtx(ctx, des.Params{Sys: sys, Scenario: sc, P: p, Trials: q.Trials, Seed: q.Seed, Workers: l.w.parallelism})
	})
	if err != nil {
		return err
	}
	l.r4[i] += cd
	l.desTime += cd
	l.desAllocs += allocsSince(rt)
	l.desTrials += res.Trials
	l.events += res.Events
	l.staticSum += res.StaticMean
	l.issue += res.IssuedMean
	at.timed = &res
	l.engine4[i] = append(l.engine4[i], at)
	return nil
}

// compareServed checks request i's rung-4 estimates and timed runs bit
// for bit against the answers rung 1 served.
func (l *ladder) compareServed(i int) []string {
	var bad []string
	for _, a := range l.engine4[i] {
		q := l.reqs[i].Queries[a.query]
		pt := l.served[i][a.query].Points[a.point]
		same := false
		if a.est != nil {
			lo, hi := a.est.CI95()
			e := pt.Estimate
			same = e != nil && bitsEqual(e.Mean, a.est.Mean) && bitsEqual(e.HalfCI, (hi-lo)/2) && e.Trials == a.est.N
		} else {
			r := a.timed
			ttq := pq.TimedDist{MeanMS: r.TTQ.MeanMS, P50MS: r.TTQ.P50MS, P99MS: r.TTQ.P99MS, MaxMS: r.TTQ.MaxMS}
			flight := pq.TimedFlight{MeanInFlight: r.InFlightMean, MaxInFlight: r.InFlightMax, IssuedMean: r.IssuedMean, StaticMean: r.StaticMean}
			same = pt.TimedTTQ != nil && pt.TimedInFlight != nil && pt.TimedReach != nil &&
				*pt.TimedTTQ == ttq && *pt.TimedInFlight == flight && bitsEqual(*pt.TimedReach, r.Reach)
		}
		if !same {
			bad = append(bad, fmt.Sprintf("traced req %d: %s@%v: rung 4 computed a different answer than the one served", i, q.Spec, q.Ps[a.point]))
		}
	}
	return bad
}

// primitiveStep is rung 5: the work below the tiers and trial loops.
// tables caches the witness tables rung 5 built, by spec.
func (l *ladder) primitiveStep(ctx context.Context, t *twin, tables map[string]*quorum.WitnessTable, i int) error {
	start := time.Now()
	k := 0
	for _, q := range l.reqs[i].Queries {
		sys := t.systems[q.Spec]
		switch l.w {
		case coldSweep:
			if err := l.dpCalls(ctx, tables, sys, q, &l.r5[i]); err != nil {
				return fmt.Errorf("rung 5: %w", err)
			}
		case estimateWide:
			for _, p := range q.Ps {
				n := l.reqTrials[i][k]
				k++
				col, all, err := primitives(sys, p, q.Seed, n, l.w.parallelism)
				if err != nil {
					return fmt.Errorf("rung 5: %w", err)
				}
				l.colorTime += col
				l.primTime += all
				l.primTrials += n
				l.r5[i] += all
			}
		}
	}
	l.span("rung5.primitives", "", i, start, start.Add(l.r5[i]))
	return nil
}

// primitives runs trials trials of the words primitives on as many
// goroutines as the trial loop uses (workers, 0 meaning nproc): once
// generating the IID coloring only, and once generating it and locating
// a witness. It returns both wall times.
func primitives(sys pq.System, p float64, seed uint64, trials, workers int) (color, all time.Duration, err error) {
	wp, ok := sys.(probe.WordsProber)
	if !ok {
		return 0, 0, fmt.Errorf("%s has no words prober", sys.Name())
	}
	n := sys.Size()
	run := func(witness bool) time.Duration {
		var next atomic.Int64
		var wg sync.WaitGroup
		if workers <= 0 {
			workers = nproc
		}
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := probe.NewWordsOracle(n)
				for {
					c := int(next.Add(64) - 64)
					if c >= trials {
						return
					}
					for t := c; t < min(c+64, trials); t++ {
						rng := rand.New(rand.NewPCG(seed, uint64(t)))
						coloring.IIDWordsInto(o.RedWords(), n, p, rng)
						if witness {
							o.Reset()
							wp.ProbeWitnessWords(o)
						}
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	return run(false), run(true), nil
}

// dpCalls runs the engine work below the tiers for one cold-sweep
// query: the witness table on first touch, then the PC and PPC DPs and
// the closed-form availability.
func (l *ladder) dpCalls(ctx context.Context, tables map[string]*quorum.WitnessTable, sys pq.System, q pq.Query, d *time.Duration) error {
	table := tables[q.Spec]
	if table == nil {
		var cd time.Duration
		tb, err := timed(&cd, func() (*quorum.WitnessTable, error) { return quorum.BuildWitnessTableCtx(ctx, sys) })
		if err != nil {
			return err
		}
		*d += cd
		l.tableMS = append(l.tableMS, ms(cd))
		tables[q.Spec], table = tb, tb
	}
	for _, m := range q.Measures {
		switch m {
		case pq.MeasurePC:
			var cd time.Duration
			if _, err := timed(&cd, func() (int, error) { return strategy.OptimalPCWithTableCtx(ctx, sys, table) }); err != nil {
				return err
			}
			*d += cd
			l.pcMS = append(l.pcMS, ms(cd))
		case pq.MeasurePPC:
			for _, p := range q.Ps {
				var cd time.Duration
				if _, err := timed(&cd, func() (float64, error) { return strategy.OptimalPPCWithTableCtx(ctx, sys, table, p) }); err != nil {
					return err
				}
				*d += cd
				l.ppcMS = append(l.ppcMS, ms(cd))
			}
		case pq.MeasureAvailability:
			ea, ok := sys.(pq.ExactAvailability)
			if !ok {
				return fmt.Errorf("%s has no closed-form availability", q.Spec)
			}
			for _, p := range q.Ps {
				timed(d, func() (float64, error) { return ea.AvailabilityIID(p), nil })
			}
		}
	}
	return nil
}

// maxClosure is the largest share of the median top rung by which the
// median request's layer self times may miss its top rung.
const maxClosure = 0.1

// selfSlack is how far below zero, as a share of the median top rung, a
// layer's median self time may fall before the rungs count as
// inconsistent. It absorbs run-to-run noise where a layer's true self
// time is a few percent of the request: the evaluator over a millisecond
// DP on cold-sweep, the trial loop around its primitives on
// estimate-wide (measured down to -4% at 2% true self time).
const selfSlack = 0.05

// metrics computes the per-layer metrics of the traced run, plus the
// runtime and load-generator figures of the timed phase, and returns one
// line per closure rule the rungs broke.
func (l *ladder) metrics(out io.Writer, m *measured, rt0, rt1 runtimeStats) (map[string]described, []string) {
	res := map[string]described{}
	put := func(name, unit string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res[name] = described{metric{v, unit}, n}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := l.n
	var client, ps, evs, lower, bottom, handler, wire, first, miss []float64
	for i := 0; i < n; i++ {
		c := l.top1[i] - l.handler[i]
		p := l.r2[i] - l.r3[i] + l.wire[i]
		e := l.r3[i] - l.r4[i]
		t := l.r4[i] - l.r5[i]
		client, ps, evs, lower = append(client, us(c)), append(ps, us(p)), append(evs, us(e)), append(lower, us(t))
		bottom = append(bottom, us(l.r5[i]))
		handler, wire = append(handler, us(l.handler[i])), append(wire, us(l.wire[i]))
		if l.reqs[i].Stream || !anyStream(l.reqs) {
			first = append(first, us(l.first3[i]))
		}
		miss = append(miss, us(c+p+e+t+l.r5[i]-l.top1[i]))
	}
	fn := float64(n)
	put("client.self_p50_us", "us", median(client), n)
	put("client.attempts_per_req", "count", per(float64(l.attempts), fn), n)
	put("client.bytes_per_req", "bytes", per(float64(l.bytes), fn), n)
	put("probeserve.self_p50_us", "us", median(ps), n)
	put("probeserve.handler_p99_us", "us", stats.Quantile(handler, 0.99), n)
	put("probeserve.flushes_per_req", "count", per(float64(l.flushes), fn), n)
	put("probeserve.wire_p50_us", "us", median(wire), n)
	put("evaluator.self_p50_us", "us", median(evs), n)
	put("evaluator.first_cell_p50_us", "us", median(first), len(first))
	put("evaluator.cells_per_req", "count", per(float64(l.cells3), fn), n)
	put("evaluator.allocs_per_req", "count", per(float64(l.allocs3), fn), n)
	// Rung 4 minus rung 5 is the tiers on the exact workloads, the trial
	// loop on estimate-wide and the event loop on timed-sim.
	lowerLayer := map[*workload]string{serveHot: "tiers", coldSweep: "tiers", estimateWide: "sim", timedSim: "des"}[l.w]
	for _, layer := range []string{"tiers", "sim", "des"} {
		v := 0.0
		if layer == lowerLayer {
			v = median(lower)
		}
		put(layer+".self_p50_us", "us", v, n)
	}
	ratio := func(h, m uint64) float64 { return per(float64(h), float64(h+m)) }
	ev0, ev1, st0, st1 := l.c0.eval, l.c1.eval, l.c0.store, l.c1.store
	hits, misses := diffCounts(ev1.Hits, ev0.Hits), diffCounts(ev1.Misses, ev0.Misses)
	builds := diffCounts(ev1.Builds, ev0.Builds)
	put("tiers.memo_hit_ns", "ns", mean(l.memoHitNS), len(l.memoHitNS))
	put("tiers.memo_hit_ratio", "ratio", ratio(hits["memo"], misses["memo"]), int(hits["memo"]+misses["memo"]))
	put("tiers.approx_hit_ratio", "ratio", ratio(hits["approx"], misses["approx"]), int(hits["approx"]+misses["approx"]))
	put("tiers.store_hit_ratio", "ratio", ratio(st1.Hits-st0.Hits, st1.Misses-st0.Misses), int(st1.Hits-st0.Hits+st1.Misses-st0.Misses))
	put("tiers.store_writes_per_query", "count", per(float64(st1.Writes-st0.Writes), float64(l.queries)), l.queries)
	put("tiers.store_failures", "count", float64(st1.WriteErrors-st0.WriteErrors+st1.Corrupt-st0.Corrupt), l.queries)
	for _, k := range []string{"table", "pc", "ppc"} {
		put("tiers.builds."+k, "count", float64(builds[k]), l.queries)
	}
	put("tiers.coalesced", "count", float64(sumCounts(diffCounts(ev1.Coalesced, ev0.Coalesced))), l.queries)
	put("quorum.table_build_p50_ms", "ms", median(l.tableMS), len(l.tableMS))
	put("strategy.ppc_solve_p50_ms", "ms", median(l.ppcMS), len(l.ppcMS))
	put("strategy.pc_solve_p50_ms", "ms", median(l.pcMS), len(l.pcMS))
	put("sim.ns_per_trial", "ns", per(float64(l.simTime), float64(l.simTrials)), l.simTrials)
	put("sim.allocs_per_trial", "count", per(float64(l.simAllocs), float64(l.simTrials)), l.simTrials)
	put("sim.trials_per_query", "count", per(float64(l.simTrials), float64(l.estPoints)), l.estPoints)
	put("systems.probes_per_trial", "count", per(l.probeSum, float64(l.simTrials)), l.simTrials)
	put("systems.witness_ns_per_trial", "ns", per(float64(l.primTime-l.colorTime), float64(l.primTrials)), l.primTrials)
	put("coloring.iid_ns_per_trial", "ns", per(float64(l.colorTime), float64(l.primTrials)), l.primTrials)
	put("des.ns_per_event", "ns", per(float64(l.desTime), float64(l.events)), l.events)
	put("des.allocs_per_event", "count", per(float64(l.desAllocs), float64(l.events)), l.events)
	put("des.events_per_trial", "count", per(float64(l.events), float64(l.desTrials)), l.desTrials)
	put("des.useful_probe_ratio", "ratio", per(l.staticSum, l.issue), l.desTrials)

	attempted := 0
	for _, ph := range m.all {
		attempted += len(ph.samples)
	}
	// The generator's own lateness and the queue wait, at the reference
	// rate: the ladder's upper rates overload on purpose.
	var late, wait []float64
	if l.w.open {
		for _, ph := range m.ref {
			late = append(late, toMS(ph.late)...)
			wait = append(wait, durationsMS(ph.samples, queuedOf)...)
		}
	}
	put("runtime.gc_cycles_per_1k_req", "count", per(float64(rt1.gcCycles-rt0.gcCycles)*1000, float64(attempted)), attempted)
	put("runtime.alloc_mb_per_1k_req", "MB", per(float64(rt1.allocBytes-rt0.allocBytes)/1e6*1000, float64(attempted)), attempted)
	put("loadgen.late_p99_ms", "ms", stats.Quantile(late, 0.99), len(late))
	put("loadgen.queue_wait_p99_ms", "ms", stats.Quantile(wait, 0.99), len(wait))
	for k := 0; k <= len(ladderRates); k++ {
		v, n := 0.0, 0
		if k < len(m.ladder) {
			v, n = m.ladder[k].p99, m.ladder[k].n
		}
		put(fmt.Sprintf("loadgen.ladder_p99_ms.r%d", k+1), "ms", v, n)
	}
	top0, top1 := toMS(l.top0), toMS(l.top1)
	put("trace.overhead_ratio", "ratio", per(median(top1), median(top0)), n)
	top := median(top1) * 1000 // us
	closure := per(math.Abs(median(miss)), top)
	put("trace.closure_error", "ratio", closure, n)
	var bad []string
	if closure > maxClosure {
		bad = append(bad, fmt.Sprintf("trace: layer self times miss the top rung by a median %.1f us, %.4f of its median, above %v", median(miss), closure, maxClosure))
	}
	for _, ls := range []struct {
		name string
		self []float64
	}{{"client", client}, {"probeserve", ps}, {"evaluator", evs}, {lowerLayer, lower}, {"rung 5", bottom}} {
		if v := median(ls.self); v < -selfSlack*top {
			bad = append(bad, fmt.Sprintf("trace: %s median self time %.1f us is negative (top rung %.1f us)", ls.name, v, top))
		}
	}
	fmt.Fprintf(out, "  trace closure: self times miss the top rung by a median %.1f us, %.4f of its median %.1f us (limit %v), over %d requests\n",
		median(miss), closure, top, maxClosure, n)
	return res, bad
}

func anyStream(reqs []request) bool {
	for _, r := range reqs {
		if r.Stream {
			return true
		}
	}
	return false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
