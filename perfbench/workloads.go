package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	pq "probequorum"
)

// request is one generated HTTP request: a query batch sent to /v1/eval
// or, when Stream is set, to /v1/stream.
type request struct {
	Stream  bool       `json:"stream,omitempty"`
	Queries []pq.Query `json:"queries"`
	// Fresh marks a cold-sweep request asking a (spec, p) point no
	// earlier request asked.
	Fresh bool `json:"fresh,omitempty"`
}

// path is the service endpoint the request goes to.
func (r *request) path() string {
	if r.Stream {
		return "/v1/stream"
	}
	return "/v1/eval"
}

// plan is everything a workload generates from its seed. The program
// under test receives only these requests.
type plan struct {
	// reqs is the request sequence. Closed loops consume it in order;
	// the open loop cycles through it.
	reqs []request
	// warm is the setup batch run in process before timing starts.
	warm []pq.Query
	// warmReqs are setup requests sent through the client before timing
	// starts: they build every construction and open the connections.
	warmReqs []request
	// gaps are unit-rate exponential inter-arrival gaps; the open loop
	// divides them by its offered rate.
	gaps []float64
}

// digest fingerprints the generated sequence, so a result names exactly
// the inputs it measured.
func (p *plan) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range p.reqs {
		if err := enc.Encode(&p.reqs[i]); err != nil {
			panic(err) // queries are plain data; encoding cannot fail
		}
	}
	if err := enc.Encode(p.warm); err != nil {
		panic(err)
	}
	if err := enc.Encode(p.warmReqs); err != nil {
		panic(err)
	}
	var b [8]byte
	for _, g := range p.gaps {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(g))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// workload is one traffic mix: how it is generated, how the server is
// configured for it, how it is driven and which checks apply.
type workload struct {
	name string
	// why is the reason the workload exists and the layer it loads.
	why string
	// open selects the open-loop driver (seeded arrivals at fixed
	// rates); otherwise callers run a closed loop.
	open    bool
	callers int
	// parallelism is the session's worker cap (0: GOMAXPROCS). A closed
	// loop with one caller per core runs each query on one core.
	parallelism int
	// approx and store attach the corresponding cache tiers.
	approx, store bool
	// traceReqs is how many requests of the sequence the traced ladder
	// replays.
	traceReqs int
	// sloMS is the p99 latency limit of max_qps_at_slo.
	sloMS    float64
	generate func(seed uint64) *plan
}

// workloads lists every workload by name.
var workloads = []*workload{serveHot, estimateWide, timedSim, coldSweep}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// freshSeed draws a nonzero Monte Carlo seed (zero means "inherit the
// session seed" on the wire).
func freshSeed(rng *rand.Rand) uint64 { return rng.Uint64() | 1 }

// serveHot: every answer is a memo or approx hit, so time goes to
// client, probeserve and evaluator while the engines do nothing. This
// is where the tier-hit, warm-DoBatch and warm-streaming regressions and
// the cost of disabled explain traces show; engine changes should not
// move it. Latency and max_qps_at_slo come from the open loop, qps from
// saturation windows between its phases.
var serveHot = &workload{
	name:      "serve-hot",
	why:       "open loop of warm sweep batches over /v1/eval and /v1/stream, plus saturated windows: memo and approx hits only, so client, probeserve and evaluator carry the time",
	open:      true,
	approx:    true,
	traceReqs: 240,
	sloMS:     100,
	generate:  genServeHot,
}

// hotSpecs is the serve-hot construction pool: registered constructions
// with n <= 10, cheap enough to warm every point in setup.
var hotSpecs = []string{
	"maj:3", "maj:5", "maj:7", "maj:9", "wheel:4", "wheel:6", "wheel:8", "wheel:10",
	"triang:2", "triang:3", "cw:1,3,2", "cw:1,2,3,4", "tree:2", "hqs:2",
	"vote:3,1,1,2", "vote:2,2,1,1,1", "recmaj:3x2",
}

// hotGrid is the warmed p grid; requests draw 1-20 of its points.
var hotGrid = []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95}

// hotPlannerSpecs and hotReadFractions are the warmed planner pool.
var (
	hotPlannerSpecs  = []string{"grid:3x3", "rw:maj:9"}
	hotReadFractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
)

var exactMeasures = []pq.Measure{pq.MeasurePC, pq.MeasurePPC, pq.MeasureAvailability, pq.MeasureExpected}

// hotTolerance is the declared tolerance of the off-grid queries: wide
// enough that every bracket between adjacent warmed points fits it, so
// these points are approx hits, never computes.
const hotTolerance = 1.0

// hotPoolSize is how many distinct requests the open loop cycles through.
const hotPoolSize = 4096

func genServeHot(seed uint64) *plan {
	rng := newRand(seed, 1)
	p := &plan{}
	for _, s := range hotSpecs {
		p.warm = append(p.warm, pq.Query{Spec: s, Measures: exactMeasures, Ps: hotGrid})
	}
	for _, s := range hotPlannerSpecs {
		p.warm = append(p.warm, pq.Query{Spec: s, Measures: []pq.Measure{pq.MeasureLoad, pq.MeasureCapacity}, ReadFractions: hotReadFractions})
	}
	for i := 0; i < hotPoolSize; i++ {
		r := request{Stream: rng.IntN(2) == 1}
		nq := 1 + rng.IntN(8)
		for j := 0; j < nq; j++ {
			r.Queries = append(r.Queries, genHotQuery(rng))
		}
		p.reqs = append(p.reqs, r)
	}
	p.gaps = make([]float64, 1<<16)
	for i := range p.gaps {
		p.gaps[i] = rng.ExpFloat64()
	}
	return p
}

func genHotQuery(rng *rand.Rand) pq.Query {
	switch x := rng.Float64(); {
	case x < 0.03:
		// Planner query: load and capacity over a read-fraction grid.
		return pq.Query{
			Spec:          hotPlannerSpecs[rng.IntN(len(hotPlannerSpecs))],
			Measures:      []pq.Measure{pq.MeasureLoad, pq.MeasureCapacity},
			ReadFractions: subset(rng, hotReadFractions, 1+rng.IntN(len(hotReadFractions))),
		}
	case x < 0.18:
		// Tolerant query at off-grid midpoints the approx tier brackets.
		q := pq.Query{
			Spec:      hotSpecs[rng.IntN(len(hotSpecs))],
			Measures:  []pq.Measure{pq.MeasurePPC},
			Ps:        subset(rng, hotMidpoints(), 1+rng.IntN(4)),
			Tolerance: hotTolerance,
		}
		if rng.IntN(2) == 0 {
			q.Measures = append(q.Measures, pq.MeasureAvailability)
		}
		return q
	}
	var ms []pq.Measure
	for len(ms) == 0 {
		for _, m := range exactMeasures {
			if rng.IntN(2) == 0 {
				ms = append(ms, m)
			}
		}
	}
	var ps []float64
	if !slices.Equal(ms, []pq.Measure{pq.MeasurePC}) {
		ps = subset(rng, hotGrid, 1+rng.IntN(len(hotGrid)))
	}
	return pq.Query{Spec: hotSpecs[rng.IntN(len(hotSpecs))], Measures: ms, Ps: ps}
}

// hotMidpoints are the off-grid points between adjacent hotGrid points.
func hotMidpoints() []float64 {
	mids := make([]float64, len(hotGrid)-1)
	for i := range mids {
		mids[i] = (hotGrid[i] + hotGrid[i+1]) / 2
	}
	return mids
}

// subset draws k distinct elements of xs, returned in xs order.
func subset(rng *rand.Rand, xs []float64, k int) []float64 {
	idx := rng.Perm(len(xs))[:k]
	slices.Sort(idx)
	out := make([]float64, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// estimateWide: adaptive Monte Carlo estimates on wide universes, each
// with a fresh seed, so nothing repeats and time goes to sim's trial
// loop, the systems words probers and coloring. Bit-sliced Monte Carlo
// and the bitset-twin deletion show here; serving-path changes should
// not.
var estimateWide = &workload{
	name:        "estimate-wide",
	why:         "closed loop of adaptive estimates on n up to 1025 with fresh seeds: the sim trial loop, words probers and coloring carry the time",
	callers:     nproc,
	parallelism: 1,
	traceReqs:   48,
	sloMS:       100,
	generate:    genEstimateWide,
}

// wideSpecs and wideRelTol: the relative tolerance of each (spec, p)
// targets about 8 ms of trials on two cores, from per-trial cost and
// probe-count deviation measured once, so every query runs well past
// the 256-trial floor and no construction's queries form a latency
// cluster of their own (a median between clusters would jump).
var (
	wideSpecs  = []string{"maj:1025", "maj:129", "tree:6", "recmaj:3x6"}
	widePs     = []float64{0.1, 0.3, 0.5}
	wideRelTol = map[string][3]float64{
		"maj:1025":   {0.000805, 0.0018, 0.0016},
		"maj:129":    {0.000744, 0.00166, 0.00147},
		"tree:6":     {0.00715, 0.0108, 0.0123},
		"recmaj:3x6": {0.00284, 0.00818, 0.0195},
	}
)

// wideBudget caps every estimate's trials.
const wideBudget = 16384

// closedPoolSize bounds the generated sequence of the closed loops; a
// run that exhausts it ends early.
const closedPoolSize = 1 << 15

func genEstimateWide(seed uint64) *plan {
	rng := newRand(seed, 2)
	expected := map[string]float64{}
	for _, s := range wideSpecs {
		sys := pq.MustParse(s)
		for _, p := range widePs {
			e, err := pq.ExpectedProbes(sys, p)
			if err != nil {
				panic(err) // every wide spec has a closed-form expectation
			}
			expected[key(s, p)] = e
		}
	}
	p := &plan{}
	for _, s := range wideSpecs {
		p.warmReqs = append(p.warmReqs, request{Stream: true, Queries: []pq.Query{{
			Spec: s, Measures: []pq.Measure{pq.MeasureEstimate}, Ps: []float64{0.3}, Trials: minAdaptiveTrials, Seed: 1}}})
	}
	for i := 0; i < closedPoolSize; i++ {
		s := wideSpecs[rng.IntN(len(wideSpecs))]
		j := rng.IntN(len(widePs))
		pp := widePs[j]
		p.reqs = append(p.reqs, request{Stream: true, Queries: []pq.Query{{
			Spec: s, Measures: []pq.Measure{pq.MeasureEstimate}, Ps: []float64{pp},
			Seed: freshSeed(rng), Trials: wideBudget, Tolerance: wideRelTol[s][j] * expected[key(s, pp)],
		}}})
	}
	return p
}

// timedSim: the only workload that runs the temporal engine; its time
// goes to the per-event strategy replay the incremental-scheduler item
// targets.
var timedSim = &workload{
	name:        "timed-sim",
	why:         "closed loop of timed-ttq/inflight/reach queries under latency, windows, hedging and churn: the only workload that runs des",
	callers:     nproc,
	parallelism: 1,
	traceReqs:   48,
	sloMS:       200,
	generate:    genTimedSim,
}

var timedSpecs = []string{"maj:129", "maj:257", "tree:6"}

func genTimedSim(seed uint64) *plan {
	rng := newRand(seed, 3)
	p := &plan{}
	for _, s := range timedSpecs {
		p.warmReqs = append(p.warmReqs, request{Queries: []pq.Query{{
			Spec: s, Measures: []pq.Measure{pq.MeasureTimedTTQ, pq.MeasureTimedInFlight, pq.MeasureTimedReach}, Ps: []float64{0.2},
			Trials: 8, Seed: 1, Latency: "exp:2", TimedDeadlineMS: 50}}})
	}
	for i := 0; i < closedPoolSize; i++ {
		q := pq.Query{
			Spec:            timedSpecs[rng.IntN(len(timedSpecs))],
			Measures:        []pq.Measure{pq.MeasureTimedTTQ, pq.MeasureTimedInFlight, pq.MeasureTimedReach},
			Ps:              []float64{[]float64{0.1, 0.2, 0.3}[rng.IntN(3)]},
			Trials:          16 + rng.IntN(17),
			Seed:            freshSeed(rng),
			Window:          []int{1, 4, 8}[rng.IntN(3)],
			TimedDeadlineMS: []float64{20, 50, 100, 400}[rng.IntN(4)],
		}
		if rng.IntN(2) == 0 {
			q.Latency = "exp:" + []string{"1", "2", "5"}[rng.IntN(3)]
		} else {
			q.Latency = "lognorm:" + []string{"0.5,0.5", "0.5,0.8", "1,0.5"}[rng.IntN(3)]
		}
		if rng.IntN(3) == 0 {
			q.Latency += "+zone:3," + []string{"2", "4"}[rng.IntN(2)]
		}
		if rng.IntN(3) == 0 {
			q.HedgeMS = []float64{3, 6}[rng.IntN(2)]
		}
		switch rng.IntN(3) {
		case 1:
			q.Churn = []string{"flap:50,10", "flap:100,5"}[rng.IntN(2)]
		case 2:
			q.Churn = "zoneout:3,1,5"
		}
		p.reqs = append(p.reqs, request{Queries: []pq.Query{q}})
	}
	return p
}

// coldSweep: every fresh query misses the memo, runs a strategy DP and
// writes to the store, and with more constructions than the session's
// 64-system memo holds, evicted systems come back through store reads.
// This is the write side of the tiers (serve-hot only reads them): a
// tier change that speeds hits but slows misses shows here, and so does
// a slower DP.
var coldSweep = &workload{
	name:        "cold-sweep",
	why:         "closed loop of ppc at never-asked p over 88 constructions with a store: memo misses, strategy DPs, store writes and evictions",
	callers:     2,
	parallelism: 1,
	store:       true,
	traceReqs:   256,
	sloMS:       100,
	generate:    genColdSweep,
}

// coldPool returns the cold-sweep construction pool: coldPoolSize
// distinct canonical registered constructions with 9 <= n <= 11, where
// the strategy DPs outweigh the store writes, in a fixed order.
func coldPool() []string {
	var cands []string
	for n := 9; n <= 11; n += 2 {
		cands = append(cands, "maj:"+strconv.Itoa(n))
	}
	for n := 9; n <= 11; n++ {
		cands = append(cands, "wheel:"+strconv.Itoa(n))
	}
	cands = append(cands, "hqs:2", "recmaj:3x2")
	join := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = strconv.Itoa(x)
		}
		return strings.Join(parts, ",")
	}
	// Crumbling walls: a width-1 top row over rows of width >= 2.
	var walls func(prefix []int, sum int)
	walls = func(prefix []int, sum int) {
		if sum >= 9 {
			cands = append(cands, "cw:"+join(prefix))
		}
		for w := 2; sum+w <= 11; w++ {
			walls(append(slices.Clone(prefix), w), sum+w)
		}
	}
	walls([]int{1}, 1)
	// Weighted votes over 9-11 voters with non-increasing weights 1-3.
	var votes func(prefix []int)
	votes = func(prefix []int) {
		if len(prefix) >= 9 {
			cands = append(cands, "vote:"+join(prefix))
		}
		if len(prefix) == 11 {
			return
		}
		last := 3
		if len(prefix) > 0 {
			last = prefix[len(prefix)-1]
		}
		for w := last; w >= 1; w-- {
			votes(append(slices.Clone(prefix), w))
		}
	}
	votes(nil)
	seen := map[string]bool{}
	var pool []string
	for _, c := range cands {
		sys, err := pq.Parse(c)
		if err != nil || sys.Size() < 9 || sys.Size() > 11 {
			continue
		}
		canon, ok := pq.SpecOf(sys)
		if !ok || seen[canon] {
			continue
		}
		seen[canon] = true
		pool = append(pool, canon)
	}
	// A fixed shuffle mixes the families before the pool is cut.
	rng := newRand(0, 0)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(len(pool), coldPoolSize)]
}

// coldPoolSize is how many constructions the cold sweep cycles over:
// well above the session's 64-system memo, so it evicts.
const coldPoolSize = 88

// coldRepeatShare is the share of requests that repeat an answered
// point.
const coldRepeatShare = 0.1

func genColdSweep(seed uint64) *plan {
	rng := newRand(seed, 4)
	pool := coldPool()
	p := &plan{}
	// Setup builds every construction of the pool through the client
	// (closed-form availability touches no table, DP or store record).
	for len(p.warmReqs)*32 < len(pool) {
		var qs []pq.Query
		for _, s := range pool[len(p.warmReqs)*32 : min(len(pool), len(p.warmReqs)*32+32)] {
			qs = append(qs, pq.Query{Spec: s, Measures: []pq.Measure{pq.MeasureAvailability}, Ps: []float64{0.5}})
		}
		p.warmReqs = append(p.warmReqs, request{Queries: qs})
	}
	used := map[string]bool{}
	asked := map[string]bool{}
	for i := 0; i < closedPoolSize; i++ {
		// Repeat a point asked at least a few requests back, so it has
		// been answered even with both callers busy.
		if i > 8 && rng.Float64() < coldRepeatShare {
			old := p.reqs[rng.IntN(i-4)].Queries[0]
			p.reqs = append(p.reqs, request{Queries: []pq.Query{{Spec: old.Spec, Measures: []pq.Measure{pq.MeasurePPC}, Ps: old.Ps}}})
			continue
		}
		s := pool[rng.IntN(len(pool))]
		var pp float64
		for {
			pp = math.Round((0.02+0.96*rng.Float64())*1e6) / 1e6
			if !asked[key(s, pp)] {
				break
			}
		}
		asked[key(s, pp)] = true
		q := pq.Query{Spec: s, Measures: []pq.Measure{pq.MeasurePPC}, Ps: []float64{pp}}
		if !used[s] {
			used[s] = true
			q.Measures = []pq.Measure{pq.MeasurePC, pq.MeasurePPC, pq.MeasureAvailability}
		}
		p.reqs = append(p.reqs, request{Queries: []pq.Query{q}, Fresh: true})
	}
	return p
}

// key joins a spec and a parameter into a map key.
func key(spec string, p float64) string {
	return spec + "@" + strconv.FormatFloat(p, 'g', -1, 64)
}

// splitKey inverts key(spec+"|"+measure, p).
func splitKey(k string) (spec, measure string, p float64) {
	at := strings.LastIndexByte(k, '@')
	bar := strings.LastIndexByte(k[:at], '|')
	p, err := strconv.ParseFloat(k[at+1:], 64)
	if err != nil {
		panic(err) // keys are built by key
	}
	return k[:bar], k[bar+1 : at], p
}
