package probequorum

import (
	"math"
	"strconv"
	"strings"

	"probequorum/internal/des"
)

// Measure names one quantity a Query asks for. The string values are the
// wire encoding used by the JSON API, the probeserved service and the
// quorumctl -measures flag.
type Measure string

const (
	// MeasurePC is the exact worst-case probe complexity PC(S).
	MeasurePC Measure = "pc"
	// MeasurePPC is the exact probabilistic probe complexity PPC_p(S),
	// one value per grid point p.
	MeasurePPC Measure = "ppc"
	// MeasureAvailability is the failure probability F_p(S), one value
	// per grid point p.
	MeasureAvailability Measure = "availability"
	// MeasureExpected is the exact expected probe count of the paper's
	// deterministic strategy under IID(p), one value per grid point p.
	MeasureExpected Measure = "expected"
	// MeasureEstimate is the Monte Carlo estimate of the deterministic
	// strategy's average probes under IID(p), one (mean, half-CI) pair
	// per grid point p.
	MeasureEstimate Measure = "estimate"
	// MeasureTree is a worst-case-optimal probe strategy tree: depth,
	// leaf count and the ASCII rendering in the paper's Fig. 4 notation.
	MeasureTree Measure = "tree"
	// MeasureLoad is the optimal strategy load of the system's read/write
	// pair under the query's capacities, one value per ReadFractions grid
	// point. Single-role systems are evaluated as self-pairs.
	MeasureLoad Measure = "load"
	// MeasureCapacity is 1/load — the peak sustainable throughput — one
	// value per ReadFractions grid point.
	MeasureCapacity Measure = "capacity"
	// MeasureResilience is the crash resilience of the read/write pair:
	// the largest f such that any f failures leave both a live read and a
	// live write quorum. One value per system.
	MeasureResilience Measure = "resilience"
	// MeasureTimedTTQ is the time-to-quorum distribution of the temporal
	// engine — the strategy scheduled against probe latencies and churn
	// on a virtual clock — as mean/p50/p99/max in virtual ms, one
	// distribution per grid point p.
	MeasureTimedTTQ Measure = "timed-ttq"
	// MeasureTimedReach is the fraction of timed trials whose time to
	// quorum met the query's TimedDeadlineMS, one value per grid point p.
	MeasureTimedReach Measure = "timed-reach"
	// MeasureTimedInFlight is the probes-in-flight profile of the timed
	// run: time-averaged and peak in-flight counts plus issued-vs-static
	// probe accounting, one profile per grid point p.
	MeasureTimedInFlight Measure = "timed-inflight"
)

// AllMeasures returns every recognized measure in wire order.
func AllMeasures() []Measure {
	return []Measure{MeasurePC, MeasurePPC, MeasureAvailability, MeasureExpected, MeasureEstimate, MeasureTree, MeasureLoad, MeasureCapacity, MeasureResilience, MeasureTimedTTQ, MeasureTimedReach, MeasureTimedInFlight}
}

// perP reports whether the measure is evaluated once per grid point p
// (as opposed to once per system).
func (m Measure) perP() bool {
	switch m {
	case MeasurePPC, MeasureAvailability, MeasureExpected, MeasureEstimate,
		MeasureTimedTTQ, MeasureTimedReach, MeasureTimedInFlight:
		return true
	}
	return false
}

// timed reports whether the measure is evaluated by the temporal engine
// (one shared timed run per grid point feeds all of them).
func (m Measure) Timed() bool {
	switch m {
	case MeasureTimedTTQ, MeasureTimedReach, MeasureTimedInFlight:
		return true
	}
	return false
}

// perFr reports whether the measure is evaluated once per ReadFractions
// grid point (the planner axis, as p grids are the availability axis).
func (m Measure) perFr() bool {
	switch m {
	case MeasureLoad, MeasureCapacity:
		return true
	}
	return false
}

func (m Measure) valid() bool {
	switch m {
	case MeasurePC, MeasurePPC, MeasureAvailability, MeasureExpected, MeasureEstimate, MeasureTree,
		MeasureLoad, MeasureCapacity, MeasureResilience,
		MeasureTimedTTQ, MeasureTimedReach, MeasureTimedInFlight:
		return true
	}
	return false
}

// ParseMeasures parses a comma-separated measure list ("pc,ppc,availability").
// Whitespace around items is ignored; duplicates collapse to the first
// occurrence. The empty string is an error.
func ParseMeasures(s string) ([]Measure, error) {
	var out []Measure
	seen := map[Measure]bool{}
	for _, part := range strings.Split(s, ",") {
		m := Measure(strings.TrimSpace(strings.ToLower(part)))
		if !m.valid() {
			return nil, queryErrorf("unknown measure %q (known: %s)", part, knownMeasureList())
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, queryErrorf("empty measure list (known: %s)", knownMeasureList())
	}
	return out, nil
}

func knownMeasureList() string {
	names := make([]string, 0, len(AllMeasures()))
	for _, m := range AllMeasures() {
		names = append(names, string(m))
	}
	return strings.Join(names, ", ")
}

// ParsePGrid parses a comma-separated failure-probability grid
// ("0.1,0.25,0.5") into a float slice, validating each value into [0,1].
func ParsePGrid(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, queryErrorf("bad probability %q: want a float in [0,1]", part)
		}
		// The negated form rejects NaN, which both plain comparisons miss.
		if !(p >= 0 && p <= 1) {
			return nil, queryErrorf("probability %v out of [0,1]", p)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, queryErrorf("empty probability grid")
	}
	return out, nil
}

// PGrid returns a uniform n-point grid over [lo, hi] inclusive — the
// usual sweep axis of the paper's figures.
func PGrid(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// MaxQueryTrials bounds the Monte Carlo trials one Query may request,
// and is the default trial budget of a tolerance-driven estimate that
// never reaches its target precision. Queries cross the wire, so an
// unbounded count would let a single small /v1/eval or /v1/stream
// request occupy the server indefinitely. Note the session's WithTrials
// default applies only to fixed-trial estimates: an adaptive query with
// no Trials of its own runs against this cap, so operators bounding
// adaptive work per request set Trials on the query.
const MaxQueryTrials = 10_000_000

// Query is a declarative evaluation request: one system — named by a
// Spec string ("maj:13") or given directly as a System value — a set of
// measures, and a grid of failure probabilities for the p-dependent
// measures. Evaluator.Do executes a Query; Evaluator.DoBatch fans a
// slice of them out in parallel over the session's artifact caches.
//
// Zero Trials and zero Seed inherit the session's Monte Carlo settings;
// they only matter when Measures includes MeasureEstimate.
//
// The JSON encoding of a Query is the wire request format of the
// probeserved service. System does not cross the wire: remote queries
// name systems by Spec.
type Query struct {
	// Spec names the system through the construction registry, e.g.
	// "maj:13" or "cw:1,3,2". Ignored when System is non-nil.
	Spec string `json:"spec,omitempty"`
	// System is the system value to evaluate, for in-process callers
	// that already hold one. Takes precedence over Spec.
	System System `json:"-"`
	// Measures lists the requested quantities; at least one is required.
	Measures []Measure `json:"measures"`
	// Ps is the failure-probability grid, required exactly when a
	// p-dependent measure (ppc, availability, expected, estimate) is
	// requested. Every value must lie in [0,1].
	Ps []float64 `json:"ps,omitempty"`
	// Trials overrides the session's Monte Carlo trial count (0 inherits).
	// When Tolerance is set, Trials instead bounds the adaptive run (0
	// meaning MaxQueryTrials).
	Trials int `json:"trials,omitempty"`
	// Seed overrides the session's Monte Carlo seed (0 inherits).
	Seed uint64 `json:"seed,omitempty"`
	// Tolerance, when positive, turns the estimate measure adaptive: at
	// every accumulated trial chunk the running 95% confidence
	// half-interval is checked against it, and the point stops as soon as
	// the half-interval reaches the target — bounded by Trials (or
	// MaxQueryTrials when Trials is 0). The achieved half-interval and
	// the trials spent are recorded per point in Estimate. Zero or
	// negative keeps today's fixed-trial behavior, bit-identical for the
	// same (trials, seed). The stopping point depends only on
	// (seed, tolerance, budget), never on parallelism or timing.
	//
	// A positive Tolerance additionally permits the session's
	// approximate-answer cache (see WithApprox) to serve the exact per-p
	// measures (ppc, availability) from nearby sampled parameters, when
	// the interpolation error bound fits inside the tolerance; such
	// answers carry an ApproxNote stating the achieved bound. ppc is
	// served only for ND coteries and never from a bracket around
	// p = 1/2, where it peaks; the bound assumes it is monotone on each
	// half, which is checked on the registry, not proven. With Tolerance
	// zero the approximate tier is never consulted and every answer is
	// bit-identical to an uncached evaluation.
	Tolerance float64 `json:"tolerance,omitempty"`
	// DeadlineMS is the query's deadline budget in milliseconds for the
	// exact measures (pc, tree, ppc, availability). When an exact solve
	// cannot finish inside the budget the query does not fail: the Result
	// (or stream Cell) carries a typed Degraded note for that measure,
	// and where a Monte Carlo fallback exists (ppc, availability) an
	// estimate with its 95% CI stands in for the exact value. Zero means
	// no budget. Servers cap it at their -maxdeadline.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// ReadFractions is the read-fraction grid, required exactly when a
	// planner measure (load, capacity) is requested — the workload axis
	// those measures sweep, as Ps is the availability axis. Every value
	// must lie in [0,1].
	ReadFractions []float64 `json:"read_fractions,omitempty"`
	// Capacities sets both the per-node read and write capacities for the
	// planner measures (length n, positive finite values). Nil means unit
	// capacities. ReadCapacities/WriteCapacities override it per role.
	Capacities []float64 `json:"capacities,omitempty"`
	// ReadCapacities and WriteCapacities set role-specific per-node
	// capacities, overriding Capacities for that role.
	ReadCapacities  []float64 `json:"read_capacities,omitempty"`
	WriteCapacities []float64 `json:"write_capacities,omitempty"`
	// F, when positive, restricts optimized strategies to F-resilient
	// quorums: the load/capacity values then describe a deployment that
	// keeps live quorums through any F crashes.
	F int `json:"f,omitempty"`
	// Latency is the probe latency spec of the timed measures (the
	// internal/des grammar: const:MS, uniform:LO,HI, exp:MEAN,
	// lognorm:MU,SIGMA, each with an optional +zone:NZONES,OFFMS suffix).
	// Empty means instant probes. Inert unless a timed measure is
	// requested.
	Latency string `json:"latency,omitempty"`
	// Churn is the churn plan spec of the timed measures (flap:UP,DOWN,
	// zoneout:NZONES,START,DUR, or script:STEP;...). Empty means element
	// states are frozen at the initial coloring.
	Churn string `json:"churn,omitempty"`
	// Window is the timed issue discipline's in-flight cap: 0 or 1 is
	// sequential, k > 1 keeps up to k probes outstanding.
	Window int `json:"window,omitempty"`
	// HedgeMS, when positive, arms a hedge timer on every issued probe: a
	// probe still outstanding after HedgeMS virtual ms triggers one extra
	// speculative issue.
	HedgeMS float64 `json:"hedge_ms,omitempty"`
	// TimedDeadlineMS is the virtual reach deadline of the timed-reach
	// measure, required exactly when that measure is requested. It is a
	// scenario parameter on the virtual clock — unrelated to DeadlineMS,
	// the wall-clock compute budget.
	TimedDeadlineMS float64 `json:"timed_deadline_ms,omitempty"`
	// TimedStrategy selects the strategy family the temporal engine
	// schedules: "d" (default) the deterministic one, "r" the randomized
	// worst-case one.
	TimedStrategy string `json:"timed_strategy,omitempty"`
}

// readCaps resolves the effective per-node read capacities (nil = unit).
func (q Query) readCaps() []float64 {
	if q.ReadCapacities != nil {
		return q.ReadCapacities
	}
	return q.Capacities
}

// writeCaps resolves the effective per-node write capacities (nil = unit).
func (q Query) writeCaps() []float64 {
	if q.WriteCapacities != nil {
		return q.WriteCapacities
	}
	return q.Capacities
}

// normalized validates the query and returns a canonical copy: measures
// lower-cased, deduplicated and checked, the p grid checked, and the
// spec trimmed. A query requesting a timed measure also gets its
// compiled temporal scenario (nil otherwise).
func (q Query) normalized() (Query, *des.Scenario, error) {
	q.Spec = strings.TrimSpace(q.Spec)
	if q.System == nil && q.Spec == "" {
		return q, nil, queryErrorf("query names no system (set Spec or System)")
	}
	if len(q.Measures) == 0 {
		return q, nil, queryErrorf("query requests no measures (known: %s)", knownMeasureList())
	}
	var ms []Measure
	seen := map[Measure]bool{}
	needP := false
	for _, m := range q.Measures {
		m = Measure(strings.TrimSpace(strings.ToLower(string(m))))
		if !m.valid() {
			return q, nil, queryErrorf("unknown measure %q (known: %s)", m, knownMeasureList())
		}
		if seen[m] {
			continue
		}
		seen[m] = true
		ms = append(ms, m)
		needP = needP || m.perP()
	}
	q.Measures = ms
	if needP && len(q.Ps) == 0 {
		return q, nil, queryErrorf("measures %v need a probability grid (set Ps)", q.Measures)
	}
	if !needP {
		// No p-dependent measure: the grid is inert, so drop it rather
		// than emit empty points.
		q.Ps = nil
	}
	for _, p := range q.Ps {
		// The negated form rejects NaN, which both plain comparisons miss.
		if !(p >= 0 && p <= 1) {
			return q, nil, queryErrorf("probability %v out of [0,1]", p)
		}
	}
	needFr := false
	for _, m := range q.Measures {
		needFr = needFr || m.perFr()
	}
	if needFr && len(q.ReadFractions) == 0 {
		return q, nil, queryErrorf("measures %v need a read-fraction grid (set ReadFractions)", q.Measures)
	}
	if !needFr {
		// No planner measure: the read-fraction grid is inert, so drop it
		// rather than emit empty planner points. The capacities stay: the
		// resilience measure does not read them, but callers composing
		// queries incrementally should not find their workload erased.
		q.ReadFractions = nil
	}
	for _, fr := range q.ReadFractions {
		// The negated form rejects NaN, which both plain comparisons miss.
		if !(fr >= 0 && fr <= 1) {
			return q, nil, queryErrorf("read fraction %v out of [0,1]", fr)
		}
	}
	// A fixed role order (shared, read, write) gives one error text for a
	// query with several bad vectors.
	for _, rc := range []struct {
		role string
		caps []float64
	}{{"", q.Capacities}, {"read ", q.ReadCapacities}, {"write ", q.WriteCapacities}} {
		for i, c := range rc.caps {
			if !(c > 0) || math.IsInf(c, 0) {
				return q, nil, queryErrorf("%scapacity of node %d is %v; want a positive finite value", rc.role, i, c)
			}
		}
	}
	if q.F < 0 {
		return q, nil, queryErrorf("negative resilience requirement f=%d", q.F)
	}
	if q.Trials < 0 {
		return q, nil, queryErrorf("negative trial count %d", q.Trials)
	}
	if q.Trials > MaxQueryTrials {
		return q, nil, queryErrorf("trial count %d exceeds the per-query cap %d", q.Trials, MaxQueryTrials)
	}
	if math.IsNaN(q.Tolerance) {
		return q, nil, queryErrorf("tolerance is NaN")
	}
	if q.DeadlineMS < 0 {
		return q, nil, queryErrorf("negative deadline %dms", q.DeadlineMS)
	}
	if q.Tolerance < 0 {
		// Negative means "disabled", same as zero; canonicalize so the
		// fixed-trial path is taken on exactly one value.
		q.Tolerance = 0
	}
	q.TimedStrategy = strings.TrimSpace(strings.ToLower(q.TimedStrategy))
	switch q.TimedStrategy {
	case "", "d", "r":
	default:
		return q, nil, queryErrorf("unknown timed strategy %q (known: d, r)", q.TimedStrategy)
	}
	if !q.hasTimed() {
		return q, nil, nil
	}
	scen, err := des.Compile(q.timedOptions())
	if err != nil {
		return q, nil, queryErrorf("bad timed scenario: %v", err)
	}
	if q.has(MeasureTimedReach) && !(q.TimedDeadlineMS > 0) {
		return q, nil, queryErrorf("measure timed-reach needs a positive virtual deadline (set TimedDeadlineMS)")
	}
	return q, scen, nil
}

// hasTimed reports whether the normalized query requests any temporal
// measure.
func (q Query) hasTimed() bool {
	for _, m := range q.Measures {
		if m.Timed() {
			return true
		}
	}
	return false
}

// timedOptions maps the query's timed fields onto the temporal engine's
// scenario options.
func (q Query) timedOptions() des.Options {
	return des.Options{
		Latency:    q.Latency,
		Churn:      q.Churn,
		Window:     q.Window,
		HedgeMS:    q.HedgeMS,
		DeadlineMS: q.TimedDeadlineMS,
		Randomized: q.TimedStrategy == "r",
	}
}

// adaptive reports whether the normalized query runs tolerance-driven
// estimation, and the trial budget bounding it.
func (q Query) adaptive() (bool, int) {
	if q.Tolerance <= 0 || !q.has(MeasureEstimate) {
		return false, 0
	}
	if q.Trials > 0 {
		return true, q.Trials
	}
	return true, MaxQueryTrials
}

// has reports whether the normalized query requests the measure.
func (q Query) has(m Measure) bool {
	for _, got := range q.Measures {
		if got == m {
			return true
		}
	}
	return false
}

// Estimate is a Monte Carlo summary: the sample mean and the 95%
// confidence half-interval. Trials is the number of trials the point
// actually consumed — under a Tolerance target that is where the
// adaptive run stopped, and HalfCI records the precision it achieved.
type Estimate struct {
	Mean   float64 `json:"mean"`
	HalfCI float64 `json:"half_ci"`
	Trials int     `json:"trials,omitempty"`
}

// DegradeDeadline is the Degradation reason for an exact solve that ran
// out of its Query.DeadlineMS budget.
const DegradeDeadline = "deadline"

// Degradation is a typed note that one exact measure could not be
// computed within the query's constraints and was degraded rather than
// failed. Measure names what degraded; Reason says why (currently only
// DegradeDeadline). For measures with a Monte Carlo fallback (ppc,
// availability) Estimate carries the substitute value with its 95% CI;
// for the rest (pc, tree) the note stands alone and the exact field is
// simply absent.
type Degradation struct {
	Measure  Measure   `json:"measure"`
	Reason   string    `json:"reason"`
	Estimate *Estimate `json:"estimate,omitempty"`
}

// TimedDist summarizes a per-trial distribution of the temporal engine
// in virtual milliseconds.
type TimedDist struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// TimedFlight is the probes-in-flight profile of a timed run: the
// time-averaged and peak in-flight counts, plus the probes the temporal
// engine issued against the static strategy's count on the same initial
// colorings (the speculation overhead of windowed and hedged issue).
type TimedFlight struct {
	MeanInFlight float64 `json:"mean_inflight"`
	MaxInFlight  int     `json:"max_inflight"`
	IssuedMean   float64 `json:"issued_mean"`
	StaticMean   float64 `json:"static_mean"`
}

// TimedSummary aggregates one timed run at one grid point — a single
// simulation feeds every requested timed measure. It is the payload of
// timed stream cells; folded Results split it across the Point fields.
type TimedSummary struct {
	TTQ    TimedDist   `json:"ttq"`
	Flight TimedFlight `json:"flight"`
	Reach  float64     `json:"reach"`
	Trials int         `json:"trials"`
}

// TreeSummary describes a worst-case-optimal probe strategy tree.
type TreeSummary struct {
	// Depth is the worst-case probe count of the tree (equals PC).
	Depth int `json:"depth"`
	// Leaves is the number of leaves (terminal knowledge states).
	Leaves int `json:"leaves"`
	// ASCII is the rendering in the paper's Fig. 4 notation.
	ASCII string `json:"ascii"`
}

// RWPoint carries the planner measures of a Result at one read-fraction
// grid point. Absent measures are nil, so the JSON encoding only ships
// what the query asked for.
type RWPoint struct {
	ReadFraction float64  `json:"read_fraction"`
	Load         *float64 `json:"load,omitempty"`
	Capacity     *float64 `json:"capacity,omitempty"`
	// Degraded lists the planner measures that could not be computed at
	// this grid point within the query's constraints.
	Degraded []Degradation `json:"degraded,omitempty"`
}

// ApproxNote marks a value served by the approximate-answer cache
// instead of an exact solve, and states the guarantee it came with: the
// true exact value differs from the served one by at most Bound, which
// the session verified against the query's Tolerance before serving.
// Lo and Hi are the exactly-sampled parameters bracketing P (both equal
// to P when the parameter itself was sampled and Bound is zero).
type ApproxNote struct {
	Measure Measure `json:"measure"`
	P       float64 `json:"p"`
	Bound   float64 `json:"bound"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}

// Point carries the p-dependent measures of a Result at one grid point.
// Absent measures are nil, so the JSON encoding only ships what the
// query asked for.
type Point struct {
	P            float64   `json:"p"`
	PPC          *float64  `json:"ppc,omitempty"`
	Availability *float64  `json:"availability,omitempty"`
	Expected     *float64  `json:"expected,omitempty"`
	Estimate     *Estimate `json:"estimate,omitempty"`
	// TimedTTQ, TimedReach and TimedInFlight carry the temporal measures
	// (timed-ttq, timed-reach, timed-inflight) at this grid point.
	TimedTTQ      *TimedDist   `json:"timed_ttq,omitempty"`
	TimedReach    *float64     `json:"timed_reach,omitempty"`
	TimedInFlight *TimedFlight `json:"timed_inflight,omitempty"`
	// Approx lists the measures at this grid point that were served by
	// the approximate-answer cache, each with its guaranteed error
	// bound. Empty on every exactly-answered point.
	Approx []ApproxNote `json:"approx,omitempty"`
	// Degraded lists the p-dependent exact measures that ran out of the
	// query's deadline budget at this grid point, each with its Monte
	// Carlo substitute where one exists.
	Degraded []Degradation `json:"degraded,omitempty"`
}

// Result is the answer to one Query, with a stable JSON encoding shared
// by Evaluator.DoBatch, the probeserved service and quorumctl -json.
// Exactly the requested measures are populated; everything else stays at
// its zero value and is omitted from the encoding.
type Result struct {
	// Spec is the canonical spec of the evaluated system ("" when the
	// system has no Specced capability).
	Spec string `json:"spec,omitempty"`
	// Name and N identify the system (Name() and Size()).
	Name string `json:"name,omitempty"`
	N    int    `json:"n,omitempty"`
	// PC is the worst-case probe complexity (measure "pc").
	PC *int `json:"pc,omitempty"`
	// Tree summarizes the optimal strategy tree (measure "tree").
	Tree *TreeSummary `json:"tree,omitempty"`
	// Points holds the p-dependent measures, one entry per grid point in
	// query order.
	Points []Point `json:"points,omitempty"`
	// Resilience is the crash resilience of the read/write pair (measure
	// "resilience").
	Resilience *int `json:"resilience,omitempty"`
	// RWPoints holds the planner measures, one entry per ReadFractions
	// grid point in query order.
	RWPoints []RWPoint `json:"rw_points,omitempty"`
	// Degraded lists the per-system exact measures (pc, tree) that ran
	// out of the query's deadline budget; per-point degradations live on
	// the Points entries.
	Degraded []Degradation `json:"degraded,omitempty"`
	// Trials and Seed are the effective Monte Carlo settings (only set
	// when the query asked for an estimate).
	Trials int    `json:"trials,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Error reports a failed query in batch and wire responses; the
	// other fields are then untrustworthy.
	Error string `json:"error,omitempty"`
}

// Point returns the result point at probability p, or nil when the grid
// does not contain it.
func (r *Result) Point(p float64) *Point {
	for i := range r.Points {
		if r.Points[i].P == p {
			return &r.Points[i]
		}
	}
	return nil
}

// RWPoint returns the planner point at read fraction fr, or nil when
// the grid does not contain it.
func (r *Result) RWPoint(fr float64) *RWPoint {
	for i := range r.RWPoints {
		if r.RWPoints[i].ReadFraction == fr {
			return &r.RWPoints[i]
		}
	}
	return nil
}

// SpecQueries builds one uniform Query per spec string — the batch shape
// of sweep workloads: the same measures and grid across a fleet of
// systems.
func SpecQueries(specs []string, measures []Measure, ps []float64) []Query {
	out := make([]Query, len(specs))
	for i, s := range specs {
		out[i] = Query{Spec: s, Measures: measures, Ps: ps}
	}
	return out
}
