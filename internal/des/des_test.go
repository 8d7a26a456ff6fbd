package des

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// smallSystems returns one instance of every construction small enough
// for exhaustive coloring enumeration.
func smallSystems(t *testing.T) []quorum.System {
	t.Helper()
	var out []quorum.System
	add := func(sys quorum.System, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("building system: %v", err)
		}
		if sys.Size() > 14 {
			t.Fatalf("system %s too large for exhaustive differential: n=%d", sys.Name(), sys.Size())
		}
		out = append(out, sys)
	}
	add(systems.NewMaj(5))
	add(systems.NewWheel(6))
	add(systems.NewCW([]int{1, 3, 5}))
	add(systems.NewTriang(3))
	add(systems.NewTree(2))
	add(systems.NewHQS(2))
	add(systems.NewVote([]int{3, 1, 1, 1, 1}))
	add(systems.NewRecMaj(3, 2))
	return out
}

func mustCompile(t *testing.T, o Options) *Scenario {
	t.Helper()
	sc, err := Compile(o)
	if err != nil {
		t.Fatalf("Compile(%+v): %v", o, err)
	}
	return sc
}

func TestEventQueueOrder(t *testing.T) {
	q := newEventQueue(4)
	q.push(3.0, evArrival, 0)
	q.push(1.0, evArrival, 1)
	q.push(2.0, evHedge, 2)
	q.push(1.0, evHedge, 3) // same time as elem 1: FIFO by issue order
	q.push(0.5, evArrival, 4)
	wantElems := []int{4, 1, 3, 2, 0}
	for i, want := range wantElems {
		if q.len() == 0 {
			t.Fatalf("queue empty after %d pops, want %d events", i, len(wantElems))
		}
		if got := q.pop(); got.elem != want {
			t.Fatalf("pop %d: got elem %d, want %d", i, got.elem, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after draining: %d left", q.len())
	}
}

func TestLatencyParse(t *testing.T) {
	for _, spec := range []string{"", "const:5", "uniform:1,9", "exp:2.5", "lognorm:1,0.5", "exp:3+zone:4,10"} {
		l, err := ParseLatency(spec)
		if err != nil {
			t.Fatalf("ParseLatency(%q): %v", spec, err)
		}
		// Canonical form re-parses to itself.
		l2, err := ParseLatency(l.String())
		if err != nil || l2.String() != l.String() {
			t.Fatalf("ParseLatency(%q) not canonical: %q, err=%v", spec, l2.String(), err)
		}
	}
	for _, spec := range []string{"const", "const:x", "uniform:9,1", "exp:-1", "warp:3", "exp:1+zone:0,5", "exp:1+shard:2,5"} {
		if _, err := ParseLatency(spec); err == nil {
			t.Fatalf("ParseLatency(%q): want error", spec)
		} else if _, ok := err.(*ScenarioError); !ok {
			t.Fatalf("ParseLatency(%q): error %T, want *ScenarioError", spec, err)
		}
	}
}

func TestLatencySample(t *testing.T) {
	l, err := ParseLatency("uniform:2,6+zone:3,100")
	if err != nil {
		t.Fatal(err)
	}
	var g1, g2 prng
	g1.seed(1, 2)
	g2.seed(1, 2)
	for e := 0; e < 9; e++ {
		a, b := l.sample(e, &g1), l.sample(e, &g2)
		if a != b {
			t.Fatalf("sample not deterministic for element %d: %v != %v", e, a, b)
		}
		base := a - float64(e%3)*100
		if base < 2 || base > 6 {
			t.Fatalf("element %d: base draw %v outside [2, 6]", e, base)
		}
	}
}

func TestChurnParse(t *testing.T) {
	for _, spec := range []string{"", "none", "flap:10,5", "zoneout:3,50,25", "script:down@10=0-4;up@20=2-2"} {
		c, err := ParseChurn(spec)
		if err != nil {
			t.Fatalf("ParseChurn(%q): %v", spec, err)
		}
		c2, err := ParseChurn(c.String())
		if err != nil || c2.String() != c.String() {
			t.Fatalf("ParseChurn(%q) not canonical: %q, err=%v", spec, c2.String(), err)
		}
	}
	for _, spec := range []string{"flap:0,5", "flap:5", "zoneout:0,1,1", "script:", "script:sideways@3=0-1", "script:down@-1=0-1", "script:down@1=4-2", "quake:1"} {
		if _, err := ParseChurn(spec); err == nil {
			t.Fatalf("ParseChurn(%q): want error", spec)
		}
	}
}

func TestChurnColorAt(t *testing.T) {
	t.Run("script", func(t *testing.T) {
		c, err := ParseChurn("script:down@10=0-4;up@20=2-2")
		if err != nil {
			t.Fatal(err)
		}
		var ct churnTrial
		ct.reset(&c, 1, 0)
		cases := []struct {
			e    int
			at   float64
			want coloring.Color
		}{
			{0, 5, coloring.Green}, // before the outage
			{0, 10, coloring.Red},  // down from t=10
			{0, 25, coloring.Red},  // stays down
			{2, 15, coloring.Red},  // in the outage range
			{2, 20, coloring.Green},
			{5, 15, coloring.Green}, // outside the range
		}
		for _, tc := range cases {
			if got := c.colorAt(&ct, tc.e, tc.at, coloring.Green); got != tc.want {
				t.Fatalf("colorAt(e=%d, t=%v) = %s, want %s", tc.e, tc.at, got, tc.want)
			}
		}
	})
	t.Run("zoneout", func(t *testing.T) {
		c, err := ParseChurn("zoneout:3,50,25")
		if err != nil {
			t.Fatal(err)
		}
		var ct churnTrial
		ct.reset(&c, 7, 3)
		if ct.zone < 0 || ct.zone >= 3 {
			t.Fatalf("drawn zone %d outside [0, 3)", ct.zone)
		}
		var ct2 churnTrial
		ct2.reset(&c, 7, 3)
		if ct2.zone != ct.zone {
			t.Fatalf("zone draw not deterministic: %d != %d", ct2.zone, ct.zone)
		}
		for e := 0; e < 9; e++ {
			inZone := e%3 == ct.zone
			if got := c.colorAt(&ct, e, 60, coloring.Green); (got == coloring.Red) != inZone {
				t.Fatalf("element %d at t=60: %s, inZone=%t", e, got, inZone)
			}
			if got := c.colorAt(&ct, e, 80, coloring.Green); got != coloring.Green {
				t.Fatalf("element %d after the window: %s, want green", e, got)
			}
		}
	})
	t.Run("flap", func(t *testing.T) {
		c, err := ParseChurn("flap:10,5")
		if err != nil {
			t.Fatal(err)
		}
		var ct churnTrial
		ct.reset(&c, 11, 2)
		// The walk is a pure function of (seed, trial, e, t): repeated and
		// out-of-order queries agree.
		first := make([]coloring.Color, 40)
		for i := range first {
			first[i] = c.colorAt(&ct, 3, float64(i), coloring.Green)
		}
		for i := len(first) - 1; i >= 0; i-- {
			if got := c.colorAt(&ct, 3, float64(i), coloring.Green); got != first[i] {
				t.Fatalf("flap walk not reproducible at t=%d: %s != %s", i, got, first[i])
			}
		}
		if c.colorAt(&ct, 3, 0, coloring.Red) != coloring.Red {
			t.Fatal("flap walk must start from the base color at t=0")
		}
	})
}

func TestCompileValidation(t *testing.T) {
	for _, o := range []Options{
		{Latency: "warp:1"},
		{Churn: "quake:1"},
		{Window: -1},
		{HedgeMS: -1},
		{HedgeMS: math.NaN()},
		{DeadlineMS: -1},
	} {
		if _, err := Compile(o); err == nil {
			t.Fatalf("Compile(%+v): want error", o)
		} else if _, ok := err.(*ScenarioError); !ok {
			t.Fatalf("Compile(%+v): error %T, want *ScenarioError", o, err)
		}
	}
	a := mustCompile(t, Options{Latency: "exp:3", Window: 0})
	b := mustCompile(t, Options{Latency: "exp:3", Window: 1})
	if a.Key() != b.Key() {
		t.Fatalf("window 0 and 1 are both sequential but key %q != %q", a.Key(), b.Key())
	}
}

// staticOrder runs the untimed strategy against col and returns its
// probe order, with the same rng derivation the scheduler uses.
func staticOrder(t *testing.T, sys quorum.System, col *coloring.Coloring, randomized bool, seed uint64, trial int) []int {
	t.Helper()
	o := probe.NewOracle(col)
	if randomized {
		rp, ok := sys.(probe.RandomizedProber)
		if !ok {
			t.Fatalf("system %s is not a RandomizedProber", sys.Name())
		}
		rng := rand.New(rand.NewPCG(seed^saltStrategy, uint64(trial)+1))
		rp.ProbeWitnessRandomized(o, rng)
	} else {
		pr, ok := sys.(probe.Prober)
		if !ok {
			t.Fatalf("system %s is not a Prober", sys.Name())
		}
		pr.ProbeWitness(o)
	}
	return o.Order()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestZeroLatencyDifferentialExhaustive is the tentpole contract: with
// zero latency, zero churn and the sequential discipline, the timed
// engine issues exactly the static strategy's probe sequence — for
// every construction, every coloring, both strategy families.
func TestZeroLatencyDifferentialExhaustive(t *testing.T) {
	for _, randomized := range []bool{false, true} {
		sc := mustCompile(t, Options{Randomized: randomized})
		for _, sys := range smallSystems(t) {
			n := sys.Size()
			trial := 0
			coloring.All(n, func(col *coloring.Coloring) bool {
				want := staticOrder(t, sys, col, randomized, 42, trial)
				got, err := IssueOrderFor(sys, sc, col, 42, trial)
				if err != nil {
					t.Fatalf("%s randomized=%t: IssueOrderFor: %v", sys.Name(), randomized, err)
				}
				if !equalInts(got, want) {
					t.Fatalf("%s randomized=%t coloring %v: timed order %v != static order %v",
						sys.Name(), randomized, col, got, want)
				}
				trial++
				return true
			})
		}
	}
}

// TestZeroLatencyDifferentialWide is the same contract on a wide
// universe with IID colorings from the static engine's stream.
func TestZeroLatencyDifferentialWide(t *testing.T) {
	sys, err := systems.NewMaj(1025)
	if err != nil {
		t.Fatal(err)
	}
	for _, randomized := range []bool{false, true} {
		sc := mustCompile(t, Options{Randomized: randomized})
		for trial := 0; trial < 5; trial++ {
			col := coloring.New(1025)
			rng := rand.New(rand.NewPCG(99, uint64(trial)+1))
			coloring.IIDInto(col, 0.3, rng)
			want := staticOrder(t, sys, col, randomized, 99, trial)
			got, err := IssueOrder(sys, sc, 0.3, 99, trial)
			if err != nil {
				t.Fatalf("randomized=%t trial %d: %v", randomized, trial, err)
			}
			if !equalInts(got, want) {
				t.Fatalf("randomized=%t trial %d: timed order (%d probes) != static order (%d probes)",
					randomized, trial, len(got), len(want))
			}
		}
	}
}

// TestConstLatencySequentialExact pins the simplest closed form: with
// const:5 latency, no churn and the sequential discipline, each trial's
// time to quorum is exactly 5 ms per static probe.
func TestConstLatencySequentialExact(t *testing.T) {
	sys, err := systems.NewMaj(11)
	if err != nil {
		t.Fatal(err)
	}
	sc := mustCompile(t, Options{Latency: "const:5"})
	res, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: sc, P: 0.3, Trials: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.IssuedMean != res.StaticMean {
		t.Fatalf("sequential discipline issued %v probes/trial, static %v", res.IssuedMean, res.StaticMean)
	}
	if got, want := res.TTQ.MeanMS, 5*res.StaticMean; math.Abs(got-want) > 1e-9 {
		t.Fatalf("TTQ mean %v ms, want exactly 5*static = %v", got, want)
	}
	if res.InFlightMax != 1 {
		t.Fatalf("sequential discipline peaked at %d in flight, want 1", res.InFlightMax)
	}
	if res.Reach != 1 {
		t.Fatalf("reach %v without a deadline, want 1", res.Reach)
	}
	if !(res.TTQ.P50MS <= res.TTQ.P99MS && res.TTQ.P99MS <= res.TTQ.MaxMS) {
		t.Fatalf("quantiles out of order: %+v", res.TTQ)
	}
}

// TestSeedDeterminismMatrix is the satellite contract: identical
// (seed, scenario, scheduler) yields bit-identical results at
// parallelism 1, 4 and GOMAXPROCS — including under latency spread,
// churn, windowed issue and hedging.
func TestSeedDeterminismMatrix(t *testing.T) {
	sys, err := systems.NewMaj(101)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Options{
		{Latency: "exp:4"},
		{Latency: "uniform:1,9+zone:3,5", Window: 4, Churn: "flap:40,10"},
		{Latency: "lognorm:1,0.7", HedgeMS: 3, Churn: "zoneout:4,10,30", DeadlineMS: 60},
		{Latency: "exp:4", Window: 3, Randomized: true},
	}
	for _, o := range scenarios {
		sc := mustCompile(t, o)
		var base Result
		for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			res, err := RunCtx(context.Background(), Params{
				Sys: sys, Scenario: sc, P: 0.25, Trials: 300, Seed: 13, Workers: workers,
			})
			if err != nil {
				t.Fatalf("scenario %s workers=%d: %v", sc.Key(), workers, err)
			}
			if i == 0 {
				base = res
			} else if res != base {
				t.Fatalf("scenario %s: workers=%d result differs from workers=1:\n%+v\n%+v",
					sc.Key(), workers, res, base)
			}
		}
		if base.TTQ.MeanMS <= 0 {
			t.Fatalf("scenario %s: degenerate TTQ %+v", sc.Key(), base.TTQ)
		}
	}
}

// TestWindowAndHedge checks the discipline mechanics: window-k bounds
// the in-flight peak, and hedging may push past it.
func TestWindowAndHedge(t *testing.T) {
	sys, err := systems.NewMaj(101)
	if err != nil {
		t.Fatal(err)
	}
	seq := mustCompile(t, Options{Latency: "exp:10"})
	win := mustCompile(t, Options{Latency: "exp:10", Window: 4})
	hedge := mustCompile(t, Options{Latency: "exp:10", Window: 4, HedgeMS: 1})
	run := func(sc *Scenario) Result {
		t.Helper()
		res, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: sc, P: 0.2, Trials: 200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rSeq, rWin, rHedge := run(seq), run(win), run(hedge)
	if rSeq.InFlightMax != 1 {
		t.Fatalf("sequential peak in flight %d, want 1", rSeq.InFlightMax)
	}
	if rWin.InFlightMax < 2 || rWin.InFlightMax > 4 {
		t.Fatalf("window-4 peak in flight %d, want in [2, 4]", rWin.InFlightMax)
	}
	if rHedge.InFlightMax <= 4 {
		t.Fatalf("hedged peak in flight %d, want above the window", rHedge.InFlightMax)
	}
	if !(rWin.TTQ.MeanMS < rSeq.TTQ.MeanMS) {
		t.Fatalf("window-4 TTQ %v not below sequential %v", rWin.TTQ.MeanMS, rSeq.TTQ.MeanMS)
	}
	if !(rWin.IssuedMean >= rWin.StaticMean) {
		t.Fatalf("window-4 issued %v below static %v", rWin.IssuedMean, rWin.StaticMean)
	}
}

// TestDeadlineReach checks the reach measure against the TTQ
// distribution it is defined by.
func TestDeadlineReach(t *testing.T) {
	sys, err := systems.NewMaj(31)
	if err != nil {
		t.Fatal(err)
	}
	tight := mustCompile(t, Options{Latency: "const:5", DeadlineMS: 1})
	loose := mustCompile(t, Options{Latency: "const:5", DeadlineMS: 1e6})
	rt, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: tight, P: 0.2, Trials: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: loose, P: 0.2, Trials: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Reach != 0 {
		t.Fatalf("1 ms deadline with 5 ms probes: reach %v, want 0", rt.Reach)
	}
	if rl.Reach != 1 {
		t.Fatalf("huge deadline: reach %v, want 1", rl.Reach)
	}
}

// TestChurnExtendsTTQ checks that a zone outage forces extra probing:
// with every probe 1 ms and sequential issue, TTQ is exactly the probe
// count, and killing half the universe mid-trial pushes it above the
// churn-free baseline (the strategy must wade through mixed colors to
// assemble either witness).
func TestChurnExtendsTTQ(t *testing.T) {
	sys, err := systems.NewMaj(31)
	if err != nil {
		t.Fatal(err)
	}
	none := mustCompile(t, Options{Latency: "const:1"})
	outage := mustCompile(t, Options{Latency: "const:1", Churn: "zoneout:2,0,100000"})
	rNone, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: none, P: 0, Trials: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rOut, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: outage, P: 0, Trials: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rNone.TTQ.MeanMS != 16 {
		t.Fatalf("churn-free all-green majority: TTQ mean %v ms, want 16", rNone.TTQ.MeanMS)
	}
	if !(rOut.TTQ.MeanMS > rNone.TTQ.MeanMS) {
		t.Fatalf("zone outage TTQ %v ms not above churn-free %v ms", rOut.TTQ.MeanMS, rNone.TTQ.MeanMS)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	sys, err := systems.NewMaj(1025)
	if err != nil {
		t.Fatal(err)
	}
	sc := mustCompile(t, Options{Latency: "exp:2"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, Params{Sys: sys, Scenario: sc, P: 0.3, Trials: 10000, Seed: 1}); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}

func TestRunCtxValidation(t *testing.T) {
	sys, err := systems.NewMaj(5)
	if err != nil {
		t.Fatal(err)
	}
	sc := mustCompile(t, Options{})
	for _, p := range []Params{
		{Scenario: sc, P: 0.5, Trials: 10},
		{Sys: sys, P: 0.5, Trials: 10},
		{Sys: sys, Scenario: sc, P: 0.5, Trials: 0},
		{Sys: sys, Scenario: sc, P: 1.5, Trials: 10},
		{Sys: sys, Scenario: sc, P: math.NaN(), Trials: 10},
	} {
		if _, err := RunCtx(context.Background(), p); err == nil {
			t.Fatalf("RunCtx(%+v): want error", p)
		}
	}
}

// hookedMaj is a test-only Maj whose strategies count their runs and,
// when hook is set, call it with each run's 1-based index first. A
// sequential trial makes exactly two runs in order: the static baseline
// and the timed run.
type hookedMaj struct {
	*systems.Maj
	runs atomic.Int64
	hook func(run int64, o probe.Oracle)
}

func newHookedMaj(t *testing.T, n int, hook func(run int64, o probe.Oracle)) *hookedMaj {
	t.Helper()
	m, err := systems.NewMaj(n)
	if err != nil {
		t.Fatal(err)
	}
	return &hookedMaj{Maj: m, hook: hook}
}

func (m *hookedMaj) enter(o probe.Oracle) {
	if run := m.runs.Add(1); m.hook != nil {
		m.hook(run, o)
	}
}

func (m *hookedMaj) ProbeWitness(o probe.Oracle) probe.Witness {
	m.enter(o)
	return m.Maj.ProbeWitness(o)
}

func (m *hookedMaj) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	m.enter(o)
	return m.Maj.ProbeWitnessRandomized(o, rng)
}

// TestRunCtxCancelBetweenTrials pins the per-trial cancellation check:
// a context canceled during trial 1 of a single-chunk sequential run
// stops the worker before trial 2, so the strategy runs exactly four
// times (two per trial).
func TestRunCtxCancelBetweenTrials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys := newHookedMaj(t, 5, func(run int64, _ probe.Oracle) {
		if run == 3 { // trial 1's static run
			cancel()
		}
	})
	sc := mustCompile(t, Options{Latency: "exp:2"})
	_, err := RunCtx(ctx, Params{Sys: sys, Scenario: sc, P: 0.3, Trials: trialChunk, Seed: 1, Workers: 1})
	if err != context.Canceled {
		t.Fatalf("run canceled mid-chunk returned %v, want context.Canceled", err)
	}
	if got := sys.runs.Load(); got != 4 {
		t.Fatalf("%d strategy runs after cancellation in trial 1, want 4", got)
	}
}

// TestRunCtxDeadlineInFlapWalk pins the churn-walk cancellation check:
// with probes taking 1e7 virtual ms and elements flapping every ~1 ms,
// each arrival walks ~1e7 flap steps (seconds of CPU per trial), yet a
// 10 ms deadline must end the run promptly with its error.
func TestRunCtxDeadlineInFlapWalk(t *testing.T) {
	sys, err := systems.NewMaj(5)
	if err != nil {
		t.Fatal(err)
	}
	sc := mustCompile(t, Options{Latency: "const:1e7", Churn: "flap:1,1"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = RunCtx(ctx, Params{Sys: sys, Scenario: sc, P: 0.3, Trials: 4, Seed: 1, Workers: 1})
	if err != context.DeadlineExceeded {
		t.Fatalf("deadline run returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("run returned %v after a 10ms deadline, want within 1s", elapsed)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms: workers of earlier runs may still be unwinding.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 20; still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// waitGoroutines waits for the goroutine count to fall back to at most
// base: a finished worker may still be unwinding when RunCtx returns.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after a %s run: %d goroutines, want at most %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunCtxGoroutineLeak checks that every worker releases its
// strategy coroutine: after a completed run, a canceled run and a run
// whose strategy panics mid-trial (which must still answer with the
// typed ScenarioError), the goroutine count is back where it started.
func TestRunCtxGoroutineLeak(t *testing.T) {
	sc := mustCompile(t, Options{Latency: "exp:3", Window: 4, HedgeMS: 2, Churn: "flap:30,10"})
	base := settledGoroutines()

	if _, err := RunCtx(context.Background(), Params{Sys: newHookedMaj(t, 101, nil), Scenario: sc, P: 0.3, Trials: 200, Seed: 3, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "completed")

	ctx, cancel := context.WithCancel(context.Background())
	canceling := newHookedMaj(t, 101, func(run int64, _ probe.Oracle) {
		if run == 50 {
			cancel()
		}
	})
	if _, err := RunCtx(ctx, Params{Sys: canceling, Scenario: sc, P: 0.3, Trials: 200, Seed: 3, Workers: 4}); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	cancel()
	waitGoroutines(t, base, "canceled")

	// Run 2 is trial 0's timed run: the panic fires inside the coroutine,
	// after the run has parked and been resumed on two probes.
	panicking := newHookedMaj(t, 101, func(run int64, o probe.Oracle) {
		if run == 2 {
			o.Probe(0)
			o.Probe(1)
			panic("strategy blew up")
		}
	})
	_, err := RunCtx(context.Background(), Params{Sys: panicking, Scenario: sc, P: 0.3, Trials: 10, Seed: 3, Workers: 1})
	var se *ScenarioError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "strategy blew up") {
		t.Fatalf("panicking strategy returned %v, want a *ScenarioError carrying the panic", err)
	}
	waitGoroutines(t, base, "panicking")
}

// strategyAllocs returns the allocations one run of sys's strategy makes
// on its own, against a reused static oracle.
func strategyAllocs(sys *hookedMaj, randomized bool) float64 {
	col := coloring.New(sys.Size())
	coloring.IIDInto(col, 0.3, rand.New(rand.NewPCG(1, 2)))
	o := probe.NewOracle(col)
	rng := rand.New(rand.NewPCG(3, 4))
	return testing.AllocsPerRun(20, func() {
		o.Reset()
		if randomized {
			sys.Maj.ProbeWitnessRandomized(o, rng)
		} else {
			sys.Maj.ProbeWitness(o)
		}
	})
}

// trialAllocs measures timed trials of sys on a warmed worker: their
// average allocations, events and strategy runs per trial.
func trialAllocs(t *testing.T, sys *hookedMaj, o Options, p float64) (allocs, events, runs float64) {
	t.Helper()
	sched, err := NewScheduler(sys, o.Randomized)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTrialState(sched, mustCompile(t, o), nil)
	defer ts.close()
	for trial := 0; trial < 4; trial++ {
		ts.runTrial(p, 7, trial, nil)
	}
	const measured = 20
	var call, trial, totalEvents, totalRuns int64 = 0, 4, 0, 0
	allocs = testing.AllocsPerRun(measured, func() {
		before := sys.runs.Load()
		out, _ := ts.runTrial(p, 7, int(trial), nil)
		trial++
		// AllocsPerRun's first call is an unmeasured warm-up.
		if call++; call > 1 {
			totalEvents += int64(out.events)
			totalRuns += sys.runs.Load() - before
		}
	})
	return allocs, float64(totalEvents) / measured, float64(totalRuns) / measured
}

// TestTrialAllocsSequential pins the sequential discipline's allocation
// profile: a maj:1025 trial processes hundreds of events, yet allocates
// only what its two strategy runs (the static baseline and the timed
// run) allocate themselves — nothing per event.
func TestTrialAllocsSequential(t *testing.T) {
	sys := newHookedMaj(t, 1025, nil)
	own := strategyAllocs(sys, false)
	allocs, events, runs := trialAllocs(t, sys, Options{Latency: "exp:3"}, 0.3)
	t.Logf("%v allocations, %v events, %v strategy runs per trial", allocs, events, runs)
	if events < 500 {
		t.Fatalf("only %v events per trial; the bound below needs a long trial", events)
	}
	if runs != 2 {
		t.Fatalf("%v strategy runs per sequential trial, want 2 (static and timed)", runs)
	}
	if allocs > 2*own {
		t.Fatalf("sequential maj:1025 trial allocated %v times over %v events, want at most its two strategy runs' %v",
			allocs, events, 2*own)
	}
}

// TestTrialAllocsWindowed pins the windowed and hedged disciplines'
// allocation profile. The event loop allocates nothing: a trial's only
// allocations are its strategy runs' own — the static run, the first
// timed run, and one more per restart (a consumed speculative green
// arriving red). At p = 0.3 that stays under two per event.
func TestTrialAllocsWindowed(t *testing.T) {
	for _, o := range []Options{
		{Latency: "exp:2", Window: 8},
		{Latency: "exp:2", Churn: "flap:40,8", Window: 8, HedgeMS: 6},
		{Latency: "exp:2", Window: 4, Randomized: true},
	} {
		sys := newHookedMaj(t, 129, nil)
		own := strategyAllocs(sys, o.Randomized)
		allocs, events, runs := trialAllocs(t, sys, o, 0.3)
		t.Logf("%+v: %v allocations, %v events, %v strategy runs per trial", o, allocs, events, runs)
		if allocs > own*runs {
			t.Errorf("%+v: %v allocations per trial, above its %v strategy runs' own %v",
				o, allocs, runs, own*runs)
		}
		if perEvent := allocs / events; perEvent > 2 {
			t.Errorf("%+v: %v allocations over %v events per trial (%.3f per event), want at most 2 per event",
				o, allocs, events, perEvent)
		}
	}
}
