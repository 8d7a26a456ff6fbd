package probequorum_test

// Tests for the single-flight artifact layer (PR 6): a stampede of
// identical cold queries builds each artifact exactly once, a cancelled
// leader hands its build to the waiting followers, a fully abandoned
// build caches nothing, and a panicking third-party System fails its
// query without poisoning the session or the process. All of these run
// under -race in the robustness CI gate.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"probequorum"
)

// blockingSystem wraps a built-in construction with a gate inside
// Quorums and ContainsQuorum: a witness-table build over a plain System
// seeds from Quorums(), so any artifact build parks on the gate until
// the test releases it, and tests control exactly when builds overlap.
// The pointer type is comparable, so the Evaluator caches it like any
// other system.
type blockingSystem struct {
	inner     probequorum.System
	gate      chan struct{}
	entered   chan struct{}
	enterOnce sync.Once
}

func newBlockingSystem(t *testing.T, specStr string) *blockingSystem {
	t.Helper()
	return &blockingSystem{
		inner:   probequorum.MustParse(specStr),
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
}

func (b *blockingSystem) Name() string { return "Blocking(" + b.inner.Name() + ")" }
func (b *blockingSystem) Size() int    { return b.inner.Size() }
func (b *blockingSystem) ContainsQuorum(s *probequorum.Set) bool {
	b.block()
	return b.inner.ContainsQuorum(s)
}
func (b *blockingSystem) Quorums() []*probequorum.Set {
	b.block()
	return b.inner.Quorums()
}
func (b *blockingSystem) block() {
	b.enterOnce.Do(func() { close(b.entered) })
	<-b.gate
}

// waitStat polls the stats snapshot until pred holds or the deadline
// passes.
func waitStat(t *testing.T, eval *probequorum.Evaluator, what string, pred func(probequorum.EvalStats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !pred(eval.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, eval.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColdStampedeCoalesces is the PR's headline acceptance test: 64
// concurrent identical cold PC queries trigger exactly one witness-table
// build and one PC solve — the other 63 queries coalesce onto the
// in-flight build and share its result.
func TestColdStampedeCoalesces(t *testing.T) {
	eval := probequorum.NewEvaluator()
	bs := newBlockingSystem(t, "maj:5")
	q := probequorum.Query{System: bs, Measures: []probequorum.Measure{probequorum.MeasurePC}}

	const callers = 64
	results := make([]*probequorum.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eval.Do(context.Background(), q)
		}(i)
	}
	// Hold the gate until every follower has found the leader's build:
	// 63 coalesce hits on the pc artifact, while the build blocks.
	waitStat(t, eval, "63 coalesced pc callers", func(s probequorum.EvalStats) bool {
		return s.Coalesced["pc"] == callers-1
	})
	close(bs.gate)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].PC == nil || *results[i].PC != 5 {
			t.Fatalf("caller %d: PC = %v, want 5", i, results[i].PC)
		}
	}
	stats := eval.Stats()
	if stats.Builds["pc"] != 1 || stats.Builds["table"] != 1 {
		t.Errorf("builds = %v, want exactly one pc and one table build", stats.Builds)
	}
	if stats.Coalesced["pc"] != callers-1 {
		t.Errorf("coalesced = %v, want %d pc hits", stats.Coalesced, callers-1)
	}
}

// TestSingleFlightFollowerTakeover cancels the leader that started a
// build while a follower waits on it: the build must survive the
// leader's departure and answer the follower — the PR 3 invariant
// (cancellation never poisons a cache) upgraded to a handover.
func TestSingleFlightFollowerTakeover(t *testing.T) {
	eval := probequorum.NewEvaluator()
	bs := newBlockingSystem(t, "maj:3")
	q := probequorum.Query{System: bs, Measures: []probequorum.Measure{probequorum.MeasurePC}}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eval.Do(leaderCtx, q)
		leaderErr <- err
	}()
	<-bs.entered // the leader's build is inside ContainsQuorum

	followerRes := make(chan *probequorum.Result, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := eval.Do(context.Background(), q)
		followerRes <- res
		followerErr <- err
	}()
	waitStat(t, eval, "the follower to coalesce", func(s probequorum.EvalStats) bool {
		return s.Coalesced["pc"] == 1
	})

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	close(bs.gate)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower err after leader cancel: %v", err)
	}
	res := <-followerRes
	if res.PC == nil || *res.PC != 3 {
		t.Fatalf("follower PC = %v, want 3", res.PC)
	}
	if stats := eval.Stats(); stats.Builds["pc"] != 1 {
		t.Errorf("builds = %v, want the single leader build to have served the follower", stats.Builds)
	}
}

// TestSingleFlightAllAbandonedRebuilds cancels every waiter of a build:
// the orphaned build is cancelled, caches nothing, and the next cold
// query rebuilds cleanly and answers correctly.
func TestSingleFlightAllAbandonedRebuilds(t *testing.T) {
	eval := probequorum.NewEvaluator()
	bs := newBlockingSystem(t, "maj:3")
	q := probequorum.Query{System: bs, Measures: []probequorum.Measure{probequorum.MeasurePC}}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eval.Do(ctx, q)
		errc <- err
	}()
	<-bs.entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The abandoned build is still parked on the gate with a cancelled
	// build context; releasing it lets it notice and die uncached. The
	// fresh query below may briefly join the dying build — the
	// single-flight retry loop must hand it a clean rebuild either way.
	close(bs.gate)
	res, err := eval.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("Do after abandoned build: %v", err)
	}
	if res.PC == nil || *res.PC != 3 {
		t.Fatalf("PC = %v, want 3", res.PC)
	}
}

// panickySystem blows up everywhere an evaluation can touch it — the
// third-party-System-gone-wrong scenario panic isolation exists for.
// Quorums panics inside witness-table builds (plain Systems seed from
// it).
type panickySystem struct{}

func (panickySystem) Name() string                           { return "Panicky(3)" }
func (panickySystem) Size() int                              { return 3 }
func (panickySystem) ContainsQuorum(s *probequorum.Set) bool { panic("panickySystem: kaboom") }
func (panickySystem) Quorums() []*probequorum.Set            { panic("panickySystem: kaboom") }

// redPanicSystem is a Prober-only Maj(3) whose strategy panics whenever
// element 0 is red: it passes an all-green dispatch check and blows up
// inside a Monte Carlo trial.
type redPanicSystem struct{ probequorum.System }

func (s redPanicSystem) ProbeWitness(o probequorum.Oracle) probequorum.Witness {
	if o.Probe(0) == probequorum.Red {
		panic("redPanicSystem: kaboom")
	}
	return s.System.(probequorum.Prober).ProbeWitness(o)
}

// TestPanicIsolation runs measures over systems that panic: every
// query fails with a typed *PanicError instead of killing the process,
// and the panic is never cached — each retry fails afresh.
func TestPanicIsolation(t *testing.T) {
	eval := probequorum.NewEvaluator()
	for name, q := range map[string]probequorum.Query{
		"pc":       {System: panickySystem{}, Measures: []probequorum.Measure{probequorum.MeasurePC}},
		"estimate": {System: redPanicSystem{probequorum.MustParse("maj:3")}, Measures: []probequorum.Measure{probequorum.MeasureEstimate}, Ps: []float64{0.5}, Trials: 1000},
	} {
		for attempt := 0; attempt < 2; attempt++ {
			_, err := eval.Do(context.Background(), q)
			if err == nil {
				t.Fatalf("%s attempt %d: Do succeeded over a panicking system", name, attempt)
			}
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("%s attempt %d: err = %v, want a panic report", name, attempt, err)
			}
			var pe *probequorum.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s attempt %d: err = %v, want *PanicError", name, attempt, err)
			}
		}
	}
	// The panics were recovered on worker and build goroutines; the
	// session still answers healthy queries.
	res, err := eval.Do(context.Background(), probequorum.Query{
		Spec: "maj:3", Measures: []probequorum.Measure{probequorum.MeasurePC},
	})
	if err != nil || res.PC == nil || *res.PC != 3 {
		t.Fatalf("healthy query after panics: res=%+v err=%v", res, err)
	}
}

// TestSingleFlightMemoHitAllocs pins the cost of a warm artifact read: a
// memo hit looks the artifact up by a comparable key and derives no
// store key, so it allocates at most once (the build closure its caller
// hands over), with or without a store attached. A strategy hit also
// renders its options key, which allocates on its own.
func TestSingleFlightMemoHitAllocs(t *testing.T) {
	ctx := context.Background()
	opts := probequorum.StrategyOptions{Workload: probequorum.Workload{ReadFraction: 0.5}}
	for _, withStore := range []bool{false, true} {
		var evalOpts []probequorum.EvaluatorOption
		if withStore {
			st, err := probequorum.OpenArtifactStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			evalOpts = append(evalOpts, probequorum.WithStore(st))
		}
		eval := probequorum.NewEvaluator(evalOpts...)
		type hit struct {
			name string
			max  float64
			call func() error
		}
		var hits []hit
		for _, sp := range []string{"wheel:8", "grid:3x3"} {
			sys := probequorum.MustParse(sp)
			hits = append(hits,
				hit{sp + " table", 1, func() error { _, err := eval.WitnessTableCtx(ctx, sys); return err }},
				hit{sp + " pc", 1, func() error { _, err := eval.ProbeComplexityCtx(ctx, sys); return err }},
				hit{sp + " ppc", 1, func() error { _, err := eval.AverageProbeComplexityCtx(ctx, sys, 0.3); return err }},
				hit{sp + " resilience", 1, func() error { _, err := eval.ResilienceCtx(ctx, sys); return err }},
			)
		}
		grid := probequorum.MustParse("grid:3x3")
		hits = append(hits, hit{"grid:3x3 strategy", 5, func() error { _, err := eval.StrategyCtx(ctx, grid, opts); return err }})

		for _, h := range hits {
			if err := h.call(); err != nil {
				t.Fatalf("store=%t: cold %s: %v", withStore, h.name, err)
			}
		}
		builds := totalBuilds(eval)
		for _, h := range hits {
			if got := testing.AllocsPerRun(100, func() { _ = h.call() }); got > h.max {
				t.Errorf("store=%t: a warm %s hit allocates %v times, want <= %v", withStore, h.name, got, h.max)
			}
		}
		if n := totalBuilds(eval); n != builds {
			t.Errorf("store=%t: warm hits ran %d more builds", withStore, n-builds)
		}
	}
}

// TestSingleFlightPermanentErrorsMemoized pins the memo's error policy:
// an artifact is a pure function of (system, key), so a permanent error
// is memoized like a value — the second identical query is a memo hit
// that answers the same error text without rebuilding.
func TestSingleFlightPermanentErrorsMemoized(t *testing.T) {
	ctx := context.Background()
	for kind, q := range map[string]probequorum.Query{
		// n = 36 is past the witness-table bound, and a grid has no
		// closed-form availability.
		"availpoly": {Spec: "grid:6x6", Measures: []probequorum.Measure{probequorum.MeasureAvailability}, Ps: []float64{0.3}},
		// No quorum of a 2x3 grid survives five failures.
		"strategy": {Spec: "grid:2x3", Measures: []probequorum.Measure{probequorum.MeasureLoad}, ReadFractions: []float64{0.5}, F: 5},
	} {
		eval := probequorum.NewEvaluator()
		var texts []string
		for i := 0; i < 2; i++ {
			_, err := eval.Do(ctx, q)
			if err == nil {
				t.Fatalf("%s query %d succeeded, want a permanent error", kind, i)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: the memoized error reads %q, the built one %q", kind, texts[1], texts[0])
		}
		if b := eval.Stats().Builds[kind]; b != 1 {
			t.Errorf("%s: Builds = %d after two identical failing queries, want 1", kind, b)
		}
	}
}
