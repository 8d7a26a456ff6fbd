package sim

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"

	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/stats"
	"probequorum/internal/systems"
)

func TestEstimateDeterministicReproducibility(t *testing.T) {
	f := func(rng *rand.Rand) float64 { return rng.Float64() }
	a := Estimate(500, 42, f)
	b := Estimate(500, 42, f)
	if a.Mean != b.Mean {
		t.Errorf("same seed gave different means: %v vs %v", a.Mean, b.Mean)
	}
	c := Estimate(500, 43, f)
	if a.Mean == c.Mean {
		t.Error("different seeds gave identical means")
	}
	// Uniform mean near 1/2.
	if math.Abs(a.Mean-0.5) > 0.05 {
		t.Errorf("uniform mean = %v", a.Mean)
	}
}

// The parallel Estimate must reproduce the sequential reference loop
// bit-for-bit: every Summary field exactly equal, for trial counts on
// both sides of the parallel threshold.
func TestEstimateParallelBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	f := func(rng *rand.Rand) float64 {
		// A skewed, rng-heavy payload so accumulation order would show.
		v := 0.0
		for i := 0; i < 7; i++ {
			v += math.Exp(rng.Float64()) / 3
		}
		return v
	}
	for _, trials := range []int{1, 100, parallelMinTrials, 5000} {
		for _, seed := range []uint64{1, 42, 1 << 40} {
			par := Estimate(trials, seed, f)
			seq := EstimateSeq(trials, seed, f)
			if par != seq {
				t.Errorf("trials=%d seed=%d: parallel %+v != sequential %+v", trials, seed, par, seq)
			}
		}
	}
}

// Per-worker state must reach every trial of its worker and the run must
// still reproduce the stateless loop exactly.
func TestEstimateWithReusesStatePerWorker(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	trials := 4000
	var states atomic.Int64
	got, err := EstimateAdaptiveCtx(context.Background(), trials, 7, 0,
		func() *[]float64 {
			states.Add(1)
			buf := make([]float64, 8)
			return &buf
		},
		func(rng *rand.Rand, buf *[]float64) float64 {
			// Reuse the buffer as scratch; its prior contents must not
			// matter for a correct trial function.
			total := 0.0
			for i := range *buf {
				(*buf)[i] = rng.Float64()
				total += (*buf)[i]
			}
			return total
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := EstimateSeq(trials, 7, func(rng *rand.Rand) float64 {
		total := 0.0
		for i := 0; i < 8; i++ {
			total += rng.Float64()
		}
		return total
	})
	if got != want {
		t.Errorf("per-worker state %+v != sequential %+v", got, want)
	}
	if n := states.Load(); n < 1 || n > 64 {
		t.Errorf("newState ran %d times, want one per worker", n)
	}
}

func TestEstimatePanicsOnBadTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Estimate(0, ...) did not panic")
		}
	}()
	Estimate(0, 1, func(*rand.Rand) float64 { return 0 })
}

func TestWorstCase(t *testing.T) {
	// Maximize the red count over all 3-element colorings.
	worst, argmax := WorstCase(AllColorings(3), func(c *coloring.Coloring) float64 {
		return float64(c.RedCount())
	})
	if worst != 3 {
		t.Errorf("worst = %v, want 3", worst)
	}
	if argmax.RedCount() != 3 {
		t.Errorf("argmax = %s", argmax)
	}
}

func TestWorstCaseOverDistribution(t *testing.T) {
	dist := coloring.UniformOverWeight(4, 2)
	worst, argmax := WorstCase(FromDistribution(dist), func(c *coloring.Coloring) float64 {
		// Prefer colorings whose first element is red.
		if c.IsRed(0) {
			return 2
		}
		return 1
	})
	if worst != 2 || !argmax.IsRed(0) {
		t.Errorf("worst = %v, argmax = %s", worst, argmax)
	}
}

func TestExpectedOver(t *testing.T) {
	dist := coloring.UniformOverWeight(4, 2)
	// Average red count over the fixed-weight distribution is exactly 2.
	got := ExpectedOver(dist, func(c *coloring.Coloring) float64 {
		return float64(c.RedCount())
	})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("ExpectedOver = %v, want 2", got)
	}
}

func TestExpectedIID(t *testing.T) {
	// E[red count] over IID(p) colorings of n elements is n*p.
	got := ExpectedIID(6, 0.3, func(c *coloring.Coloring) float64 {
		return float64(c.RedCount())
	})
	if math.Abs(got-1.8) > 1e-9 {
		t.Errorf("ExpectedIID = %v, want 1.8", got)
	}
}

func TestExpectedIIDGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ExpectedIID(25, ...) did not panic")
		}
	}()
	ExpectedIID(25, 0.5, func(*coloring.Coloring) float64 { return 0 })
}

func TestEstimateWithWorkersCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateAdaptiveCtx(ctx, 100000, 7, 0,
		func() struct{} { return struct{}{} },
		func(rng *rand.Rand, _ struct{}) float64 { return rng.Float64() }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestEstimateWithWorkersCtxMidRun(t *testing.T) {
	// Cancel from inside an early trial: the remaining chunks must be
	// abandoned and the run must report the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := EstimateAdaptiveCtx(ctx, 1<<20, 7, 0,
		func() struct{} { return struct{}{} },
		func(rng *rand.Rand, _ struct{}) float64 {
			if calls.Add(1) == 10 {
				cancel()
			}
			return rng.Float64()
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 1<<20 {
		t.Errorf("cancellation did not stop the trial loop: %d trials ran", n)
	}
	cancel()
}

// TestEstimateAdaptiveCheckpointsAreSequentialPrefixes pins the streaming
// contract: every Chunk a parallel run observes is the Welford summary of
// a trial-order prefix, bit-identical to what the sequential reference
// computes over the same prefix, independent of worker count.
func TestEstimateAdaptiveCheckpointsAreSequentialPrefixes(t *testing.T) {
	const trials, seed = 2048, 13
	f := func(rng *rand.Rand, _ struct{}) float64 { return rng.NormFloat64() }
	news := func() struct{} { return struct{}{} }

	for _, workers := range []int{1, 2, 7, 0} {
		var chunks []Chunk
		s, err := EstimateAdaptiveCtx(context.Background(), trials, seed, workers, news, f,
			func(c Chunk) bool {
				chunks = append(chunks, c)
				return false
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != trials/64 {
			t.Fatalf("workers=%d: %d checkpoints, want %d", workers, len(chunks), trials/64)
		}
		for i, c := range chunks {
			if c.Trials != (i+1)*64 {
				t.Fatalf("workers=%d: checkpoint %d at %d trials, want %d", workers, i, c.Trials, (i+1)*64)
			}
			ref := EstimateSeq(c.Trials, seed, func(rng *rand.Rand) float64 { return f(rng, struct{}{}) })
			if c.Summary != ref {
				t.Fatalf("workers=%d: checkpoint at %d trials %+v != sequential prefix %+v", workers, c.Trials, c.Summary, ref)
			}
		}
		if s != chunks[len(chunks)-1].Summary {
			t.Errorf("workers=%d: final summary %+v != last checkpoint %+v", workers, s, chunks[len(chunks)-1].Summary)
		}
	}
}

// TestEstimateAdaptiveStops pins early stopping: the run ends at the
// first checkpoint the observer rejects, the returned summary is exactly
// that prefix, and the stopping point is identical across worker counts.
func TestEstimateAdaptiveStops(t *testing.T) {
	const trials, seed, stopAt = 1 << 16, 5, 320
	f := func(rng *rand.Rand, _ struct{}) float64 { return rng.Float64() }
	news := func() struct{} { return struct{}{} }

	want := EstimateSeq(stopAt, seed, func(rng *rand.Rand) float64 { return f(rng, struct{}{}) })
	for _, workers := range []int{1, 3, 0} {
		var last Chunk
		s, err := EstimateAdaptiveCtx(context.Background(), trials, seed, workers, news, f,
			func(c Chunk) bool {
				last = c
				return c.Trials >= stopAt
			})
		if err != nil {
			t.Fatal(err)
		}
		if last.Trials != stopAt {
			t.Errorf("workers=%d: stopped at %d trials, want %d", workers, last.Trials, stopAt)
		}
		if s != want {
			t.Errorf("workers=%d: stopped summary %+v != %d-trial reference %+v", workers, s, stopAt, want)
		}
	}
}

// TestEstimateAdaptiveCancellation cancels mid-run from inside the
// observer and requires a prompt ctx.Err() with no summary.
func TestEstimateAdaptiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := EstimateAdaptiveCtx(ctx, 1<<20, 7, 0,
		func() struct{} { return struct{}{} },
		func(rng *rand.Rand, _ struct{}) float64 { return rng.Float64() },
		func(c Chunk) bool {
			if c.Trials >= 256 {
				cancel()
			}
			return false
		})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("observer-cancelled run: err = %v, want context.Canceled", err)
	}
}

// TestTrialStreamIsPCGOfSeedAndIndex pins what the per-worker generators
// must reproduce: trial i of every loop draws the stream of a fresh
// rand.New(rand.NewPCG(seed, i+1)), on the sequential path, the worker
// path and EstimateSeq alike.
func TestTrialStreamIsPCGOfSeedAndIndex(t *testing.T) {
	const seed, trials = 11, 1000
	var want stats.Accumulator
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewPCG(seed, uint64(i)+1))
		want.Add(float64(rng.Uint64()>>11) + float64(rng.Uint64()>>11))
	}
	f := func(rng *rand.Rand, _ struct{}) float64 {
		return float64(rng.Uint64()>>11) + float64(rng.Uint64()>>11)
	}
	for _, workers := range []int{1, 4} {
		got, err := EstimateAdaptiveCtx(context.Background(), trials, seed, workers,
			func() struct{} { return struct{}{} }, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Summary() {
			t.Errorf("workers=%d: %+v, want %+v", workers, got, want.Summary())
		}
	}
	if got := EstimateSeq(trials, seed, func(rng *rand.Rand) float64 { return f(rng, struct{}{}) }); got != want.Summary() {
		t.Errorf("EstimateSeq: %+v, want %+v", got, want.Summary())
	}
}

// TestWideEstimateLoopAllocsFlat pins the loop's allocation contract with
// a words trial (Maj(1025) on a per-worker WordsOracle): trials reuse
// their worker's generator and oracle, so the allocations do not grow
// with the trial count. The sequential path allocates no more for 4,096
// trials than for 64. The worker path needs at least 256 trials, and its
// chunk buffers and out-of-order map grow with how far workers run ahead
// of the in-order frontier; its 3,840 extra trials over a 256-trial run
// must stay under the benchmark's 0.05 allocations per trial (a fresh
// generator per trial cost two each).
func TestWideEstimateLoopAllocsFlat(t *testing.T) {
	m, err := systems.NewMaj(1025)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Size()
	newState := func() *probe.WordsOracle { return probe.NewWordsOracle(n) }
	trial := func(rng *rand.Rand, o *probe.WordsOracle) float64 {
		coloring.IIDWordsInto(o.RedWords(), n, 0.3, rng)
		o.Reset()
		m.ProbeWitnessWords(o)
		return float64(o.Probes())
	}
	allocs := func(trials, workers int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := EstimateAdaptiveCtx(context.Background(), trials, 7, workers, newState, trial, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(64, 1), allocs(4096, 1); many > few {
		t.Errorf("sequential path: %v allocations for 4096 trials, %v for 64", many, few)
	}
	few, many := allocs(parallelMinTrials, 4), allocs(4096, 4)
	if perTrial := (many - few) / float64(4096-parallelMinTrials); perTrial >= 0.05 {
		t.Errorf("worker path: %v allocations for 4096 trials, %v for %d: %.3f per extra trial",
			many, few, parallelMinTrials, perTrial)
	}
}
