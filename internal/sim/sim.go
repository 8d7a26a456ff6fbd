// Package sim is the Monte Carlo harness: seeded, reproducible trial
// loops, parameter sweeps and worst-case-input searches used by the
// experiment drivers and benchmarks.
//
// Trial loops run in parallel across GOMAXPROCS workers with results
// bit-identical to the sequential loop: every trial's PRNG stream is a
// function of (seed, trial index) alone, and the Welford accumulation
// runs over the trial values in trial order. Each worker owns one
// generator (a rand.Rand over a PCG) and reseeds it with
// PCG(seed, index+1) before every trial, so the loop allocates nothing
// per trial; the rng a trial function receives is therefore valid only
// during that call and must not be retained.
package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"probequorum/internal/coloring"
	"probequorum/internal/stats"
)

// parallelMinTrials is the smallest trial count worth spreading across
// goroutines; below it the handoff costs more than the work.
const parallelMinTrials = 256

// trialChunk is the number of consecutive trials a worker claims at once.
// It is also the accumulation granularity of the streaming estimate: the
// in-order Welford frontier advances one chunk at a time, so Chunk
// observers fire (and adaptive stopping decisions land) on trialChunk
// boundaries.
const trialChunk = 64

// Chunk is one in-order accumulation checkpoint of a running estimate:
// the Welford summary of the first Trials trial values, accumulated in
// trial order. Because every checkpoint is a fixed prefix of the
// deterministic (seed, trial index) value sequence, the sequence of
// Chunks — and any stopping decision made on it — is identical across
// worker counts and scheduling.
type Chunk struct {
	// Trials is the prefix length summarized so far.
	Trials int
	// Summary is the running mean/variance/stderr of that prefix.
	Summary stats.Summary
}

// Estimate runs trials independent evaluations of f, each on the PRNG
// stream PCG(seed, i+1) of its trial index i, and summarizes the results.
// Trials run concurrently, so f must be safe for concurrent invocation
// (any captured state must be read-only). Its rng is its worker's one
// generator, reseeded for the trial: it is valid only during the call and
// must not be retained. The summary is bit-identical to EstimateSeq for
// the same (trials, seed, f). A panicking trial panics with its
// *PanicError.
func Estimate(trials int, seed uint64, f func(rng *rand.Rand) float64) stats.Summary {
	s, err := EstimateAdaptiveCtx(context.Background(), trials, seed, 0,
		func() struct{} { return struct{}{} },
		func(rng *rand.Rand, _ struct{}) float64 { return f(rng) }, nil)
	if err != nil {
		panic(err) // a *PanicError: the background context is never done
	}
	return s
}

// EstimateAdaptiveCtx is the chunked core of every estimate loop: up to
// maxTrials trials run across workers (0 or negative for GOMAXPROCS),
// trial values are accumulated by Welford's algorithm in strict trial
// order, and observe (when non-nil) is called after every accumulated
// trialChunk-sized prefix and at the final trial with the running Chunk.
// observe returning true stops the run at that checkpoint: the returned
// summary is exactly the observed prefix, workers quit claiming further
// chunks, and values computed beyond the checkpoint are discarded. A nil
// observe runs all maxTrials trials.
//
// newState runs once per worker and its result is passed to every trial
// that worker executes, so hot loops can reuse coloring/oracle buffers
// instead of reallocating them per trial; f must be safe for concurrent
// invocation across distinct states. Each worker likewise owns one
// generator, reseeded to PCG(seed, i+1) before trial i: the rng f
// receives is valid only during that call and must not be retained. The
// loop itself allocates nothing per trial. Both the sequential and the
// parallel loops check ctx between chunks of trials, and a done context
// aborts the run with ctx.Err() and no summary.
//
// Because checkpoints are fixed prefixes of the deterministic
// (seed, trial index) value sequence, the Chunk sequence, any stopping
// decision made on it, and the returned summary are bit-identical across
// worker counts and goroutine scheduling, and a run that completes
// equals EstimateSeq over the same trials.
func EstimateAdaptiveCtx[S any](ctx context.Context, maxTrials int, seed uint64, workers int, newState func() S, f func(rng *rand.Rand, state S) float64, observe func(Chunk) (stop bool)) (stats.Summary, error) {
	if maxTrials <= 0 {
		panic(fmt.Sprintf("sim: trials must be positive, got %d", maxTrials))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxTrials < parallelMinTrials || workers <= 1 {
		var acc stats.Accumulator
		state := newState()
		g := newGenerator()
		var vals [trialChunk]float64
		for start := 0; start < maxTrials; start += trialChunk {
			if ctx.Err() != nil {
				return stats.Summary{}, ctx.Err()
			}
			end := min(start+trialChunk, maxTrials)
			if err := runTrials(g, seed, start, end, vals[:end-start], state, f); err != nil {
				return stats.Summary{}, err
			}
			for _, v := range vals[:end-start] {
				acc.Add(v)
			}
			if observe != nil && observe(Chunk{Trials: end, Summary: acc.Summary()}) {
				return acc.Summary(), nil
			}
		}
		return acc.Summary(), nil
	}

	nChunks := (maxTrials + trialChunk - 1) / trialChunk
	if workers > nChunks {
		workers = nChunks
	}

	// Workers claim chunks through the atomic counter and post each
	// finished chunk's value buffer to donec; the caller's goroutine is
	// the accumulator, advancing the in-order frontier over the posted
	// chunks (buffering the out-of-order ones) so the Welford sequence
	// replays exactly the sequential order. An adaptive stop closes stopc,
	// which both halts claiming and unblocks workers mid-post; buffers
	// recycle through a pool, so the loop's footprint is the out-of-order
	// window rather than the 8 bytes per trial the old slice needed.
	type doneChunk struct {
		index int
		buf   *[]float64
		n     int
	}
	pool := sync.Pool{New: func() any {
		b := make([]float64, trialChunk)
		return &b
	}}
	donec := make(chan doneChunk, 2*workers)
	stopc := make(chan struct{})
	var next atomic.Int64
	var stopped atomic.Bool
	var trialErr error
	var trialErrOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			g := newGenerator()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				start := int(next.Add(trialChunk)) - trialChunk
				if start >= maxTrials {
					return
				}
				end := start + trialChunk
				if end > maxTrials {
					end = maxTrials
				}
				buf := pool.Get().(*[]float64)
				vals := (*buf)[:end-start]
				if err := runTrials(g, seed, start, end, vals, state, f); err != nil {
					pool.Put(buf)
					trialErrOnce.Do(func() { trialErr = err })
					stopped.Store(true)
					return
				}
				select {
				case donec <- doneChunk{index: start / trialChunk, buf: buf, n: end - start}:
				case <-stopc:
					pool.Put(buf)
					return
				case <-ctx.Done():
					pool.Put(buf)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(donec)
	}()

	pending := map[int]doneChunk{}
	frontier, accumulated := 0, 0
	var acc stats.Accumulator
	var result *stats.Summary
	for dc := range donec {
		if result != nil {
			pool.Put(dc.buf) // post-stop stragglers: discard
			continue
		}
		pending[dc.index] = dc
		for {
			nc, ok := pending[frontier]
			if !ok {
				break
			}
			delete(pending, frontier)
			for _, v := range (*nc.buf)[:nc.n] {
				acc.Add(v)
			}
			pool.Put(nc.buf)
			frontier++
			accumulated += nc.n
			if observe != nil && observe(Chunk{Trials: accumulated, Summary: acc.Summary()}) {
				s := acc.Summary()
				result = &s
				stopped.Store(true)
				close(stopc)
				break
			}
		}
	}
	if result != nil {
		return *result, nil
	}
	// trialErr was written before its worker's wg.Done, which
	// happens-before the donec close that ended the loop above.
	if trialErr != nil {
		return stats.Summary{}, trialErr
	}
	if err := ctx.Err(); err != nil {
		return stats.Summary{}, err
	}
	return acc.Summary(), nil
}

// PanicError reports a trial function that panicked — a third-party
// prober gone wrong. It fails the estimate that ran the trial.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: trial function panicked: %v", e.Value)
}

// generator is a worker's one PRNG: a rand.Rand over a PCG that the
// trial loops reseed before every trial.
type generator struct {
	src *rand.PCG
	rng *rand.Rand
}

func newGenerator() generator {
	src := rand.NewPCG(0, 0)
	return generator{src: src, rng: rand.New(src)}
}

// trial returns the generator reseeded to trial i's stream: a function
// of (seed, i) only, so results do not depend on which worker runs the
// trial. A rand.Rand keeps no state of its own, so the stream equals
// that of rand.New(rand.NewPCG(seed, uint64(i)+1)).
func (g generator) trial(seed uint64, i int) *rand.Rand {
	g.src.Seed(seed, uint64(i)+1)
	return g.rng
}

// runTrials evaluates trials [start, end) into vals, converting a panic
// in the trial function into a *PanicError, so one poisonous trial fails
// its estimate instead of killing the process. Recovery is per chunk,
// not per trial, to keep the defer off the hot path.
//
//quorum:hotpath
func runTrials[S any](g generator, seed uint64, start, end int, vals []float64, state S, f func(*rand.Rand, S) float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	for i := start; i < end; i++ {
		vals[i-start] = f(g.trial(seed, i), state)
	}
	return nil
}

// EstimateSeq is the single-threaded reference implementation of
// Estimate, retained for cross-validation and benchmarking. Like
// Estimate it hands f one generator reseeded per trial, valid only
// during the call.
func EstimateSeq(trials int, seed uint64, f func(rng *rand.Rand) float64) stats.Summary {
	if trials <= 0 {
		panic(fmt.Sprintf("sim: trials must be positive, got %d", trials))
	}
	var acc stats.Accumulator
	g := newGenerator()
	for i := 0; i < trials; i++ {
		acc.Add(f(g.trial(seed, i)))
	}
	return acc.Summary()
}

// WorstCase evaluates eval on every coloring produced by gen and returns
// the maximal value and the coloring attaining it. gen must call yield for
// each candidate; iteration stops if yield returns false.
func WorstCase(gen func(yield func(*coloring.Coloring) bool), eval func(*coloring.Coloring) float64) (float64, *coloring.Coloring) {
	worst := -1.0
	var argmax *coloring.Coloring
	gen(func(col *coloring.Coloring) bool {
		if v := eval(col); v > worst {
			worst = v
			argmax = col.Clone()
		}
		return true
	})
	return worst, argmax
}

// AllColorings adapts coloring.All to the WorstCase generator signature.
func AllColorings(n int) func(yield func(*coloring.Coloring) bool) {
	return func(yield func(*coloring.Coloring) bool) {
		coloring.All(n, yield)
	}
}

// FromDistribution adapts an explicit distribution's support to the
// WorstCase generator signature.
func FromDistribution(dist []coloring.Weighted) func(yield func(*coloring.Coloring) bool) {
	return func(yield func(*coloring.Coloring) bool) {
		for _, w := range dist {
			if !yield(w.Coloring) {
				return
			}
		}
	}
}

// ExpectedOver returns the dist-weighted average of eval over the
// distribution support (weights are normalized).
func ExpectedOver(dist []coloring.Weighted, eval func(*coloring.Coloring) float64) float64 {
	total, mass := 0.0, 0.0
	for _, w := range dist {
		total += w.Weight * eval(w.Coloring)
		mass += w.Weight
	}
	if mass == 0 {
		panic("sim: distribution has zero mass")
	}
	return total / mass
}

// ExpectedIID returns the exact IID(p)-weighted average of eval over all
// 2^n colorings. It panics for n > 24.
func ExpectedIID(n int, p float64, eval func(*coloring.Coloring) float64) float64 {
	if n > 24 {
		panic(fmt.Sprintf("sim: ExpectedIID limited to n <= 24, got %d", n))
	}
	total := 0.0
	coloring.All(n, func(col *coloring.Coloring) bool {
		total += col.Probability(p) * eval(col)
		return true
	})
	return total
}
