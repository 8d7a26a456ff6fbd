package des

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
	"probequorum/internal/stats"
)

// trialChunk is the unit of work claiming: workers grab chunks of trial
// indices atomically, but every outcome lands in its trial's slot, so
// aggregation order — and the summaries — never depend on worker count.
const trialChunk = 64

// Params configures a timed run.
type Params struct {
	// Sys is the system whose probe strategy is scheduled.
	Sys quorum.System
	// Scenario is the compiled temporal scenario.
	Scenario *Scenario
	// P is the independent per-element failure probability of the
	// initial coloring.
	P float64
	// Trials is the Monte Carlo trial count.
	Trials int
	// Seed seeds every per-trial stream.
	Seed uint64
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int
}

// Dist summarizes one per-trial distribution in virtual milliseconds.
type Dist struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Result is the aggregate of a timed run. Bit-identical for a given
// (system, scenario, p, seed, trials) at any worker count.
type Result struct {
	// Trials is the number of simulated trials.
	Trials int
	// TTQ is the time-to-quorum distribution.
	TTQ Dist
	// InFlightMean is the mean over trials of the time-averaged number
	// of probes in flight.
	InFlightMean float64
	// InFlightMax is the peak number of probes simultaneously in flight
	// in any trial.
	InFlightMax int
	// IssuedMean is the mean number of probes issued per trial,
	// including speculative probes whose results went unused.
	IssuedMean float64
	// StaticMean is the mean probe count of the untimed strategy on the
	// same initial colorings — the baseline IssuedMean is read against.
	StaticMean float64
	// Reach is the fraction of trials whose time to quorum met the
	// scenario deadline (1 when the scenario has none).
	Reach float64
	// Events is the total number of virtual events processed.
	Events int
}

// RunCtx simulates p.Trials timed trials and aggregates them. It stops
// early with ctx's error when the context is canceled mid-run: workers
// poll ctx before every trial and inside long flap churn walks.
func RunCtx(ctx context.Context, p Params) (Result, error) {
	if p.Sys == nil {
		return Result{}, scenErrf("nil system")
	}
	if p.Scenario == nil {
		return Result{}, scenErrf("nil scenario")
	}
	if p.Trials <= 0 {
		return Result{}, scenErrf("bad trial count %d", p.Trials)
	}
	if !(p.P >= 0 && p.P <= 1) {
		return Result{}, scenErrf("bad failure probability %v", p.P)
	}
	sched, err := NewScheduler(p.Sys, p.Scenario.randomized)
	if err != nil {
		return Result{}, err
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := (p.Trials + trialChunk - 1) / trialChunk
	if workers > chunks {
		workers = chunks
	}

	outcomes := make([]outcome, p.Trials)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("des: trial worker panicked: %v", r))
				}
			}()
			ts := newTrialState(sched, p.Scenario, ctx.Done())
			defer ts.close()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo, hi := c*trialChunk, (c+1)*trialChunk
				if hi > p.Trials {
					hi = p.Trials
				}
				for i := lo; i < hi; i++ {
					var ok bool
					if outcomes[i], ok = ts.runTrial(p.P, p.Seed, i, nil); !ok {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if msg := panicked.Load(); msg != nil {
		return Result{}, scenErrf("%s", msg)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return aggregate(outcomes), nil
}

// aggregate folds per-trial outcomes, in trial order, into a Result.
func aggregate(outcomes []outcome) Result {
	res := Result{Trials: len(outcomes)}
	ttqs := make([]float64, len(outcomes))
	var reached int
	for i := range outcomes {
		o := &outcomes[i]
		ttqs[i] = o.ttqMS
		res.TTQ.MeanMS += o.ttqMS
		res.InFlightMean += o.inflightAvg
		res.IssuedMean += float64(o.issued)
		res.StaticMean += float64(o.static)
		res.Events += o.events
		if o.inflightMax > res.InFlightMax {
			res.InFlightMax = o.inflightMax
		}
		if o.reached {
			reached++
		}
	}
	n := float64(len(outcomes))
	res.TTQ.MeanMS /= n
	res.InFlightMean /= n
	res.IssuedMean /= n
	res.StaticMean /= n
	res.Reach = float64(reached) / n
	sort.Float64s(ttqs)
	res.TTQ.P50MS = stats.SortedQuantile(ttqs, 0.50)
	res.TTQ.P99MS = stats.SortedQuantile(ttqs, 0.99)
	res.TTQ.MaxMS = ttqs[len(ttqs)-1]
	return res
}

// IssueOrder simulates one timed trial and returns the elements in
// issue order, drawing the initial coloring from the unsalted
// (seed, trial) stream exactly as the static engine does. It is the
// differential test hook: with zero latency, zero churn and the
// sequential discipline the returned order equals the static strategy's
// probe order.
func IssueOrder(sys quorum.System, sc *Scenario, p float64, seed uint64, trial int) ([]int, error) {
	return issueOrder(sys, sc, p, seed, trial, nil)
}

// IssueOrderFor is IssueOrder against a fixed initial coloring instead
// of an IID draw — the exhaustive differential's entry point.
func IssueOrderFor(sys quorum.System, sc *Scenario, col *coloring.Coloring, seed uint64, trial int) ([]int, error) {
	if col == nil {
		return nil, scenErrf("nil coloring")
	}
	return issueOrder(sys, sc, 0, seed, trial, col)
}

func issueOrder(sys quorum.System, sc *Scenario, p float64, seed uint64, trial int, col *coloring.Coloring) ([]int, error) {
	if sys == nil {
		return nil, scenErrf("nil system")
	}
	if sc == nil {
		return nil, scenErrf("nil scenario")
	}
	sched, err := NewScheduler(sys, sc.randomized)
	if err != nil {
		return nil, err
	}
	ts := newTrialState(sched, sc, nil)
	defer ts.close()
	ts.runTrial(p, seed, trial, col)
	out := make([]int, len(ts.issueOrder))
	copy(out, ts.issueOrder)
	return out, nil
}
