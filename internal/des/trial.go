package des

import (
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
)

// outcome is the record of one timed trial.
type outcome struct {
	// ttqMS is the virtual time at which the strategy run first returned
	// on observed colors alone.
	ttqMS float64
	// issued counts probes issued by the temporal engine.
	issued int
	// static counts probes of the static engine on the same initial
	// coloring — the baseline the probes-issued measure is read against.
	static int
	// inflightAvg is the time average of probes in flight over [0, ttq]
	// (0 for an instant trial).
	inflightAvg float64
	// inflightMax is the peak number of probes simultaneously in flight.
	inflightMax int
	// events counts processed virtual events.
	events int
	// reached reports ttqMS <= deadline (always true without one).
	reached bool
}

// trialState is the reusable per-worker simulation state: one
// allocation pool and one strategy coroutine per worker, reset per
// trial, so the steady-state trial loop does not allocate. close must be
// called when the worker is done.
type trialState struct {
	sc *Scenario
	n  int

	col      *coloring.Coloring // initial coloring of the trial
	known    []coloring.Color   // observed colors; 0 = not yet arrived
	inflight *bitset.Set
	queue    *eventQueue
	run      *strategyRun

	// specOut counts elements the current run consumed as speculative
	// greens whose probes are still in flight. The trial is complete
	// when the run has returned with specOut == 0.
	specOut   int
	inflightN int
	now       float64
	out       outcome

	latG prng
	ct   churnTrial

	// colSrc/colRNG draw the initial coloring from the unsalted
	// (seed, trial) stream.
	colSrc *rand.PCG
	colRNG *rand.Rand

	// issueOrder records elements in issue order — the hook the
	// zero-latency differential tests pin against the static engine's
	// probe order.
	issueOrder []int
}

// newTrialState builds a worker's state. cancel, when non-nil, is
// polled before each trial and inside long churn walks.
func newTrialState(sched *Scheduler, sc *Scenario, cancel <-chan struct{}) *trialState {
	n := sched.n
	colSrc := &rand.PCG{}
	ts := &trialState{
		sc:       sc,
		n:        n,
		col:      coloring.New(n),
		known:    make([]coloring.Color, n),
		inflight: bitset.New(n),
		queue:    newEventQueue(2 * n),
		colSrc:   colSrc,
		colRNG:   rand.New(colSrc),
		// A trial issues each element at most once.
		issueOrder: make([]int, 0, n),
	}
	ts.ct.cancel = cancel
	ts.run = newStrategyRun(sched, ts.known, ts.col)
	return ts
}

// close releases the strategy coroutine.
func (ts *trialState) close() { ts.run.close() }

// restart begins a fresh strategy run of the trial.
func (ts *trialState) restart(seed uint64, trial int) {
	ts.specOut = 0
	ts.run.start(seed, trial)
}

// issue puts a probe of e in flight.
func (ts *trialState) issue(e int) {
	sc := ts.sc
	ts.inflight.Add(e)
	ts.inflightN++
	if ts.inflightN > ts.out.inflightMax {
		ts.out.inflightMax = ts.inflightN
	}
	ts.out.issued++
	ts.issueOrder = append(ts.issueOrder, e)
	ts.queue.push(ts.now+sc.latency.sample(e, &ts.latG), evArrival, e)
	if sc.hedgeMS > 0 {
		ts.queue.push(ts.now+sc.hedgeMS, evHedge, e)
	}
}

// advance moves the parked run forward and reports whether the trial is
// complete. Observed colors resume it unconditionally. A probe in flight
// resumes it with a speculative green, and an element with neither is
// issued, only while the window has room — or, when hedged, regardless
// of the window until exactly one element has been issued.
func (ts *trialState) advance(hedged bool) bool {
	run := ts.run
	for {
		e := run.park
		switch {
		case e == parkReturned:
			return ts.specOut == 0
		case ts.known[e] != 0:
			run.resume(ts.known[e])
		case !hedged && ts.inflightN >= ts.sc.window:
			return false
		case ts.inflight.Contains(e):
			ts.specOut++
			run.resume(coloring.Green)
		default:
			ts.issue(e)
			if hedged {
				return false
			}
		}
	}
}

// runTrial simulates one timed trial. The initial coloring is drawn
// from the unsalted (seed, trial) stream — exactly the static engine's
// draw — unless fixed is non-nil, in which case that coloring is used
// (the exhaustive differential's entry point). It reports false when
// the run's cancellation signal fired before or during the trial.
func (ts *trialState) runTrial(p float64, seed uint64, trial int, fixed *coloring.Coloring) (outcome, bool) {
	if ts.ct.poll() {
		return outcome{}, false
	}
	sc := ts.sc
	if fixed != nil {
		for e := 0; e < ts.n; e++ {
			ts.col.SetColor(e, fixed.Of(e))
		}
	} else {
		ts.colSrc.Seed(seed, uint64(trial)+1)
		coloring.IIDInto(ts.col, p, ts.colRNG)
	}

	// Static baseline: the untimed strategy on the same initial coloring.
	static := ts.run.static(seed, trial)

	ts.latG.seed(seed^saltLatency, uint64(trial)+1)
	ts.ct.reset(&sc.churn, seed, trial)
	clear(ts.known)
	ts.inflight.Clear()
	ts.inflightN = 0
	ts.queue.reset()
	ts.issueOrder = ts.issueOrder[:0]
	ts.now = 0
	ts.out = outcome{static: static}

	var (
		lastT    float64
		integral float64
	)
	ts.restart(seed, trial)
	done := ts.advance(false)
	for !done && ts.queue.len() > 0 {
		ev := ts.queue.pop()
		ts.now = ev.at
		integral += float64(ts.inflightN) * (ts.now - lastT)
		lastT = ts.now
		ts.out.events++
		switch ev.kind {
		case evArrival:
			e := ev.elem
			c := ts.col.Of(e)
			if sc.churn.active() {
				if c = sc.churn.colorAt(&ts.ct, e, ts.now, c); ts.ct.stopped {
					return outcome{}, false
				}
			}
			ts.known[e] = c
			ts.inflight.Remove(e)
			ts.inflightN--
			// The run can only have consumed e while its probe was in
			// flight, as a speculative green, which is now settled:
			// confirmed, or refuted and the run restarts.
			if ts.run.answered(e) {
				if c == coloring.Green {
					ts.specOut--
				} else {
					ts.restart(seed, trial)
				}
			}
			done = ts.advance(false)
		case evHedge:
			// The watched probe already arrived: the timer is stale.
			if ts.known[ev.elem] != 0 {
				continue
			}
			done = ts.advance(true)
		}
	}

	out := ts.out
	out.ttqMS = ts.now
	if ts.now > 0 {
		out.inflightAvg = integral / ts.now
	}
	out.reached = sc.deadlineMS <= 0 || out.ttqMS <= sc.deadlineMS
	return out, true
}
