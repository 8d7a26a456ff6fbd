package des

import (
	"iter"
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/core"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// Scheduler adapts a system's probe strategy into a temporal policy: the
// strategy runs against the colors observed so far, and the element it
// asks for next is the one to issue. A Scheduler is immutable and safe
// for concurrent use; each worker carries its own strategyRun.
//
// The strategy is the one the façade's witness search runs
// (core.Resolve): the system's own Prober (or RandomizedProber) when it
// has one, else the generic sequential (or random) scan over
// quorum.Finder systems.
type Scheduler struct {
	n          int
	randomized bool
	run        func(o probe.Oracle, rng *rand.Rand) probe.Witness
}

// NewScheduler resolves the probe strategy of sys into a Scheduler.
// With randomized set, the system's randomized worst-case strategy is
// used; its random choices are drawn from a per-run stream derived from
// (seed, trial), so every run within a trial starts from the same draws.
func NewScheduler(sys quorum.System, randomized bool) (*Scheduler, error) {
	run := core.Resolve(sys, randomized)
	if run == nil {
		if randomized {
			return nil, scenErrf("system %s has no randomized probe strategy to schedule", sys.Name())
		}
		return nil, scenErrf("system %s has no probe strategy to schedule", sys.Name())
	}
	return &Scheduler{n: sys.Size(), randomized: randomized, run: run}, nil
}

// cursor is the probe.Oracle a strategy run answers from. An element
// with an observed color answers it at once; the first probe of any
// other element parks the run (the coroutine yields the element) until
// the trial loop resumes it with an answer. Once abandoned, the cursor
// answers every remaining probe from the trial's initial coloring, so
// a run being discarded winds down to an ordinary return.
//
// Each element is answered at most once per run and repeated probes get
// the same answer, so the run sees one consistent coloring. Probe
// accounting mimics ColoringOracle: distinct elements only.
type cursor struct {
	known   []coloring.Color // observed colors of the trial; 0 = none yet
	initial *coloring.Coloring

	// ans[e] is the answer of this run when stamp[e] == gen.
	ans   []coloring.Color
	stamp []uint32
	gen   uint32
	count int

	yield  func(int) bool
	answer coloring.Color // what the trial loop resumes a parked probe with
	// abandoned answers every remaining probe from the initial coloring:
	// a discarded run winding down, or the static baseline run.
	abandoned bool
}

var _ probe.Oracle = (*cursor)(nil)

// begin forgets the previous run's answers; it precedes every run.
func (c *cursor) begin(abandoned bool) {
	c.gen++
	if c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	c.count = 0
	c.abandoned = abandoned
}

// answered reports whether the current run has consumed element e.
func (c *cursor) answered(e int) bool { return c.stamp[e] == c.gen }

// Probe implements probe.Oracle.
//
//quorum:hotpath
func (c *cursor) Probe(e int) coloring.Color {
	if c.stamp[e] == c.gen {
		return c.ans[e]
	}
	var a coloring.Color
	switch {
	case c.abandoned:
		a = c.initial.Of(e)
	case c.known[e] != 0:
		a = c.known[e]
	default:
		// Park. A false yield means the coroutine is being stopped.
		if !c.yield(e) {
			c.abandoned = true
		}
		a = c.answer
		if c.abandoned {
			a = c.initial.Of(e)
		}
	}
	c.ans[e] = a
	c.stamp[e] = c.gen
	c.count++
	return a
}

// Probes implements probe.Oracle.
func (c *cursor) Probes() int { return c.count }

// Probed implements probe.Oracle.
func (c *cursor) Probed() *bitset.Set {
	s := bitset.New(len(c.stamp))
	for e, g := range c.stamp {
		if g == c.gen {
			s.Add(e)
		}
	}
	return s
}

// parkReturned is strategyRun.park once the strategy has returned.
const parkReturned = -1

// strategyRun is one worker's resumable strategy execution: a
// long-lived iter.Pull coroutine that runs the scheduler's strategy
// against the cursor, one run after another, waiting at a parkReturned
// yield between runs. The trial loop owns it exclusively; close must be
// called to release the coroutine.
type strategyRun struct {
	cursor
	sched *Scheduler
	// src/rng is the randomized-strategy stream, re-seeded at the start
	// of every run of a trial; deterministic strategies ignore it.
	src  *rand.PCG
	rng  *rand.Rand
	next func() (int, bool)
	stop func()
	// park is the element whose probe the run is parked at, or
	// parkReturned when the strategy has returned (or not yet started).
	park int
}

func newStrategyRun(sched *Scheduler, known []coloring.Color, initial *coloring.Coloring) *strategyRun {
	src := &rand.PCG{}
	r := &strategyRun{
		cursor: cursor{
			known:   known,
			initial: initial,
			ans:     make([]coloring.Color, sched.n),
			stamp:   make([]uint32, sched.n),
		},
		sched: sched,
		src:   src,
		rng:   rand.New(src),
		park:  parkReturned,
	}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// loop is the coroutine body: one strategy run per iteration, parked
// between runs until the next start.
func (r *strategyRun) loop(yield func(int) bool) {
	r.yield = yield
	for {
		r.sched.run(&r.cursor, r.rng)
		if !yield(parkReturned) {
			return
		}
	}
}

// pull runs the coroutine to its next park.
func (r *strategyRun) pull() {
	e, ok := r.next()
	if !ok {
		e = parkReturned
	}
	r.park = e
}

// reset winds down any parked run, then positions the strategy stream
// at the start of trial's stream and forgets the run's answers.
func (r *strategyRun) reset(seed uint64, trial int, abandoned bool) {
	if r.park != parkReturned {
		r.abandoned = true
		r.pull()
	}
	if r.sched.randomized {
		r.src.Seed(seed^saltStrategy, uint64(trial)+1)
	}
	r.begin(abandoned)
}

// start begins a fresh run of trial, which runs until its first probe
// of an element without an observed color.
func (r *strategyRun) start(seed uint64, trial int) {
	r.reset(seed, trial, false)
	r.pull()
}

// resume answers the parked probe with c and runs to the next park.
func (r *strategyRun) resume(c coloring.Color) {
	r.answer = c
	r.pull()
}

// static runs the strategy of trial on the caller's goroutine against
// the initial coloring alone and returns its distinct probe count.
func (r *strategyRun) static(seed uint64, trial int) int {
	r.reset(seed, trial, true)
	r.sched.run(&r.cursor, r.rng)
	return r.count
}

// close stops the coroutine; a parked run winds down first.
func (r *strategyRun) close() { r.stop() }
