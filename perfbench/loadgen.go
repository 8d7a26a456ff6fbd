package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"probequorum/internal/stats"
)

// sample is the measurement of one answered request.
type sample struct {
	// lat runs from when the request was due (sent, in a closed loop) to
	// its answer; queued is the part it waited for a free sender, and
	// firstValue runs to the first answered value.
	lat, queued, firstValue time.Duration
	// done is when the request completed, from the start of its phase.
	done                  time.Duration
	queries, trials       int
	stream, failed, fresh bool
}

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	// clk is what the phase was given; clk.wall is its duration.
	clk clocks
	// readings are the clocks read every clockTick through a closed loop
	// (wall time from the phase start), so it can be cut into windows.
	readings []clocks
	// bad lists failure and mismatch descriptions (the first few are
	// printed).
	bad []string
	// Open loop only: how late the generator dispatched each arrival, and
	// the requests queued or in flight when the last arrival was due.
	late    []time.Duration
	backlog int
}

// failures counts failed requests.
func (p *phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// collector turns answers into samples, running the inline checks.
type collector struct {
	mu    sync.Mutex
	ph    *phase
	chk   checker
	start time.Time
}

func (c *collector) add(i int, r *request, a *answer, lat, queued time.Duration) {
	s := sample{lat: lat, queued: queued, firstValue: queued + a.firstValue, queries: len(r.Queries), stream: r.Stream, fresh: r.Fresh}
	var bad []string
	if msg := a.failed(); msg != "" {
		bad = []string{fmt.Sprintf("req %d %s: %s", i, r.path(), msg)}
	} else {
		bad = c.chk.check(i, r, a.results)
		for _, res := range a.results {
			for _, pt := range res.Points {
				if pt.Estimate != nil {
					s.trials += pt.Estimate.Trials
				}
				if pt.TimedTTQ != nil {
					// The header carries the timed run's trial count.
					s.trials += res.Trials
				}
			}
		}
	}
	s.failed = len(bad) > 0
	s.done = time.Since(c.start)
	c.mu.Lock()
	c.ph.samples = append(c.ph.samples, s)
	c.ph.bad = append(c.ph.bad, bad...)
	c.mu.Unlock()
}

// clockTick is how often a closed loop reads the clocks.
const clockTick = 20 * time.Millisecond

// closedLoop runs callers that each send their next request only after
// the previous one answered, consuming the sequence in order from offset
// (wrapping around) for d — longer, up to 3d, until minSamples requests
// have been sent — and at most once through it.
func closedLoop(ctx context.Context, e *env, reqs []request, offset, callers int, d time.Duration, minSamples int, chk checker) *phase {
	start := time.Now()
	c := &collector{ph: &phase{readings: []clocks{readClocks(start)}}, chk: chk, start: start}
	var next atomic.Int64
	deadline, limit := start.Add(d), start.Add(3*d)
	more := func() bool {
		now := time.Now()
		return now.Before(deadline) || (now.Before(limit) && next.Load() < int64(minSamples))
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(clockTick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r := readClocks(start)
				c.mu.Lock()
				c.ph.readings = append(c.ph.readings, r)
				c.mu.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[(offset+i)%len(reqs)]
				t0 := time.Now()
				a := e.send(ctx, r, "")
				c.add(offset+i, r, &a, time.Since(t0), 0)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	end := readClocks(start)
	c.ph.readings = append(c.ph.readings, end)
	c.ph.clk = end.sub(c.ph.readings[0])
	return c.ph
}

// job is one scheduled arrival of the open loop.
type job struct {
	i   int
	due time.Time
}

// openLoop offers requests at rate per second for d on a seeded Poisson
// schedule, cycling through reqs from offset. nproc senders share the
// arrivals; each request's latency runs from its due time, so waiting
// behind a busy connection counts.
func openLoop(ctx context.Context, e *env, reqs []request, gaps []float64, offset int, rate float64, d time.Duration, chk checker) *phase {
	c := &collector{ph: &phase{}, chk: chk}
	// Sized to every arrival the phase can schedule, so the generator
	// never blocks on a full queue.
	n := int(rate*d.Seconds()*2) + 16
	jobs := make(chan job, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				picked := time.Now()
				r := &reqs[j.i%len(reqs)]
				a := e.send(ctx, r, "")
				c.add(j.i, r, &a, time.Since(j.due), picked.Sub(j.due))
				inflight.Add(-1)
			}
		}()
	}
	start := time.Now()
	c.start = start
	clk0 := readClocks(start)
	due := start
	for k := 0; ; k++ {
		due = due.Add(time.Duration(gaps[(offset+k)%len(gaps)] / rate * float64(time.Second)))
		if due.Sub(start) > d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		inflight.Add(1)
		jobs <- job{i: offset + k, due: due}
		c.ph.late = append(c.ph.late, time.Since(due))
	}
	c.ph.backlog = int(inflight.Load())
	close(jobs)
	wg.Wait()
	c.ph.clk = readClocks(start).sub(clk0)
	return c.ph
}

// The serve-hot offered-load schedule. Latency is reported at refRate
// over refWindows windows of rungArrivals expected arrivals each. Every
// ladder rate is offered twice for rungArrivals arrivals, and the
// reference windows are spread between the ladder's rungs, so each
// figure samples the whole run rather than one stretch of a shared
// machine whose speed changes from second to second.
const (
	refRate      = 500.0
	refWindows   = 5
	rungArrivals = 1100
)

// ladderRates is the fixed ladder above the reference rate, reaching
// about twice the capacity measured when it was set.
var ladderRates = []float64{1000, 1250, 1500, 1750, 2000, 2500, 3000, 3500, 4000}

// scheduleSeconds is about how long the open-loop schedule runs at
// rungArrivals per window and rung; longer measured times scale the
// counts up.
const scheduleSeconds = 20

// satWindow is the length of one of serve-hot's saturation windows.
func (c config) satWindow() time.Duration { return max(c.d/20, 100*time.Millisecond) }

// arrivals is the expected arrival count of one window or rung.
func (c config) arrivals() int {
	if c.small {
		return 40
	}
	return max(rungArrivals, int(rungArrivals*c.d.Seconds()/scheduleSeconds))
}

// rungResult is one ladder rate's outcome: the better of its tries.
type rungResult struct {
	rate, p99            float64
	n, failures, backlog int
	// score is the rung's load against its limits: the larger of p99
	// over the latency limit and the backlog over its limit (infinite
	// when a request failed). A rate passes at score <= 1.
	score float64
}

func (r *rungResult) ok() bool { return r.score <= 1 }

// backlogLimit is the most requests that may be queued or in flight
// when a rung's last arrival is due without counting as a growing
// backlog: one latency limit's worth of arrivals, beyond which the last
// ones must miss the limit. A tighter limit turned a stall of a few tens
// of milliseconds at the rung's end into a failed rate.
func backlogLimit(w *workload, rate float64) float64 { return rate * w.sloMS / 1000 }

// rungOf scores one try of a rate.
func rungOf(w *workload, rate, p99 float64, ph *phase) *rungResult {
	rr := &rungResult{rate: rate, p99: p99, n: len(ph.samples), failures: ph.failures(), backlog: ph.backlog}
	rr.score = max(rr.p99/w.sloMS, float64(rr.backlog)/backlogLimit(w, rate))
	if rr.failures > 0 {
		rr.score = math.Inf(1)
	}
	return rr
}

// runOpen runs serve-hot: reference windows between two passes over the
// ladder, each pass split in halves, and after each reference window a
// saturation window, where nproc callers send back to back for the
// throughput figure.
func runOpen(ctx context.Context, out io.Writer, e *env, w *workload, p *plan, cfg config, chk checker) *measured {
	m := &measured{}
	offset := 0
	offer := func(rate float64) *phase {
		ph := openLoop(ctx, e, p.reqs, p.gaps, offset, rate, time.Duration(float64(cfg.arrivals())/rate*float64(time.Second)), chk)
		offset += len(ph.samples)
		m.all = append(m.all, ph)
		return ph
	}
	tries := make([][]*rungResult, len(ladderRates))
	half := len(ladderRates) / 2
	for k := 0; k < refWindows; k++ {
		m.ref = append(m.ref, offer(refRate))
		sat := closedLoop(ctx, e, p.reqs, offset, nproc, cfg.satWindow(), 0, chk)
		offset += len(sat.samples)
		m.all, m.thru = append(m.all, sat), append(m.thru, sat)
		if k == refWindows-1 {
			break
		}
		lo, hi := 0, half
		if k%2 == 1 {
			lo, hi = half, len(ladderRates)
		}
		for i := lo; i < hi; i++ {
			ph := offer(ladderRates[i])
			tries[i] = append(tries[i], rungOf(w, ladderRates[i], stats.Quantile(durationsMS(ph.samples, latOf), 0.99), ph))
		}
	}
	m.tail = m.ref
	ref := &phase{}
	for _, win := range m.ref {
		ref.samples = append(ref.samples, win.samples...)
		ref.backlog = max(ref.backlog, win.backlog)
	}
	m.ladder = append(m.ladder, rungOf(w, refRate, medianP99(m.ref), ref))
	for i := range ladderRates {
		best := tries[i][0]
		for _, t := range tries[i][1:] {
			if t.score < best.score {
				best = t
			}
		}
		m.ladder = append(m.ladder, best)
	}
	for _, rr := range m.ladder {
		fmt.Fprintf(out, "  ladder %6.0f req/s: p99 %8.3f ms backlog %4d failures %d score %.3f n=%d\n",
			rr.rate, rr.p99, rr.backlog, rr.failures, rr.score, rr.n)
	}
	return m
}

// maxRateAtSLO is the highest ladder rate whose p99 meets the latency
// limit with no failures and no growing backlog, a rate passing when
// either of its tries did: the other may have met a stall of the
// machine. Toward the next rate it interpolates where the score crosses
// its limit, so the figure moves continuously instead of a rung at a
// time.
func maxRateAtSLO(ladder []*rungResult) float64 {
	best := -1
	for i, r := range ladder {
		if r.ok() {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	b := ladder[best]
	if best+1 == len(ladder) || math.IsInf(ladder[best+1].score, 1) {
		return b.rate
	}
	next := ladder[best+1]
	return b.rate + (next.rate-b.rate)*(1-b.score)/(next.score-b.score)
}

func queuedOf(s sample) time.Duration { return s.queued }

func latOf(s sample) time.Duration { return s.lat }

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
