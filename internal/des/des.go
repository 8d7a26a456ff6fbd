// Package des is the deterministic discrete-event simulation engine
// behind the timed measures: probe strategies evaluated against a
// virtual clock, with per-element probe latencies, element state
// evolving mid-evaluation (churn), and issue disciplines that keep
// several probes in flight.
//
// Everything is seeded — there is no wall clock anywhere, so the
// package is detrand-clean by construction: a trial's event sequence,
// probe order and outcome are pure functions of (system, scenario,
// p, seed, trial index), and the parallel runner aggregates trial
// outcomes by trial index, so summaries are bit-identical at any worker
// count.
//
// The paper's probe strategies become *schedulers* here, without
// reimplementing any of them. Each worker runs the strategy as one
// resumable coroutine (iter.Pull) against a cursor oracle: elements with
// an observed color answer at once, and the first probe of any other
// element parks the run. The trial loop resumes it with the element's
// arrived color, or — while the issue window has room, or when a hedge
// timer grants one issue past it — with a speculative green for a probe
// in flight; a parked element with no probe in flight is the next one
// to issue. The run restarts from its first probe only when a
// speculative green it consumed arrives red; the discarded run first
// winds down against the trial's initial coloring, so it returns like
// any other. A trial is complete when the run has returned with no
// speculative green still in flight. With zero latency, zero churn and
// the sequential discipline a timed trial issues exactly the probe
// sequence of the static engine — the differential the façade tests pin.
package des

import "fmt"

// ScenarioError is the typed error of scenario parsing and validation:
// a malformed latency or churn spec, a bad discipline parameter, or a
// strategy the system cannot provide. The façade wraps it into its own
// typed query errors.
type ScenarioError struct {
	Msg string
}

// Error implements error.
func (e *ScenarioError) Error() string { return "des: " + e.Msg }

func scenErrf(format string, args ...any) error {
	return &ScenarioError{Msg: fmt.Sprintf(format, args...)}
}

// Options selects a temporal scenario by wire-friendly values: the
// latency and churn plan grammars (see ParseLatency and ParseChurn),
// the issue discipline, and the reach deadline. It is the exact shape a
// Query carries across the wire.
type Options struct {
	// Latency is the probe latency spec ("" meaning const:0 — probes
	// return instantly).
	Latency string
	// Churn is the churn plan spec ("" meaning none — element states
	// are frozen at the initial coloring).
	Churn string
	// Window is the issue discipline's in-flight cap: 0 or 1 is the
	// sequential discipline, k > 1 keeps up to k probes outstanding
	// (window-k).
	Window int
	// HedgeMS, when positive, arms a hedge timer on every issued probe:
	// a probe still outstanding after HedgeMS virtual milliseconds
	// triggers one additional speculative issue (hedged-after-deadline).
	HedgeMS float64
	// DeadlineMS, when positive, is the reach deadline in virtual
	// milliseconds: the reach measure is the fraction of trials whose
	// time to quorum is at most this.
	DeadlineMS float64
	// Randomized selects the system's randomized worst-case strategy
	// (RandomizedProber) instead of the deterministic one.
	Randomized bool
}

// Scenario is a compiled temporal scenario: parsed latency and churn
// models plus the validated discipline parameters. Compile once and
// share freely — a Scenario is immutable and safe for concurrent use;
// the façade compiles one per timed query, while validating it.
type Scenario struct {
	latency Latency
	churn   Churn
	window  int
	hedgeMS float64

	deadlineMS float64
	randomized bool
	key        string
}

// Compile parses and validates a scenario.
func Compile(o Options) (*Scenario, error) {
	lat, err := ParseLatency(o.Latency)
	if err != nil {
		return nil, err
	}
	ch, err := ParseChurn(o.Churn)
	if err != nil {
		return nil, err
	}
	if o.Window < 0 {
		return nil, scenErrf("negative window %d", o.Window)
	}
	if o.HedgeMS < 0 || o.HedgeMS != o.HedgeMS {
		return nil, scenErrf("bad hedge delay %v; want a nonnegative duration in virtual ms", o.HedgeMS)
	}
	if o.DeadlineMS < 0 || o.DeadlineMS != o.DeadlineMS {
		return nil, scenErrf("bad reach deadline %v; want a nonnegative duration in virtual ms", o.DeadlineMS)
	}
	window := o.Window
	if window < 1 {
		window = 1
	}
	return &Scenario{
		latency:    lat,
		churn:      ch,
		window:     window,
		hedgeMS:    o.HedgeMS,
		deadlineMS: o.DeadlineMS,
		randomized: o.Randomized,
		key: fmt.Sprintf("lat=%s|churn=%s|w=%d|hedge=%g|deadline=%g|rand=%t",
			lat.String(), ch.String(), window, o.HedgeMS, o.DeadlineMS, o.Randomized),
	}, nil
}

// Key returns the canonical name of the compiled scenario: two Options
// compiling to the same models and parameters share it.
func (s *Scenario) Key() string { return s.key }

// DeadlineMS returns the scenario's reach deadline (0 when none).
func (s *Scenario) DeadlineMS() float64 { return s.deadlineMS }

// Randomized reports whether the scenario schedules with the system's
// randomized strategy.
func (s *Scenario) Randomized() bool { return s.randomized }
