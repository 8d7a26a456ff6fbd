package des

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"probequorum/internal/coloring"
)

// churnKind enumerates the churn families.
type churnKind uint8

const (
	churnNone churnKind = iota
	churnFlap
	churnZoneOut
	churnScript
)

// Churn is a compiled churn plan: a pure rule for the state of element
// e at virtual time t, evolving the initial coloring mid-evaluation.
// The zero value is no churn — states frozen at the initial coloring.
type Churn struct {
	kind churnKind

	// flap: alternating exponential holding times.
	upMS, downMS float64

	// zoneout: one seeded zone of nzones forced red in the window.
	nzones         int
	startMS, durMS float64

	// script: explicit forced up/down steps, sorted by time.
	steps []churnStep
}

// churnStep is one scripted override: from atMS on, elements [lo, hi]
// are forced down (red) or up (green) until a later step covers them.
type churnStep struct {
	atMS   float64
	lo, hi int
	down   bool
}

// ParseChurn parses the churn plan grammar:
//
//	""                          no churn
//	flap:UPMS,DOWNMS            each element flaps independently with
//	                            exponential holding times (mean UPMS up,
//	                            DOWNMS down), starting from its initial
//	                            color at t=0
//	zoneout:NZONES,STARTMS,DURMS  elements are striped into NZONES zones
//	                            (e mod NZONES); one zone, seeded per
//	                            trial, is forced red during
//	                            [STARTMS, STARTMS+DURMS)
//	script:STEP;STEP;...        scripted timeline; STEP is down@MS=LO-HI
//	                            or up@MS=LO-HI, forcing the inclusive
//	                            element range from time MS on — later
//	                            steps override earlier ones
func ParseChurn(s string) (Churn, error) {
	s = strings.TrimSpace(s)
	var c Churn
	if s == "" || s == "none" {
		return c, nil
	}
	name, arg, _ := strings.Cut(s, ":")
	switch name {
	case "flap":
		vals, err := floatArgs(arg, 2)
		if err != nil {
			return c, scenErrf("bad flap spec %q: %v", s, err)
		}
		c.kind, c.upMS, c.downMS = churnFlap, vals[0], vals[1]
		if !(c.upMS > 0) || !(c.downMS > 0) || math.IsInf(c.upMS, 0) || math.IsInf(c.downMS, 0) {
			return c, scenErrf("bad flap holding times up=%v down=%v ms: want positive finite means", c.upMS, c.downMS)
		}
	case "zoneout":
		vals, err := floatArgs(arg, 3)
		if err != nil {
			return c, scenErrf("bad zoneout spec %q: %v", s, err)
		}
		c.kind = churnZoneOut
		c.nzones = int(vals[0])
		if float64(c.nzones) != vals[0] || c.nzones < 1 {
			return c, scenErrf("bad zone count %v: want a positive integer", vals[0])
		}
		c.startMS, c.durMS = vals[1], vals[2]
		if !(c.startMS >= 0) || !(c.durMS >= 0) || math.IsInf(c.startMS, 0) || math.IsInf(c.durMS, 0) {
			return c, scenErrf("bad zoneout window start=%v dur=%v ms", c.startMS, c.durMS)
		}
	case "script":
		c.kind = churnScript
		for _, stepSpec := range strings.Split(arg, ";") {
			step, err := parseStep(stepSpec)
			if err != nil {
				return c, err
			}
			c.steps = append(c.steps, step)
		}
		if len(c.steps) == 0 {
			return c, scenErrf("empty script churn plan")
		}
		// Stable insertion sort by time keeps equal-time steps in spec
		// order, so "later in the spec wins" holds at equal times too.
		for i := 1; i < len(c.steps); i++ {
			for j := i; j > 0 && c.steps[j].atMS < c.steps[j-1].atMS; j-- {
				c.steps[j], c.steps[j-1] = c.steps[j-1], c.steps[j]
			}
		}
	default:
		return c, scenErrf("unknown churn family %q (known: flap, zoneout, script)", name)
	}
	return c, nil
}

// parseStep parses one scripted step: down@MS=LO-HI or up@MS=LO-HI.
func parseStep(s string) (churnStep, error) {
	var step churnStep
	s = strings.TrimSpace(s)
	verb, rest, ok := strings.Cut(s, "@")
	if !ok {
		return step, scenErrf("bad script step %q: want down@MS=LO-HI or up@MS=LO-HI", s)
	}
	switch verb {
	case "down":
		step.down = true
	case "up":
	default:
		return step, scenErrf("bad script verb %q in step %q: want down or up", verb, s)
	}
	atSpec, rangeSpec, ok := strings.Cut(rest, "=")
	if !ok {
		return step, scenErrf("bad script step %q: want down@MS=LO-HI or up@MS=LO-HI", s)
	}
	at, err := strconv.ParseFloat(strings.TrimSpace(atSpec), 64)
	if err != nil || !(at >= 0) || math.IsInf(at, 0) {
		return step, scenErrf("bad script time %q in step %q", atSpec, s)
	}
	step.atMS = at
	loSpec, hiSpec, ok := strings.Cut(rangeSpec, "-")
	if !ok {
		hiSpec = loSpec
	}
	step.lo, err = strconv.Atoi(strings.TrimSpace(loSpec))
	if err != nil {
		return step, scenErrf("bad element range %q in step %q", rangeSpec, s)
	}
	step.hi, err = strconv.Atoi(strings.TrimSpace(hiSpec))
	if err != nil {
		return step, scenErrf("bad element range %q in step %q", rangeSpec, s)
	}
	if step.lo < 0 || step.hi < step.lo {
		return step, scenErrf("bad element range %d-%d in step %q", step.lo, step.hi, s)
	}
	return step, nil
}

// String returns the canonical spec of the plan.
func (c Churn) String() string {
	switch c.kind {
	case churnNone:
		return "none"
	case churnFlap:
		return "flap:" + ftoa(c.upMS) + "," + ftoa(c.downMS)
	case churnZoneOut:
		return fmt.Sprintf("zoneout:%d,%s,%s", c.nzones, ftoa(c.startMS), ftoa(c.durMS))
	case churnScript:
		parts := make([]string, len(c.steps))
		for i, st := range c.steps {
			verb := "up"
			if st.down {
				verb = "down"
			}
			parts[i] = fmt.Sprintf("%s@%s=%d-%d", verb, ftoa(st.atMS), st.lo, st.hi)
		}
		return "script:" + strings.Join(parts, ";")
	}
	return "none"
}

// active reports whether the plan can change any state.
func (c *Churn) active() bool { return c.kind != churnNone }

// churnTrial is the per-trial churn context: the seeded zone choice of
// a zoneout plan and the PRNG scratch of flap walks. One value per
// worker, reset per trial.
type churnTrial struct {
	seed  uint64
	trial uint64
	zone  int
	g     prng

	// cancel, when non-nil, is the run's cancellation signal, polled
	// before every trial and every flapPollSteps steps of a flap walk;
	// stopped records that it fired.
	cancel  <-chan struct{}
	stopped bool
}

// poll reports whether the run's cancellation signal has fired.
func (ct *churnTrial) poll() bool {
	select {
	case <-ct.cancel:
		ct.stopped = true
	default:
	}
	return ct.stopped
}

// flapPollSteps is how many flap steps a walk takes between polls of
// its cancellation signal: a walk to an arrival at time t takes about
// t divided by the mean holding time, which a long latency makes
// arbitrarily many.
const flapPollSteps = 4096

// reset rebinds the context to one trial, drawing the trial's zone for
// zoneout plans.
func (ct *churnTrial) reset(c *Churn, seed uint64, trial int) {
	ct.seed, ct.trial = seed, uint64(trial)+1
	if c.kind == churnZoneOut {
		ct.g.seed(seed^saltZone, ct.trial)
		ct.zone = int(ct.g.uint64() % uint64(c.nzones))
	}
}

// colorAt returns the state of element e at virtual time t, given its
// color in the initial coloring. It is a pure function of
// (plan, seed, trial, e, t) and allocates nothing. A flap walk cut
// short by cancellation sets ct.stopped and returns a meaningless color.
//
//quorum:hotpath
func (c *Churn) colorAt(ct *churnTrial, e int, t float64, base coloring.Color) coloring.Color {
	switch c.kind {
	case churnFlap:
		// Alternating renewal walked from t=0: each element follows its
		// own seeded stream, so the walk is reproducible per (trial, e)
		// at any parallelism.
		ct.g.seed(ct.seed^saltFlap^elemSalt(e), ct.trial)
		state := base
		for at, steps := 0.0, 1; ; steps++ {
			if steps%flapPollSteps == 0 && ct.poll() {
				return state
			}
			mean := c.upMS
			if state == coloring.Red {
				mean = c.downMS
			}
			at += ct.g.exp(mean)
			if at > t {
				return state
			}
			state = state.Opposite()
		}
	case churnZoneOut:
		if e%c.nzones == ct.zone && t >= c.startMS && t < c.startMS+c.durMS {
			return coloring.Red
		}
	case churnScript:
		forced := base
		for i := range c.steps {
			st := &c.steps[i]
			if st.atMS > t {
				break
			}
			if e >= st.lo && e <= st.hi {
				if st.down {
					forced = coloring.Red
				} else {
					forced = coloring.Green
				}
			}
		}
		return forced
	}
	return base
}

// PRNG stream salts: every derived stream of a trial — latency draws,
// flap walks, zone choices, randomized-strategy runs — mixes its own
// salt into the scenario seed, so streams never alias each other or the
// initial-coloring stream (which is deliberately unsalted: it must
// consume exactly the static engine's (seed, trial) stream for the
// zero-latency differential to hold bit for bit).
const (
	saltLatency  uint64 = 0x9d5c_14ab_35e1_0d47
	saltFlap     uint64 = 0x6b79_2f3a_d0c5_9b21
	saltZone     uint64 = 0x3ec4_a1f7_57b8_6e93
	saltStrategy uint64 = 0xc8d1_7e09_4f26_b5d5
)

// elemSalt spreads an element index across the seed space (a
// golden-ratio multiply), so per-element flap streams are independent.
func elemSalt(e int) uint64 { return (uint64(e) + 1) * 0x9e3779b97f4a7c15 }
