// Command perfbench is the repository benchmark. It starts probeserve on
// loopback inside its own process, drives one seeded workload through
// the real path (client → probeserve → Evaluator → cache tiers →
// engines), checks every answer, and prints the end-to-end metrics; with
// -trace 1 it also replays the workload down a ladder of entry points
// and prints the per-layer metrics. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . -workload serve-hot -seed 1 -seconds 10 -trace 0
//
// Run it from the perfbench directory, or through run.py from the root
// of the repository. The exit code is non-zero when any answer or cache
// assertion fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"probequorum/internal/stats"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: serve-hot, estimate-wide, timed-sim or cold-sweep")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 replays the workload down the layer ladder and prints per-layer metrics")
		tmp     = flag.String("tmp", os.TempDir(), "directory for artifact stores and the span dump")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds <= 0 {
		err = errors.New("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(nproc)
	cfg := config{d: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, tmp: *tmp}
	res, err := run(context.Background(), os.Stdout, w, *seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	d     time.Duration // the measured time
	trace bool
	tmp   string // where stores and the span dump go
	// small shrinks the fixed-size parts of a run (setup repetitions,
	// open-loop windows and rungs, the traced replay) for the
	// benchmark's own test.
	small bool
}

// gatedEndToEnd lists the end-to-end metrics the JSON result carries,
// as BENCHMARK.json names them. The latency figures and serve-hot's
// max_qps_at_slo are printed with their sample counts but not gated: on
// a shared two-vCPU virtual machine (2.1 GHz Xeon), serve-hot's open-loop
// p50 and p99 moved between sets of runs by more than any bound a
// regression gate may allow, and max_qps_at_slo jumped by whole ladder rates when a
// half-second try met a stall (quartile spread 0.22 over four seeds).
// Open-loop latency is mostly queueing, which does not follow the host's
// speed the way throughput per CPU second does (see endToEnd).
var gatedEndToEnd = []string{"setup_s", "qps", "mem_peak_mb"}

// setupsBefore and setupsAfter are how many times a run sets the system
// up before and after its timed phase; setup_s is their median.
func (c config) setupsBefore() int {
	if c.small {
		return 1
	}
	return 6
}

func (c config) setupsAfter() int {
	if c.small {
		return 0
	}
	return 5
}

// minSamples is the fewest requests a closed loop measures, so its p99
// has ten samples beyond it.
func (c config) minSamples() int {
	if c.small {
		return 0
	}
	return p99Samples
}

// run executes one workload: setup (repeated, median reported), the
// timed phase, the output checks and cache assertions, and with trace
// the layer ladder. Human-readable lines go to out.
func run(ctx context.Context, out io.Writer, w *workload, seed uint64, cfg config) (*result, error) {
	p := w.generate(seed)
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "seed %d digest %s go %s GOMAXPROCS %d nproc %d requests %d\n",
		seed, p.digest(), runtime.Version(), runtime.GOMAXPROCS(0), nproc, len(p.reqs))

	// The calibrator runs from the first setup to the last.
	cal := startCalibrator(ctx)
	defer cal.finish()
	// setup_s is the median over repeated setups of the system: session,
	// tiers, server, and the workload's warm-up. They are spread before
	// and after the timed phase, so one slow stretch of the machine
	// moves a few of them; the last one before serves the timed phase.
	var setups []float64
	setup := func() (*env, error) {
		start := time.Now()
		e, err := newEnv(w, p, false, cfg.tmp)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
		}
		return e, err
	}
	var e *env
	for k := 0; k < cfg.setupsBefore(); k++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setup(); err != nil {
			return nil, err
		}
	}
	defer e.close()

	chk, err := newChecker(ctx, w, p)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before, rtBefore := e.counters(), readRuntime()
	var m *measured
	if w.open {
		m = runOpen(ctx, out, e, w, p, cfg, chk)
	} else {
		ph := closedLoop(ctx, e, p.reqs, 0, w.callers, cfg.d, cfg.minSamples(), chk)
		ref := cut(ph, min(windowCount, max(len(ph.samples)/minWindowSamples, 1)))
		m = &measured{ref: ref, thru: ref, tail: cut(ph, min(max(len(ph.samples)/p99Samples, 1), windowCount)), all: []*phase{ph}}
	}
	rtAfter, after := readRuntime(), e.counters()
	memPeak := peakRSSMB()
	for k := 0; k < cfg.setupsAfter(); k++ {
		extra, err := setup()
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	calMS, calN := cal.finish()
	fmt.Fprintf(out, "  %-34s %14.6f %-10s n=%d\n", "calibration_unit_ms", calMS, "ms", calN)
	// Mismatches found after the phase (recomputed answers, cache
	// assertions) count as failures of their own.
	post := append(chk.finish(ctx), assertCounters(w, m, before, after)...)
	bad := append(m.bad(), post...)

	res := &result{Metrics: map[string]metric{}, Failed: len(post)}
	for _, ph := range m.all {
		res.Attempted += len(ph.samples)
		res.Failed += ph.failures()
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request completed")
	}
	res.Correct = len(bad) == 0
	for i, b := range bad {
		if i == 20 {
			fmt.Fprintf(out, "FAIL ... %d more\n", len(bad)-20)
			break
		}
		fmt.Fprintln(out, "FAIL", b)
	}

	e2e := endToEnd(out, w, p, m, setups, memPeak, calMS)
	errRate := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(out, "  %-34s %14.6f %-10s n=%d\n", "error_rate", errRate, "ratio", res.Attempted)
	printMetrics(out, e2e)
	if !cfg.trace {
		for _, k := range gatedEndToEnd {
			res.Metrics[k] = e2e[k].metric
		}
		return res, nil
	}
	// The ladder opens connections of its own; the timed phase's are done.
	e.tr.CloseIdleConnections()
	layers, broken, err := runLadder(ctx, out, w, p, cfg, m, rtBefore, rtAfter)
	if err != nil {
		return nil, err
	}
	for _, b := range broken {
		fmt.Fprintln(out, "FAIL", b)
	}
	res.Failed += len(broken)
	res.Correct = res.Correct && len(broken) == 0
	printMetrics(out, layers)
	for k, v := range layers {
		res.Metrics[k] = v.metric
	}
	return res, nil
}

// measured is a workload's timed phases.
type measured struct {
	// ref holds the windows latency is reported over: the open loop's
	// reference-rate windows, or equal slices of the closed loop; tail
	// holds the windows of at least p99Samples each that p99 is the
	// median over; thru holds the windows throughput is reported over:
	// serve-hot's saturation windows, or ref.
	ref, tail, thru []*phase
	// all holds every phase run, the open loop's ladder too.
	all []*phase
	// ladder holds the open loop's rates in order, the reference first.
	ladder []*rungResult
}

func (m *measured) bad() []string {
	var out []string
	for _, ph := range m.all {
		out = append(out, ph.bad...)
	}
	return out
}

// described is a metric with its sample count, for the readable lines.
type described struct {
	metric
	n int
}

func printMetrics(out io.Writer, ms map[string]described) {
	for _, k := range sortedKeys(ms) {
		v := ms[k]
		fmt.Fprintf(out, "  %-34s %14.6f %-10s n=%d\n", k, v.Value, v.Unit, v.n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// windowCount is how many windows of equal duration a closed loop is cut
// into; the median and throughput figures are medians over the windows,
// so a burst of outside load lasting a few seconds moves a few windows,
// not the result.
const windowCount = 10

// minWindowSamples is the fewest requests a window holds on average; a
// run too short for windowCount windows of them (the benchmark's own
// test under the race detector) is cut into fewer.
const minWindowSamples = 20

// p99Samples is the fewest samples a p99 is taken over, so at least ten
// lie beyond it.
const p99Samples = 1000

// cut cuts a closed-loop phase into k windows of about equal duration
// at its clock readings; each request goes to the window it completed
// in.
func cut(ph *phase, k int) []*phase {
	rs := ph.readings
	k = max(1, min(k, len(rs)-1))
	bounds := make([]int, k+1)
	bounds[k] = len(rs) - 1
	for j := 1; j < k; j++ {
		target := rs[0].wall + ph.clk.wall*time.Duration(j)/time.Duration(k)
		i := bounds[j-1] + 1
		for i < len(rs)-1-(k-j) && rs[i].wall < target {
			i++
		}
		bounds[j] = i
	}
	out := make([]*phase, k)
	for j := range out {
		out[j] = &phase{clk: rs[bounds[j+1]].sub(rs[bounds[j]])}
	}
	for _, s := range ph.samples {
		j := 0
		for j < k-1 && s.done >= rs[bounds[j+1]].wall {
			j++
		}
		out[j].samples = append(out[j].samples, s)
	}
	return out
}

// medianP99 is the median over windows of each window's p99: a stall of
// the machine lifts one window's tail, not the result.
func medianP99(ws []*phase) float64 {
	var p99s []float64
	for _, win := range ws {
		p99s = append(p99s, stats.Quantile(durationsMS(win.samples, latOf), 0.99))
	}
	return median(p99s)
}

// calibrationRefMS is the calibration unit's CPU time on the reference
// host, a 2.1 GHz Xeon vCPU; throughput and setup time are reported at
// that speed, scaled by the ratio of the unit's time to it.
//
// Over three sets of ten runs per workload, taken in phases of the host
// where the unit took 0.66, 0.46-0.62 and 0.42 ms, the ratio left the
// qps medians within 0.16 of each other, against 0.79 unscaled, at about
// the same quartile spread within a set (0.18 at most, against 0.17);
// setup_s medians moved by 0.11 at most, against 0.42. Fitted per workload, the power of the ratio the workloads follow
// ranged 0.7 (estimate-wide) to 1.3 (cold-sweep); no other single power
// did better than 1.
const calibrationRefMS = 0.70

// endToEnd computes the end-to-end metrics of the timed phase. calMS is
// the calibration unit's median CPU time over the run.
//
// Throughput is counted per second of the process's CPU time, times
// nproc, and scaled to the reference host speed: on a shared two-vCPU
// virtual machine (2.1 GHz Xeon), wall-clock throughput of the same code
// moved by 20-40% between minutes, which this figure mostly removes.
// Setup time is scaled the same way.
// It is what the process completes per second with its nproc cores busy,
// which every throughput window keeps them: a closed loop's slices, or
// serve-hot's saturation windows. It does not see time the cores sit
// idle, such as a lock that serializes the callers; the printed
// wall-clock qps, CPU utilization and latencies do.
func endToEnd(out io.Writer, w *workload, p *plan, m *measured, setups []float64, memPeak, calMS float64) map[string]described {
	// Where the workload streams, first values are read from its NDJSON
	// requests; an /v1/eval answer's first value arrives with the whole
	// response.
	streams := anyStream(p.reqs)
	var p50s, firsts []float64
	n, nFirst, trials := 0, 0, 0
	var wall time.Duration
	for _, win := range m.ref {
		var l, f []float64
		for _, s := range win.samples {
			l = append(l, ms(s.lat))
			if s.stream || !streams {
				f = append(f, ms(s.firstValue))
			}
			trials += s.trials
		}
		p50s, firsts = append(p50s, median(l)), append(firsts, median(f))
		n, nFirst, wall = n+len(l), nFirst+len(f), wall+win.clk.wall
	}
	speed := calMS / calibrationRefMS
	var qpsCPU, qpsWall, utils []float64
	queries := 0
	for _, win := range m.thru {
		q := 0
		for _, s := range win.samples {
			q += s.queries
		}
		c := win.clk
		cores := c.cpu.Seconds() / float64(nproc)
		qpsCPU, qpsWall = append(qpsCPU, float64(q)/cores*speed), append(qpsWall, float64(q)/c.wall.Seconds())
		utils = append(utils, cores/c.wall.Seconds())
		queries += q
	}
	e2e := map[string]described{
		"setup_s":           {metric{median(setups) / speed, "s"}, len(setups)},
		"latency_p50_ms":    {metric{median(p50s), "ms"}, n},
		"latency_p99_ms":    {metric{medianP99(m.tail), "ms"}, n},
		"first_cell_p50_ms": {metric{median(firsts), "ms"}, nFirst},
		"qps":               {metric{median(qpsCPU), "queries/s"}, queries},
		"mem_peak_mb":       {metric{memPeak, "MB"}, 1},
	}
	if w.open {
		e2e["max_qps_at_slo"] = described{metric{maxRateAtSLO(m.ladder) * speed, "req/s"}, len(m.ladder)}
	}
	info := func(name, unit string, v float64, n int) {
		fmt.Fprintf(out, "  %-34s %14.6f %-10s n=%d\n", name, v, unit, n)
	}
	info("trials_per_s", "trials/s", float64(trials)/wall.Seconds(), trials)
	info("qps_wall", "queries/s", median(qpsWall), queries)
	info("cpu_util", "ratio", median(utils), len(utils))
	return e2e
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ss []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(f(s))
	}
	return out
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// assertCounters checks the cache state a workload promises, from the
// program's own counters around the timed phase.
func assertCounters(w *workload, m *measured, before, after counters) []string {
	var bad []string
	builds := diffCounts(after.eval.Builds, before.eval.Builds)
	memoMiss := after.eval.Misses["memo"] - before.eval.Misses["memo"]
	switch w {
	case serveHot:
		if len(builds) > 0 || memoMiss > 0 {
			bad = append(bad, fmt.Sprintf("cache: serve-hot ran builds %v and %d memo misses after setup", builds, memoMiss))
		}
		if d := after.approx.Misses - before.approx.Misses; d > 0 {
			bad = append(bad, fmt.Sprintf("cache: serve-hot approx tier missed %d tolerant points", d))
		}
		if after.adm.Shed != before.adm.Shed {
			bad = append(bad, fmt.Sprintf("cache: serve-hot shed %d requests", after.adm.Shed-before.adm.Shed))
		}
	case estimateWide, timedSim:
		if len(builds) > 0 {
			bad = append(bad, fmt.Sprintf("cache: %s built exact artifacts %v", w.name, builds))
		}
	case coldSweep:
		fresh := 0
		for _, ph := range m.all {
			for _, s := range ph.samples {
				if s.fresh && !s.failed {
					fresh++
				}
			}
		}
		total := sumCounts(builds)
		writes := after.store.Writes - before.store.Writes
		if total < uint64(fresh) || writes < uint64(fresh) {
			bad = append(bad, fmt.Sprintf("cache: cold-sweep ran %d builds and %d store writes for %d fresh queries", total, writes, fresh))
		}
		if fresh == 0 {
			bad = append(bad, "cache: cold-sweep answered no fresh query")
		}
		if d := after.store.WriteErrors - before.store.WriteErrors; d > 0 {
			bad = append(bad, fmt.Sprintf("cache: %d store write errors", d))
		}
		if d := after.store.Corrupt - before.store.Corrupt; d > 0 {
			bad = append(bad, fmt.Sprintf("cache: %d corrupt store records", d))
		}
	}
	return bad
}
