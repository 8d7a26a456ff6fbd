package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"testing"

	"probequorum"
	"probequorum/internal/analysis"
	"probequorum/internal/analysis/framework"
	"probequorum/internal/availability"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/sim"
	"probequorum/internal/spec"
	"probequorum/internal/strategy"
)

// benchRecord is one machine-readable perf measurement. The op names are
// stable across PRs; future sessions append their files (BENCH_PR4.json,
// ...) and diff NsPerOp/AllocsPerOp against the baselines (BENCH_PR1.json
// from PR 1, BENCH_PR2.json adding the Evaluator session ops,
// BENCH_PR3.json adding the batch-query throughput ops, BENCH_PR5.json
// adding the streaming ops, BENCH_PR6.json adding the robustness ops).
// Batch ops additionally report queries/sec — the serving-throughput
// headline of the Query API. Robustness ops (PR 6) report shed_rate (the
// fraction of requests the admission gate refused under deliberate
// overload) and coalesce_hits (single-flight followers served per build
// in a cold stampede).
type benchRecord struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	ProbesPerSec  float64 `json:"probes_per_sec,omitempty"`
	CellsPerSec   float64 `json:"cells_per_sec,omitempty"`
	ShedRate      float64 `json:"shed_rate,omitempty"`
	CoalesceHits  float64 `json:"coalesce_hits,omitempty"`
	// StrategiesPerSec is the planner-op rate (PR 7): optimized
	// read/write strategies delivered per second, whether each came from
	// a fresh LP solve (cold) or the session memo (warm).
	StrategiesPerSec float64 `json:"strategies_per_sec,omitempty"`
	// VetMS is the quorumvet wall time (PR 8): one full five-analyzer
	// pass over every module package, type-checked from source, in
	// milliseconds. The CI static-analysis gate budget tracks this.
	VetMS float64 `json:"vet_ms,omitempty"`
	// WarmSpeedup (PR 9) is the persistent-store headline: cold-compute
	// ns/op over warm-start ns/op for the same exact answer, where the
	// warm op opens the store and answers from disk in a fresh session —
	// the restarted-fleet scenario.
	WarmSpeedup float64 `json:"warm_speedup,omitempty"`
	// P99MS (PR 9) is the 99th-percentile per-query latency of the
	// mixed hot/near/cold load-generator op, in milliseconds. The PR 10
	// des/ttq op reuses it for the simulated p99 time-to-quorum.
	P99MS float64 `json:"p99_ms,omitempty"`
	// EventsPerSec is the temporal-engine rate (PR 10): discrete
	// simulation events processed per second of wall time.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// benchFile is the on-disk schema: measurement context plus the records.
type benchFile struct {
	GoVersion  string        `json:"go_version"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Records    []benchRecord `json:"records"`
}

// benchOp is one suite entry; queries > 0 marks a batch op whose
// queries/sec rate is derived from ns/op, probes > 0 a Monte Carlo op
// whose probes/sec rate is derived the same way (probes is the expected
// total probe count of one op), and cells > 0 a streaming op whose
// cells/sec delivery rate is derived likewise.
type benchOp struct {
	name       string
	queries    int
	probes     int
	cells      int
	strategies int
	events     int
	fn         func(b *testing.B)
	// post, when set, annotates the finished record with counters the op
	// accumulated (shed rate, coalesce hits).
	post func(rec *benchRecord)
}

// benchOps is the fixed suite of hot-path operations: the word-level
// witness primitive (witness/mask-word and availability/BruteForce-mask
// time ContainsQuorumWords on a one-word slice, the bitset and coloring
// ops the ContainsQuorum reference), the exact DPs on both engines, the
// parallel and sequential Monte Carlo loops, the exhaustive availability
// enumerations, the Evaluator session's cached paths against their
// uncached counterparts, and the batch-query fan-out cold vs. warm. Each
// op is sized to finish in well under a minute.
func benchOps() []benchOp {
	maj63 := spec.MustParse("maj:63").(quorum.WideMaskSystem)
	maj11 := spec.MustParse("maj:11")
	maj9 := spec.MustParse("maj:9")
	maj17 := spec.MustParse("maj:17")
	maj101 := spec.MustParse("maj:101").(probe.Prober)
	tri4 := spec.MustParse("triang:4")
	maj17NoMask := struct{ quorum.System }{maj17}

	return []benchOp{
		{name: "witness/mask-word/Maj63", fn: func(b *testing.B) {
			words := make([]uint64, 1)
			hits := 0
			for i := 0; i < b.N; i++ {
				words[0] = uint64(i) * 0x9E3779B97F4A7C15 >> 1
				if maj63.ContainsQuorumWords(words) {
					hits++
				}
			}
			_ = hits
		}},
		{name: "witness/bitset/Maj63", fn: func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if maj63.ContainsQuorum(quorum.SetOfMask(63, uint64(i)*0x9E3779B97F4A7C15>>1)) {
					hits++
				}
			}
			_ = hits
		}},
		{name: "strategy/OptimalPPC-mask/Maj11", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strategy.OptimalPPC(maj11, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "strategy/OptimalPPC-mask/Triang4", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strategy.OptimalPPC(tri4, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "strategy/OptimalPC-mask/Maj9", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strategy.OptimalPC(maj9); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The Evaluator session's headline win: the first
		// AverageProbeComplexity call builds the WitnessTable and runs the
		// DP; later calls on the same (system, p) are memo hits, and calls
		// at fresh p reuse the cached table. Compare evaluator/PPC-cached
		// (repeated call, warm session) and evaluator/PPC-freshp (new p
		// every iteration, warm table) against strategy/OptimalPPC-mask
		// (the uncached path above).
		{name: "evaluator/PPC-cached/Maj11", fn: func(b *testing.B) {
			eval := probequorum.NewEvaluator()
			if _, err := eval.AverageProbeComplexity(maj11, 0.5); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.AverageProbeComplexity(maj11, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "evaluator/PPC-freshp/Maj11", fn: func(b *testing.B) {
			eval := probequorum.NewEvaluator()
			if _, err := eval.AverageProbeComplexity(maj11, 0.5); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := float64(i%1000)/2000 + 1e-9*float64(i)
				if _, err := eval.AverageProbeComplexity(maj11, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "evaluator/PPC-uncached/Maj11", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := float64(i%1000)/2000 + 1e-9*float64(i)
				if _, err := strategy.OptimalPPC(maj11, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "sim/Estimate-parallel/ProbeMaj101x2000", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Estimate(2000, 17, func(rng *rand.Rand) float64 {
					o := probe.NewOracle(coloring.IID(101, 0.5, rng))
					maj101.ProbeWitness(o)
					return float64(o.Probes())
				})
			}
		}},
		{name: "sim/Estimate-sequential/ProbeMaj101x2000", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.EstimateSeq(2000, 17, func(rng *rand.Rand) float64 {
					o := probe.NewOracle(coloring.IID(101, 0.5, rng))
					maj101.ProbeWitness(o)
					return float64(o.Probes())
				})
			}
		}},
		{name: "availability/BruteForce-mask/Maj17", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				availability.BruteForce(maj17, 0.3)
			}
		}},
		{name: "availability/BruteForce-coloring/Maj17", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				availability.BruteForce(maj17NoMask, 0.3)
			}
		}},
		// Wide-universe ops (PR 4): the wide membership primitive and the
		// allocation-free Monte Carlo estimate loop at n far beyond one
		// machine word — the first perf baseline of the large-n regime.
		// Estimate ops report probes/sec (expected probes per trial at
		// p = 1/2 times the trial count, over wall time per op).
		// The mutation loop below XORs full words only (never the trimmed
		// last word), keeping every probed mask inside the WideMaskSystem
		// contract of no bits at or above n.
		{name: "witness/wide-words/Maj1025", fn: func(b *testing.B) {
			maj1025 := spec.MustParse("maj:1025").(quorum.WideMaskSystem)
			words := make([]uint64, quorum.WordCount(1025))
			rng := rand.New(rand.NewPCG(2, 4))
			for i := range words {
				words[i] = rng.Uint64()
			}
			words[len(words)-1] &= 1
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				words[i%(len(words)-1)] ^= 0x9E3779B97F4A7C15
				if maj1025.ContainsQuorumWords(words) {
					hits++
				}
			}
			_ = hits
		}},
		{name: "witness/wide-words/Tree9", fn: func(b *testing.B) {
			tree9 := spec.MustParse("tree:9").(quorum.WideMaskSystem)
			words := make([]uint64, quorum.WordCount(1023))
			rng := rand.New(rand.NewPCG(2, 4))
			for i := range words {
				words[i] = rng.Uint64()
			}
			words[len(words)-1] &= uint64(1)<<(1023%64) - 1
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				words[i%(len(words)-1)] ^= 0x9E3779B97F4A7C15
				if tree9.ContainsQuorumWords(words) {
					hits++
				}
			}
			_ = hits
		}},
		{name: "sim/Estimate-wide/Maj129x2000", probes: wideProbes("maj:129", 2000), fn: wideEstimateOp("maj:129", 2000)},
		{name: "sim/Estimate-wide/Maj1025x2000", probes: wideProbes("maj:1025", 2000), fn: wideEstimateOp("maj:1025", 2000)},
		{name: "sim/Estimate-wide/Tree6x2000", probes: wideProbes("tree:6", 2000), fn: wideEstimateOp("tree:6", 2000)},
		{name: "sim/Estimate-wide/RecMaj3x6x2000", probes: wideProbes("recmaj:3x6", 2000), fn: wideEstimateOp("recmaj:3x6", 2000)},
		// Batch-query throughput: one DoBatch over every registered
		// construction with a three-point grid — the probeserved
		// /v1/eval workload. Cold rebuilds every artifact per batch (a
		// fresh Evaluator each iteration); warm answers from one
		// session's memo caches, the steady state of a serving process.
		{name: "query/DoBatch-cold/8specs-x-3p", queries: len(batchSpecs), fn: func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if err := runBatch(ctx, probequorum.NewEvaluator()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "query/DoBatch-warm/8specs-x-3p", queries: len(batchSpecs), fn: func(b *testing.B) {
			ctx := context.Background()
			eval := probequorum.NewEvaluator()
			if err := runBatch(ctx, eval); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runBatch(ctx, eval); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Streaming ops (PR 5): the /v1/stream serving shape. Cell
		// throughput drains the full batch stream warm (the steady state
		// of a long-lived service); time-to-first-cell measures the
		// latency advantage streaming buys over a complete /v1/eval
		// answer — cold includes every artifact build, warm is the memo
		// path. DoBatch above now runs *through* the stream fold, so its
		// cold/warm numbers against BENCH_PR3/PR4 are the no-regression
		// check of the single evaluation path.
		{name: "stream/cells-warm/8specs-x-3p", cells: countBatchCells(), fn: func(b *testing.B) {
			ctx := context.Background()
			eval := probequorum.NewEvaluator()
			if err := runBatch(ctx, eval); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := drainBatchStream(ctx, eval); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "stream/first-cell-cold/8specs-x-3p", fn: func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if err := firstBatchCell(ctx, probequorum.NewEvaluator()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "stream/first-cell-warm/8specs-x-3p", fn: func(b *testing.B) {
			ctx := context.Background()
			eval := probequorum.NewEvaluator()
			if err := runBatch(ctx, eval); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := firstBatchCell(ctx, eval); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Adaptive-precision Monte Carlo: one tolerance-driven estimate
		// of the wide majority, stopping at the first in-order chunk
		// whose 95% half-interval meets ±2 probes — the trials saved
		// against a blind fixed budget are the op's headline.
		overloadOp(),
		coalesceOp(),
		plannerColdOp(),
		plannerWarmOp(),
		plannerRankOp(),
		// Persistent-store ops (PR 9): cold must run before warm — the
		// warm op's post hook divides the cold ns/op it left behind.
		storeColdOp(),
		storeWarmOp(),
		loadgenOp(),
		// Temporal-engine ops (PR 10): raw event throughput of the
		// discrete-event core, and one full timed query on the wide
		// majority through the façade.
		desEventsOp(),
		desTTQOp(),
		// Static analysis (PR 8): one full quorumvet suite pass over the
		// module, type-checking every package from source — the upper
		// bound of what the CI gate costs before go vet's caching kicks
		// in. The op fails loudly if the suite reports findings: the
		// benchmark must measure a clean tree.
		{name: "staticanalysis/quorumvet/module", fn: func(b *testing.B) {
			cwd, err := os.Getwd()
			if err != nil {
				b.Fatal(err)
			}
			root, modPath, err := framework.FindModuleRoot(cwd)
			if err != nil {
				b.Fatal(err)
			}
			pkgs, err := framework.ModulePackages(modPath, root)
			if err != nil {
				b.Fatal(err)
			}
			analyzers := analysis.Analyzers()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loader := framework.NewLoader()
				loader.ModulePath, loader.ModuleDir = modPath, root
				for _, p := range pkgs {
					pkg, err := loader.Load(p)
					if err != nil {
						b.Fatal(err)
					}
					diags, err := framework.Run(pkg, analyzers)
					if err != nil {
						b.Fatal(err)
					}
					if len(diags) != 0 {
						b.Fatalf("quorumvet: %d findings in %s", len(diags), p)
					}
				}
			}
		}, post: func(rec *benchRecord) { rec.VetMS = rec.NsPerOp / 1e6 }},
		{name: "stream/adaptive-estimate/Maj1025-tol2", fn: func(b *testing.B) {
			ctx := context.Background()
			eval := probequorum.NewEvaluator()
			q := probequorum.Query{
				Spec:      "maj:1025",
				Measures:  []probequorum.Measure{probequorum.MeasureEstimate},
				Ps:        []float64{0.5},
				Seed:      11,
				Tolerance: 2.0,
			}
			for i := 0; i < b.N; i++ {
				if _, err := eval.Do(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// batchQueries is the throughput batch: every registered construction
// with pc plus three per-p measures over a three-point grid.
func batchQueries() []probequorum.Query {
	return probequorum.SpecQueries(batchSpecs,
		[]probequorum.Measure{probequorum.MeasurePC, probequorum.MeasurePPC, probequorum.MeasureAvailability, probequorum.MeasureExpected},
		[]float64{0.1, 0.3, 0.5})
}

// drainBatchStream consumes the whole batch cell stream, failing on any
// stream or per-query error.
func drainBatchStream(ctx context.Context, eval *probequorum.Evaluator) error {
	for cell, err := range eval.StreamBatch(ctx, batchQueries()) {
		if err != nil {
			return err
		}
		if cell.Err != "" {
			return fmt.Errorf("query %s failed: %s", cell.Spec, cell.Err)
		}
	}
	return nil
}

// firstBatchCell consumes exactly one cell of the batch stream and
// abandons the rest (producers unwind through the stream's cancel).
func firstBatchCell(ctx context.Context, eval *probequorum.Evaluator) error {
	for _, err := range eval.StreamBatch(ctx, batchQueries()) {
		return err
	}
	return fmt.Errorf("empty stream")
}

// countBatchCells counts the deterministic cell total of one batch
// stream, for the cells/sec rate. A broken stream must fail the run
// loudly, not quietly drop cells_per_sec from the perf artifact.
func countBatchCells() int {
	n := 0
	for c, err := range probequorum.NewEvaluator().StreamBatch(context.Background(), batchQueries()) {
		if err != nil {
			panic(fmt.Sprintf("probebench: batch stream failed: %v", err))
		}
		if c.Err != "" {
			panic(fmt.Sprintf("probebench: batch query %d failed: %s", c.Query, c.Err))
		}
		n++
	}
	return n
}

// wideEstimateOp returns a benchmark body running one full wide-path
// Monte Carlo estimate (trials trials at p = 1/2) per op.
func wideEstimateOp(specStr string, trials int) func(b *testing.B) {
	return func(b *testing.B) {
		sys := spec.MustParse(specStr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := probequorum.EstimateAverageProbes(sys, 0.5, trials, 17); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// wideProbes returns the expected total probe count of one estimate op,
// for the probes/sec rate.
func wideProbes(specStr string, trials int) int {
	expected, err := probequorum.ExpectedProbes(spec.MustParse(specStr), 0.5)
	if err != nil {
		return 0
	}
	return int(expected * float64(trials))
}

// batchSpecs is the throughput workload: every registered construction
// at a verifiable size.
var batchSpecs = []string{
	"maj:11", "wheel:10", "cw:1,3,5", "triang:4", "tree:2", "hqs:2", "vote:5,3,1,1,1,1,1", "recmaj:3x2",
}

// runBatch submits the throughput batch (pc + ppc/availability/expected
// over a three-point grid) and fails on any per-query error.
func runBatch(ctx context.Context, eval *probequorum.Evaluator) error {
	results, err := eval.DoBatch(ctx, batchQueries())
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Error != "" {
			return fmt.Errorf("query %s failed: %s", r.Spec, r.Error)
		}
	}
	return nil
}

// writeBenchJSON times every op with the standard benchmark harness and
// writes the records.
func writeBenchJSON(path string) error {
	ops := benchOps()
	out := benchFile{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, op := range ops {
		fmt.Fprintf(os.Stderr, "bench %-45s ", op.name)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			op.fn(b)
		})
		rec := benchRecord{
			Name:        op.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if op.post != nil {
			op.post(&rec)
		}
		if op.queries > 0 && rec.NsPerOp > 0 {
			rec.QueriesPerSec = float64(op.queries) * 1e9 / rec.NsPerOp
		}
		if op.probes > 0 && rec.NsPerOp > 0 {
			rec.ProbesPerSec = float64(op.probes) * 1e9 / rec.NsPerOp
		}
		if op.cells > 0 && rec.NsPerOp > 0 {
			rec.CellsPerSec = float64(op.cells) * 1e9 / rec.NsPerOp
		}
		if op.strategies > 0 && rec.NsPerOp > 0 {
			rec.StrategiesPerSec = float64(op.strategies) * 1e9 / rec.NsPerOp
		}
		if op.events > 0 && rec.NsPerOp > 0 {
			rec.EventsPerSec = float64(op.events) * 1e9 / rec.NsPerOp
		}
		fmt.Fprintf(os.Stderr, "%12.1f ns/op  %6d allocs/op", rec.NsPerOp, rec.AllocsPerOp)
		if rec.QueriesPerSec > 0 {
			fmt.Fprintf(os.Stderr, "  %10.0f queries/s", rec.QueriesPerSec)
		}
		if rec.ProbesPerSec > 0 {
			fmt.Fprintf(os.Stderr, "  %10.0f probes/s", rec.ProbesPerSec)
		}
		if rec.CellsPerSec > 0 {
			fmt.Fprintf(os.Stderr, "  %10.0f cells/s", rec.CellsPerSec)
		}
		if rec.ShedRate > 0 {
			fmt.Fprintf(os.Stderr, "  shed %.2f", rec.ShedRate)
		}
		if rec.CoalesceHits > 0 {
			fmt.Fprintf(os.Stderr, "  coalesce %.1f", rec.CoalesceHits)
		}
		if rec.StrategiesPerSec > 0 {
			fmt.Fprintf(os.Stderr, "  %10.0f strategies/s", rec.StrategiesPerSec)
		}
		if rec.VetMS > 0 {
			fmt.Fprintf(os.Stderr, "  vet %.0f ms", rec.VetMS)
		}
		if rec.WarmSpeedup > 0 {
			fmt.Fprintf(os.Stderr, "  warm x%.0f", rec.WarmSpeedup)
		}
		if rec.P99MS > 0 {
			fmt.Fprintf(os.Stderr, "  p99 %.2f ms", rec.P99MS)
		}
		if rec.EventsPerSec > 0 {
			fmt.Fprintf(os.Stderr, "  %10.0f events/s", rec.EventsPerSec)
		}
		fmt.Fprintln(os.Stderr)
		out.Records = append(out.Records, rec)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
