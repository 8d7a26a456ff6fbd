// Command probesim runs witness-search simulations: it injects IID
// failures into a system, runs the paper's probing strategy, and reports
// average probes against the exact expectation and the availability.
// Systems are built from declarative spec strings through the
// construction registry (any registered construction works), and the
// deterministic-mode report is a single estimate/expected Query through
// the shared evaluation path, with the availability asked of the same
// session.
//
// Usage:
//
//	probesim -system triang:10 -p 0.3 -trials 10000 [-randomized] [-seed 1]
//	         [-stream] [-tolerance 0]
//
// With -stream the deterministic mode prints the evaluation cells live —
// the running estimate refining per trial chunk until its done cell. A
// positive -tolerance stops the trials adaptively once the 95%
// confidence half-interval reaches the target, bounded by -trials.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"

	"probequorum"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("probesim", flag.ExitOnError)
	var (
		system     = fs.String("system", "triang:4", "system spec, e.g. maj:7 | triang:10 | cw:1,3,2 | tree:3 | hqs:2 | vote:3,1,1,2 | recmaj:3x2 | wheel:8")
		p          = fs.Float64("p", 0.3, "failure probability")
		trials     = fs.Int("trials", 10000, "number of simulated failure patterns (with -tolerance, the budget)")
		seed       = fs.Uint64("seed", 1, "PRNG seed")
		randomized = fs.Bool("randomized", false, "use the randomized worst-case strategy instead")
		stream     = fs.Bool("stream", false, "print the running estimate live as trial chunks accumulate")
		tolerance  = fs.Float64("tolerance", 0, "stop trials once the 95% confidence half-interval reaches this target (0: fixed trials)")
	)
	fs.Parse(args)

	sys, err := probequorum.Parse(*system)
	if err != nil {
		fmt.Fprintf(os.Stderr, "probesim: %v (known constructions: %s)\n",
			err, strings.Join(probequorum.SpecNames(), " | "))
		return 1
	}

	if *randomized {
		return runRandomized(sys, *p, *trials, *seed)
	}

	// Deterministic mode: one Query answers the estimate and the exact
	// expectation in a single pass over the session's caches. Systems
	// without a closed-form expectation (no registered construction, but
	// Query accepts System values) still simulate. The availability is
	// asked separately, so a system past its exact bound still reports
	// its estimate.
	eval := probequorum.NewEvaluator()
	measures := []probequorum.Measure{probequorum.MeasureEstimate}
	if _, ok := sys.(probequorum.ExactExpectation); ok {
		measures = append(measures, probequorum.MeasureExpected)
	}
	query := probequorum.Query{
		System:    sys,
		Measures:  measures,
		Ps:        []float64{*p},
		Trials:    *trials,
		Seed:      *seed,
		Tolerance: *tolerance,
	}
	var res *probequorum.Result
	if *stream {
		// Print the estimate cells live, then fold the collected cells
		// into the same Result the one-shot path reports.
		var cells []probequorum.Cell
		for cell, err := range eval.Stream(context.Background(), query) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "probesim:", err)
				return 1
			}
			cells = append(cells, cell)
			if cell.Measure == probequorum.MeasureEstimate {
				state := "…"
				if cell.Done {
					state = "done"
				}
				fmt.Printf("trials %-9d avg probes %10.4f  ±%.4f  %s\n", cell.Trials, cell.Value, cell.HalfCI, state)
			}
		}
		results, err := probequorum.FoldCells(probequorum.CellSeq(cells), 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "probesim:", err)
			return 1
		}
		res = results[0]
		fmt.Println()
	} else {
		res, err = eval.Do(context.Background(), query)
		if err != nil {
			fmt.Fprintln(os.Stderr, "probesim:", err)
			return 1
		}
	}
	pt := res.Point(*p)
	fmt.Printf("system:            %s (n = %d)\n", res.Name, res.N)
	fmt.Printf("strategy:          deterministic (paper probabilistic-model strategy)\n")
	if *tolerance > 0 {
		fmt.Printf("failure p:         %.3f over %d adaptive trials (target ±%g, budget %d, seed %d)\n",
			*p, pt.Estimate.Trials, *tolerance, res.Trials, res.Seed)
	} else {
		fmt.Printf("failure p:         %.3f over %d trials (seed %d)\n", *p, res.Trials, res.Seed)
	}
	fmt.Printf("avg probes:        %.4f (±%.4f at 95%%)\n", pt.Estimate.Mean, pt.Estimate.HalfCI)
	if pt.Expected != nil {
		fmt.Printf("exact expectation: %.4f\n", *pt.Expected)
	}
	if f, err := eval.AvailabilityCtx(context.Background(), sys, *p); err == nil {
		fmt.Printf("availability:      1 - F_p = %.4f analytically\n", 1-f)
	} else {
		// Past the witness-table bound with no closed form: the bound
		// error names the measures still available.
		fmt.Printf("availability:      %v\n", err)
	}
	return 0
}

// runRandomized keeps the explicit trial loop: the randomized worst-case
// strategy draws per-trial randomness from one shared stream and
// verifies every witness, which the declarative measures do not model.
// One words oracle carries the coloring, probe log and witness buffer
// across every trial, and each witness is verified word-natively
// (monochromatic, probed, and settling the state under the wide
// membership test).
func runRandomized(sys probequorum.System, p float64, trials int, seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, 2*seed+1))
	n := sys.Size()
	ws, err := probequorum.AsWideMaskSystem(sys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probesim:", err)
		return 1
	}
	o := probequorum.NewWordsOracle(n)
	all, rest := probequorum.NewSet(n).Complement(), make([]uint64, o.Words())
	var totalProbes, greens int
	for i := 0; i < trials; i++ {
		probequorum.IIDColoringWordsInto(o.RedWords(), n, p, rng)
		o.Reset()
		w, err := probequorum.FindWitnessWordsRandomized(sys, o, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "probesim:", err)
			return 1
		}
		if err := verifyWordsWitness(ws, o, w, all, rest); err != nil {
			fmt.Fprintln(os.Stderr, "probesim: unsound witness:", err)
			return 1
		}
		totalProbes += o.Probes()
		if w.Color == probequorum.Green {
			greens++
		}
	}
	fmt.Printf("system:            %s (n = %d)\n", sys.Name(), n)
	fmt.Printf("strategy:          randomized (paper worst-case strategy, wide engine)\n")
	fmt.Printf("failure p:         %.3f over %d trials\n", p, trials)
	fmt.Printf("avg probes:        %.4f\n", float64(totalProbes)/float64(trials))
	rate := float64(greens) / float64(trials)
	if f, err := probequorum.NewEvaluator().AvailabilityCtx(context.Background(), sys, p); err == nil {
		fmt.Printf("live-quorum rate:  %.4f (1 - F_p = %.4f analytically)\n", rate, 1-f)
	} else {
		// Past the witness-table bound with no closed form: the bound
		// error names the measures still available.
		fmt.Printf("live-quorum rate:  %.4f\n", rate)
		fmt.Printf("availability:      %v\n", err)
	}
	return 0
}

// verifyWordsWitness checks a wide witness: every element probed, every
// element of the claimed color, and the state settled: a green witness
// contains a quorum, and a red one meets every quorum, so the elements of
// all outside it (assembled in rest) contain none.
func verifyWordsWitness(ws probequorum.WideMaskSystem, o *probequorum.WordsOracle, w probequorum.WordsWitness, all *probequorum.Set, rest []uint64) error {
	probed := o.ProbedWords()
	reds := o.RedWords()
	for i, word := range w.Words {
		if word&^probed[i] != 0 {
			return fmt.Errorf("witness word %d has unprobed elements %#x", i, word&^probed[i])
		}
		wrong := word & reds[i]
		if w.Color == probequorum.Red {
			wrong = word &^ reds[i]
		}
		if wrong != 0 {
			return fmt.Errorf("witness word %d has wrong-colored elements %#x", i, wrong)
		}
		rest[i] = all.Word(i) &^ word
	}
	if w.Color == probequorum.Red {
		if ws.ContainsQuorumWords(rest) {
			return fmt.Errorf("red witness misses a quorum")
		}
	} else if !ws.ContainsQuorumWords(w.Words) {
		return fmt.Errorf("witness contains no quorum")
	}
	return nil
}
