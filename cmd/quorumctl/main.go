// Command quorumctl inspects and measures quorum-system constructions.
// Systems are built from declarative spec strings through the
// construction registry; measurements flow through the Query evaluation
// API, the same path probeserved serves remotely.
//
// Usage:
//
//	quorumctl -system maj:7 [-p 0.1] [-enumerate] [-check]
//	quorumctl eval -system maj:7 -p 0.1,0.3,0.5 [-measures pc,ppc,availability,expected,estimate,tree]
//	               [-trials 10000] [-seed 1] [-tolerance 0] [-stream] [-json]
//	               [-timed] [-latency exp:4] [-churn flap:50,10] [-window 3]
//	               [-hedge 8] [-timed-deadline 200] [-timed-strategy d|r]
//	quorumctl systems [-addr http://host:port] [-json]
//	quorumctl plan [-nodes 9] [-candidates rw:maj:9,grid:3x3] [-read-fraction 0.75]
//	               [-capacities 1000,500,...] [-read-capacities ...] [-write-capacities ...]
//	               [-f 1] [-json]
//	quorumctl cache stat|warm|clear -store DIR [-systems maj:13,...] [-p 0.1,0.3] [-json]
//	quorumctl -specs
//
// The eval subcommand accepts a comma-separated -p grid and evaluates
// every requested measure at every grid point; -json prints the shared
// Result wire encoding instead of the human table. With -stream the
// cells of the streaming evaluation API print live as each measure (or
// Monte Carlo trial chunk) completes — one line per cell, or NDJSON
// cell encodings under -json. A positive -tolerance makes the estimate
// measure adaptive: trials stop as soon as the 95% confidence
// half-interval reaches the target, bounded by -trials (or the
// MaxQueryTrials budget when -trials is 0).
//
// With -timed the eval subcommand runs the temporal engine under the
// scenario the -latency / -churn / -window / -hedge / -timed-deadline
// flags describe; the timed-ttq, timed-reach and timed-inflight
// measures then report the time-to-quorum distribution, the fraction
// of trials finishing by the deadline, and probe-traffic accounting.
// When -timed is set without any timed measure, timed-ttq is implied.
//
// The systems subcommand lists the registered construction names and
// every recognized measure — locally, or from a probeserved instance
// with -addr.
//
// The plan subcommand ranks candidate read/write systems by the
// capacity they sustain under a workload (read fraction, per-node
// capacities, a resilience requirement -f); see plan.go.
//
// The cache subcommand manages a persistent artifact store directory
// shared with a probeserved fleet: stat prints the per-kind footprint,
// warm precomputes the named systems' exact artifacts into it, and
// clear removes every record; see cache.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"probequorum"
	"probequorum/client"
	"probequorum/internal/probeserve"
	"probequorum/internal/quorum"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "eval":
			os.Exit(runEval(os.Args[2:]))
		case "plan":
			os.Exit(runPlan(os.Args[2:]))
		case "cache":
			os.Exit(runCache(os.Args[2:]))
		case "systems":
			os.Exit(runSystems(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:]))
}

// run is the inspect report: the system's shape, availability and
// probe cost, plus its layout, minimal quorums (-enumerate) and the
// nondominated-coterie check (-check) on request.
func run(args []string) int {
	fs := flag.NewFlagSet("quorumctl", flag.ExitOnError)
	var (
		system    = fs.String("system", "", "system spec, e.g. maj:7 | cw:1,3,2 | triang:4 | tree:3 | hqs:2 | vote:3,1,1,2 | recmaj:3x2 | wheel:8")
		p         = fs.Float64("p", 0.1, "failure probability for the availability report")
		enumerate = fs.Bool("enumerate", false, "list all minimal quorums (small systems)")
		check     = fs.Bool("check", false, "verify the nondominated-coterie property (small systems)")
		specs     = fs.Bool("specs", false, "list the registered construction names and exit")
	)
	fs.Parse(args)

	if *specs {
		fmt.Println(strings.Join(probequorum.SpecNames(), "\n"))
		return 0
	}

	sys, err := build(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumctl:", err)
		return 1
	}

	// The inspect report is a two-measure Query against the shared
	// evaluation path.
	eval := probequorum.NewEvaluator()
	res, err := eval.Do(context.Background(), probequorum.Query{
		System:   sys,
		Measures: []probequorum.Measure{probequorum.MeasureAvailability, probequorum.MeasureExpected},
		Ps:       []float64{*p},
	})

	fmt.Printf("system:        %s\n", sys.Name())
	if spec, ok := probequorum.SpecOf(sys); ok {
		fmt.Printf("spec:          %s\n", spec)
	}
	fmt.Printf("universe:      %d elements\n", sys.Size())
	fmt.Printf("quorum sizes:  %d .. %d\n", quorum.MinQuorumSize(sys), quorum.MaxQuorumSize(sys))
	if err == nil {
		pt := res.Point(*p)
		fmt.Printf("availability:  F_p = %.6f at p = %.3f\n", *pt.Availability, *p)
		fmt.Printf("probe cost:    %.4f expected probes (paper strategy, IID p = %.3f)\n", *pt.Expected, *p)
	} else if f, err := eval.AvailabilityCtx(context.Background(), sys, *p); err == nil {
		// Systems without the ExactExpectation capability still report
		// availability.
		fmt.Printf("availability:  F_p = %.6f at p = %.3f\n", f, *p)
	} else {
		// Past the witness-table bound with no closed form: the bound
		// error names the measures still available.
		fmt.Printf("availability:  %v\n", err)
	}

	if art, err := probequorum.RenderSystem(sys, nil); err == nil {
		fmt.Println("\nlayout:")
		fmt.Print(art)
	}

	if *enumerate {
		qs, err := quorum.EnumerateQuorums(sys)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quorumctl:", err)
			return 1
		}
		fmt.Println("\nminimal quorums:")
		for _, q := range qs {
			fmt.Println(" ", q)
		}
	}

	if *check {
		if err := probequorum.CheckNondominated(sys); err != nil {
			fmt.Fprintln(os.Stderr, "quorumctl: ND check FAILED:", err)
			return 1
		}
		fmt.Println("\nND check: the system is a nondominated coterie")
	}
	return 0
}

// runEval is the eval subcommand: build a Query from the flags, submit
// it, and print the Result as a human table or as the wire encoding.
func runEval(args []string) int {
	fs := flag.NewFlagSet("quorumctl eval", flag.ExitOnError)
	var (
		system    = fs.String("system", "", "system spec, e.g. maj:7 (see quorumctl -specs)")
		pgrid     = fs.String("p", "0.5", "comma-separated failure-probability grid, e.g. 0.1,0.3,0.5")
		measures  = fs.String("measures", "availability,expected", "comma-separated measures: pc, ppc, availability, expected, estimate, tree, timed-ttq, timed-reach, timed-inflight, ...")
		trials    = fs.Int("trials", 0, "Monte Carlo trials for estimate (0: evaluator default; with -tolerance, the budget)")
		seed      = fs.Uint64("seed", 0, "Monte Carlo seed for estimate (0: evaluator default)")
		tolerance = fs.Float64("tolerance", 0, "adaptive estimate precision: target 95% confidence half-interval (0: fixed trials)")
		stream    = fs.Bool("stream", false, "print evaluation cells live as they complete instead of the final table")
		asJSON    = fs.Bool("json", false, "print the Result wire encoding (or, with -stream, NDJSON cells) instead of the table")

		timed    = fs.Bool("timed", false, "run the temporal engine; scenario flags below apply (implies timed-ttq when no timed measure is requested)")
		latency  = fs.String("latency", "", "probe latency distribution: const:MS | uniform:LO,HI | exp:MEAN | lognorm:MU,SIGMA [+zone:NZONES,OFFMS]")
		churn    = fs.String("churn", "", "element churn process: flap:UPMS,DOWNMS | zoneout:NZONES,STARTMS,DURMS | script:down@MS=LO-HI;...")
		window   = fs.Int("window", 0, "probes allowed in flight at once (0 or 1: sequential)")
		hedge    = fs.Float64("hedge", 0, "hedge deadline in ms: issue one extra probe when an outstanding probe exceeds it (0: off)")
		deadline = fs.Float64("timed-deadline", 0, "deadline in ms for the timed-reach measure (0: none)")
		strategy = fs.String("timed-strategy", "", "probe strategy family for the timed scheduler: d (deterministic) | r (randomized); empty: system default")
	)
	fs.Parse(args)

	q, err := buildQuery(*system, *pgrid, *measures, *trials, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumctl eval:", err)
		return 1
	}
	q.Tolerance = *tolerance
	if *timed {
		q.Latency, q.Churn, q.Window = *latency, *churn, *window
		q.HedgeMS, q.TimedDeadlineMS, q.TimedStrategy = *hedge, *deadline, *strategy
		hasTimed := false
		for _, m := range q.Measures {
			if m.Timed() {
				hasTimed = true
			}
		}
		if !hasTimed {
			q.Measures = append(q.Measures, probequorum.MeasureTimedTTQ)
		}
	}
	if *stream {
		return runEvalStream(q, *asJSON)
	}
	res, err := probequorum.NewEvaluator().Do(context.Background(), q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumctl eval:", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "quorumctl eval:", err)
			return 1
		}
		return 0
	}
	printResult(res)
	return 0
}

// runEvalStream prints the cells of one streaming evaluation live: one
// human line (or NDJSON cell encoding) per cell, flushed as each measure
// or trial chunk completes, estimate points refining monotonically until
// their done cell.
func runEvalStream(q probequorum.Query, asJSON bool) int {
	enc := json.NewEncoder(os.Stdout)
	for cell, err := range probequorum.NewEvaluator().Stream(context.Background(), q) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "quorumctl eval:", err)
			return 1
		}
		if asJSON {
			enc.Encode(cell)
			continue
		}
		printCell(cell)
	}
	return 0
}

// printCell renders one evaluation cell as a human line.
func printCell(c probequorum.Cell) {
	switch {
	case c.Measure == "" && c.Err == "":
		fmt.Printf("system    %s (n = %d)", c.Name, c.N)
		if c.Spec != "" {
			fmt.Printf("  spec %s", c.Spec)
		}
		if c.Trials > 0 {
			fmt.Printf("  mc trials<=%d seed=%d", c.Trials, c.Seed)
		}
		fmt.Println()
	case c.Err != "":
		fmt.Printf("error     %s\n", c.Err)
	case c.Measure == probequorum.MeasureTree:
		fmt.Printf("tree      depth=%d leaves=%d\n%s", c.Tree.Depth, c.Tree.Leaves, c.Tree.ASCII)
	case c.P == nil:
		fmt.Printf("%-9s %g\n", c.Measure, c.Value)
	case c.Timed != nil:
		switch c.Measure {
		case probequorum.MeasureTimedTTQ:
			d := c.Timed.TTQ
			fmt.Printf("%-9s p=%-7.4f mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms trials=%d\n",
				c.Measure, *c.P, d.MeanMS, d.P50MS, d.P99MS, d.MaxMS, c.Trials)
		case probequorum.MeasureTimedReach:
			fmt.Printf("%-9s p=%-7.4f %12.6f  trials=%d\n", c.Measure, *c.P, c.Timed.Reach, c.Trials)
		default:
			fl := c.Timed.Flight
			fmt.Printf("%-9s p=%-7.4f mean=%.3f peak=%d issued=%.2f static=%.2f\n",
				c.Measure, *c.P, fl.MeanInFlight, fl.MaxInFlight, fl.IssuedMean, fl.StaticMean)
		}
	case c.Measure == probequorum.MeasureEstimate:
		state := "…"
		if c.Done {
			state = "done"
		}
		fmt.Printf("%-9s p=%-7.4f %12.6f  ±%.6f  trials=%-9d %s\n", c.Measure, *c.P, c.Value, c.HalfCI, c.Trials, state)
	default:
		fmt.Printf("%-9s p=%-7.4f %12.6f\n", c.Measure, *c.P, c.Value)
	}
}

// buildQuery assembles the eval subcommand's Query from flag values.
func buildQuery(system, pgrid, measures string, trials int, seed uint64) (probequorum.Query, error) {
	if system == "" {
		return probequorum.Query{}, fmt.Errorf("missing -system spec (known constructions: %s)",
			strings.Join(probequorum.SpecNames(), " | "))
	}
	ms, err := probequorum.ParseMeasures(measures)
	if err != nil {
		return probequorum.Query{}, err
	}
	ps, err := probequorum.ParsePGrid(pgrid)
	if err != nil {
		return probequorum.Query{}, err
	}
	return probequorum.Query{Spec: system, Measures: ms, Ps: ps, Trials: trials, Seed: seed}, nil
}

// printResult renders a Result as the human-facing measurement table.
func printResult(res *probequorum.Result) {
	fmt.Printf("system:  %s (n = %d)\n", res.Name, res.N)
	if res.Spec != "" {
		fmt.Printf("spec:    %s\n", res.Spec)
	}
	if res.PC != nil {
		fmt.Printf("PC:      %d worst-case probes\n", *res.PC)
	}
	if res.Resilience != nil {
		fmt.Printf("resilience: %d crash failures tolerated\n", *res.Resilience)
	}
	if res.Trials > 0 {
		fmt.Printf("mc:      %d trials, seed %d\n", res.Trials, res.Seed)
	}
	if len(res.Points) > 0 {
		fmt.Println()
		header := "       p"
		pt := res.Points[0]
		if pt.PPC != nil {
			header += "       PPC_p"
		}
		if pt.Availability != nil {
			header += "         F_p"
		}
		if pt.Expected != nil {
			header += "    E[probes]"
		}
		if pt.Estimate != nil {
			header += "     estimate     ±95% CI"
		}
		if pt.TimedTTQ != nil {
			header += "     TTQ mean      TTQ p99"
		}
		if pt.TimedReach != nil {
			header += "       reach"
		}
		if pt.TimedInFlight != nil {
			header += "    in-flight       issued"
		}
		fmt.Println(header)
		for _, pt := range res.Points {
			line := fmt.Sprintf("%8.4f", pt.P)
			if pt.PPC != nil {
				line += fmt.Sprintf("%12.6f", *pt.PPC)
			}
			if pt.Availability != nil {
				line += fmt.Sprintf("%12.6f", *pt.Availability)
			}
			if pt.Expected != nil {
				line += fmt.Sprintf("%13.6f", *pt.Expected)
			}
			if pt.Estimate != nil {
				line += fmt.Sprintf("%13.6f%12.6f", pt.Estimate.Mean, pt.Estimate.HalfCI)
			}
			if pt.TimedTTQ != nil {
				line += fmt.Sprintf("%11.3fms%11.3fms", pt.TimedTTQ.MeanMS, pt.TimedTTQ.P99MS)
			}
			if pt.TimedReach != nil {
				line += fmt.Sprintf("%12.6f", *pt.TimedReach)
			}
			if pt.TimedInFlight != nil {
				line += fmt.Sprintf("%13.3f%13.3f", pt.TimedInFlight.MeanInFlight, pt.TimedInFlight.IssuedMean)
			}
			fmt.Println(line)
		}
	}
	if res.Tree != nil {
		fmt.Printf("\noptimal strategy tree: depth %d, %d leaves\n%s", res.Tree.Depth, res.Tree.Leaves, res.Tree.ASCII)
	}
}

// runSystems is the systems subcommand: list the registered
// construction names and every recognized measure — locally by
// default, or from a probeserved instance named by -addr.
func runSystems(args []string) int {
	fs := flag.NewFlagSet("quorumctl systems", flag.ExitOnError)
	var (
		addr   = fs.String("addr", "", "probeserved base URL, e.g. http://localhost:8773 (empty: list locally)")
		asJSON = fs.Bool("json", false, "print the /v1/systems wire encoding instead of the listing")
	)
	fs.Parse(args)

	specs, measures := probequorum.SpecNames(), probequorum.AllMeasures()
	if *addr != "" {
		resp, err := client.New(*addr).SystemsInfo(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "quorumctl systems:", err)
			return 1
		}
		specs, measures = resp.Specs, resp.Measures
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(probeserve.SystemsResponse{Specs: specs, Measures: measures})
		return 0
	}
	fmt.Println("constructions:")
	for _, s := range specs {
		fmt.Println("  " + s)
	}
	fmt.Println("measures:")
	for _, m := range measures {
		fmt.Println("  " + string(m))
	}
	return 0
}

// build parses the -system spec through the construction registry.
func build(system string) (probequorum.System, error) {
	if system == "" {
		return nil, fmt.Errorf("missing -system spec (known constructions: %s)",
			strings.Join(probequorum.SpecNames(), " | "))
	}
	return probequorum.Parse(system)
}
