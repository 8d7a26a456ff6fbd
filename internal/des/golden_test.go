package des

import (
	"bufio"
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/timed_golden.txt.gz from the current engine")

const goldenPath = "testdata/timed_golden.txt.gz"

// goldenMatrix is the scenario product the timed golden table pins:
// every discipline against every latency family (plain and zoned) and
// every churn family. Parameters are small enough that windows and
// hedges overlap probes, so speculation and restarts are exercised.
var (
	goldenWindows   = []int{1, 2, 4, 8}
	goldenHedges    = []float64{0, 1, 3}
	goldenLatencies = []string{
		"const:2", "uniform:1,5", "exp:3", "lognorm:0.5,0.8",
		"const:2+zone:3,2", "uniform:1,5+zone:3,2", "exp:3+zone:3,2", "lognorm:0.5,0.8+zone:3,2",
	}
	goldenChurns = []string{"", "flap:20,5", "zoneout:2,2,10", "script:down@3=0-2;up@9=1-1"}
)

const (
	goldenP           = 0.3
	goldenSeed        = 17
	goldenTrials      = 10
	goldenOrderTrials = 2
)

// goldenRow renders one scenario's Result (floats as IEEE-754 bit
// patterns, so equality is bit-for-bit) and the issue orders of its
// first trials.
func goldenRow(key string, r Result, orders [][]int) string {
	var b strings.Builder
	b.WriteString(key)
	bits := func(v float64) { fmt.Fprintf(&b, " %016x", math.Float64bits(v)) }
	fmt.Fprintf(&b, " | %d", r.Trials)
	bits(r.TTQ.MeanMS)
	bits(r.TTQ.P50MS)
	bits(r.TTQ.P99MS)
	bits(r.TTQ.MaxMS)
	bits(r.InFlightMean)
	fmt.Fprintf(&b, " %d", r.InFlightMax)
	bits(r.IssuedMean)
	bits(r.StaticMean)
	bits(r.Reach)
	fmt.Fprintf(&b, " %d", r.Events)
	for _, o := range orders {
		b.WriteString(" |")
		for _, e := range o {
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(e))
		}
	}
	return b.String()
}

// goldenRows runs the whole matrix and returns one row per scenario.
func goldenRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	for _, sys := range smallSystems(t) {
		for _, randomized := range []bool{false, true} {
			for _, w := range goldenWindows {
				for _, h := range goldenHedges {
					for _, lat := range goldenLatencies {
						for _, ch := range goldenChurns {
							sc := mustCompile(t, Options{Latency: lat, Churn: ch, Window: w, HedgeMS: h, DeadlineMS: 12, Randomized: randomized})
							key := sys.Name() + " " + sc.Key()
							res, err := RunCtx(context.Background(), Params{Sys: sys, Scenario: sc, P: goldenP, Trials: goldenTrials, Seed: goldenSeed, Workers: 1})
							if err != nil {
								t.Fatalf("%s: %v", key, err)
							}
							orders := make([][]int, goldenOrderTrials)
							for trial := range orders {
								if orders[trial], err = IssueOrder(sys, sc, goldenP, goldenSeed, trial); err != nil {
									t.Fatalf("%s trial %d: %v", key, trial, err)
								}
							}
							rows = append(rows, goldenRow(key, res, orders))
						}
					}
				}
			}
		}
	}
	return rows
}

// TestTimedGolden pins every timed answer of the scenario matrix bit
// for bit against the checked-in table. Regenerate with
//
//	go test ./internal/des -run TestTimedGolden -update
//
// only for a deliberate change of the engine's answers.
func TestTimedGolden(t *testing.T) {
	got := goldenRows(t)
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("golden table has %d rows, the matrix %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("row %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden rows differ", bad, len(got))
	}
}

func writeGolden(t *testing.T, rows []string) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintln(zw, r)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		rows = append(rows, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
