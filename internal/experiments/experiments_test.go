package experiments

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var updateReports = flag.Bool("update", false, "rewrite testdata/reports.golden from the current drivers")

const reportsGoldenPath = "testdata/reports.golden"

// allReports runs every registered driver once per test binary: the
// drivers take the better part of a minute under -race, and both the
// reproduction check and the golden comparison read the same reports.
var allReports = sync.OnceValue(RunAll)

// TestAllExperimentsReproduce runs every registered driver and fails on
// any DEVIATES verdict or error line — the repository-level statement that
// the paper's tables and figures reproduce.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow; skipped in -short mode")
	}
	seen := map[string]bool{}
	for _, rep := range allReports() {
		if rep.ID == "" || rep.Title == "" {
			t.Errorf("report missing metadata: %+v", rep)
		}
		if seen[rep.ID] {
			t.Errorf("duplicate experiment ID %s", rep.ID)
		}
		seen[rep.ID] = true
		if len(rep.Lines) == 0 {
			t.Errorf("%s: empty report", rep.ID)
		}
		for _, line := range rep.Lines {
			if strings.Contains(line, "DEVIATES") {
				t.Errorf("%s: %s", rep.ID, line)
			}
			if strings.Contains(line, "error:") {
				t.Errorf("%s: %s", rep.ID, line)
			}
		}
	}
	// Every experiment from the DESIGN.md index must be present.
	for _, id := range []string{
		"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
		"L2.2", "L2.4", "L2.8", "L2.9", "L3.1",
		"P3.2", "C3.4", "P3.6", "T3.8", "T4.2", "T4.4", "T4.6", "T4.7",
		"X1", "X2", "X3", "X4", "X5", "X6", "X7",
	} {
		if !seen[id] {
			t.Errorf("experiment %s missing from the registry", id)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "X", Title: "demo", Lines: []string{"a", "b"}}
	s := r.String()
	for _, want := range []string{"== X: demo ==", "a\n", "b\n"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestVerdict(t *testing.T) {
	if got := verdict(1.0, 1.0, 0); got != "ok" {
		t.Errorf("exact match: %q", got)
	}
	if got := verdict(1.04, 1.0, 0.05); got != "ok" {
		t.Errorf("within tolerance: %q", got)
	}
	if got := verdict(1.2, 1.0, 0.05); !strings.Contains(got, "DEVIATES") {
		t.Errorf("outside tolerance: %q", got)
	}
	if got := verdict(0, 0, 0); got != "ok" {
		t.Errorf("zero-zero: %q", got)
	}
	if got := verdict(0.1, 0, 0); !strings.Contains(got, "DEVIATES") {
		t.Errorf("zero expected: %q", got)
	}
}

// wallClock matches the X9 streaming report's timings, the only report
// fields that depend on the machine rather than on the drivers.
var wallClock = regexp.MustCompile(`(first cell after|full sweep) [0-9.]+ms`)

// TestExperimentReportsGolden compares every driver's rendered report
// with testdata/reports.golden, wall-clock timings masked: a refactor
// that must not move an answer leaves every row as it was. Regenerate
// with -update only for a deliberate change of a report.
func TestExperimentReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow; skipped in -short mode")
	}
	var b strings.Builder
	for _, rep := range allReports() {
		b.WriteString(rep.String())
	}
	got := wallClock.ReplaceAllString(b.String(), "$1 <ms>")
	if *updateReports {
		if err := os.WriteFile(reportsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("reports differ from %s at line %d:\n got: %q\nwant: %q", reportsGoldenPath, i+1, g, w)
		}
	}
}

// docAndGoldenBlock returns the EXPERIMENTS.md section under heading (up
// to the next "## " heading) and the block of experiment id in
// reports.golden (from its "== id:" title to the next report).
func docAndGoldenBlock(t *testing.T, heading, id string) (section, block string) {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(reportsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(golden), "== "+id+":")
	block, _, _ = strings.Cut(block, "\n== ")
	_, section, found := strings.Cut(string(doc), heading)
	if !ok || !found {
		t.Fatalf("%s block or %q section missing", id, heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section, block
}

// numberToken matches the numbers a document quotes from a report.
var numberToken = regexp.MustCompile(`\d+(\.\d+)?`)

// goldenNumbers returns the set of number tokens in s.
func goldenNumbers(s string) map[string]bool {
	known := map[string]bool{}
	for _, tok := range numberToken.FindAllString(s, -1) {
		known[tok] = true
	}
	return known
}

// TestX8TableMatchesGolden keeps EXPERIMENTS.md's X8 table copied from the
// golden report: every number in its rows occurs in the X8 block of
// reports.golden, and each "estimate → exact" pair is one golden row's
// estimate and exact columns.
func TestX8TableMatchesGolden(t *testing.T) {
	section, block := docAndGoldenBlock(t, "## Large-n sweep (X8)", "X8")
	known := goldenNumbers(block)
	pair := regexp.MustCompile(`(\d+\.\d+) → (\d+\.\d+)`)
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| construction") {
			continue
		}
		rows++
		for _, tok := range numberToken.FindAllString(line, -1) {
			if !known[tok] {
				t.Errorf("X8 table number %s is not in the golden's X8 block: %s", tok, line)
			}
		}
		for _, m := range pair.FindAllStringSubmatch(line, -1) {
			golden := regexp.MustCompile(`estimate=\s+` + regexp.QuoteMeta(m[1]) + `\s+exact=\s+` + regexp.QuoteMeta(m[2]) + `\s`)
			if !golden.MatchString(block) {
				t.Errorf("X8 table pair %s is no golden row's estimate and exact", m[0])
			}
		}
	}
	if rows == 0 {
		t.Fatal("no X8 table rows found")
	}
}

// TestX9ParagraphMatchesGolden keeps EXPERIMENTS.md's X9 paragraph copied
// from the golden report: every number in its prose (before the CLI
// example) occurs in the X9 block of reports.golden. The block masks the
// wall-clock fields, so the paragraph can quote only seeded counts.
func TestX9ParagraphMatchesGolden(t *testing.T) {
	section, block := docAndGoldenBlock(t, "## Streaming sweep (X9)", "X9")
	prose, _, _ := strings.Cut(section, "```")
	known := goldenNumbers(block)
	toks := numberToken.FindAllString(prose, -1)
	for _, tok := range toks {
		if !known[tok] {
			t.Errorf("X9 paragraph number %s is not in the golden's X9 block", tok)
		}
	}
	if len(toks) < 20 {
		t.Fatalf("X9 paragraph quotes %d numbers; its trial counts are missing", len(toks))
	}
}
