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
