package main

import (
	"context"
	"strings"
	"testing"

	"probequorum"
)

func TestBuildSystems(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{spec: "maj:7", want: "Maj(7)"},
		{spec: "wheel:5", want: "Wheel(5)"},
		{spec: "triang:3", want: "Triang(3)"},
		{spec: "cw:1,2,3", want: "CW(1,2,3)"},
		{spec: "cw: 1 , 4 ", want: "CW(1,4)"},
		{spec: "tree:2", want: "Tree(h=2,n=7)"},
		{spec: "hqs:1", want: "HQS(h=1,n=3)"},
		{spec: "vote:3,1,1,2", want: "Vote(n=4,W=7)"},
		{spec: "recmaj:3x2", want: "RecMaj(m=3,h=2,n=9)"},
	}
	for _, c := range cases {
		sys, err := build(c.spec)
		if err != nil {
			t.Errorf("build(%s): %v", c.spec, err)
			continue
		}
		if sys.Name() != c.want {
			t.Errorf("build(%s) = %s, want %s", c.spec, sys.Name(), c.want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name   string
		spec   string
		errSub string
	}{
		{name: "missing system", spec: "", errSub: "missing -system"},
		{name: "no colon", spec: "maj", errSub: "no ':'"},
		{name: "unknown system", spec: "zigzag:3", errSub: "unknown construction"},
		{name: "cw bad widths", spec: "cw:1,x", errSub: "comma-separated integers"},
		{name: "vote empty weights", spec: "vote:", errSub: "empty"},
		{name: "maj even", spec: "maj:4", errSub: "odd"},
		{name: "explicit passthrough", spec: "explicit:anything", errSub: "NewExplicit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := build(c.spec)
			if err == nil || !strings.Contains(err.Error(), c.errSub) {
				t.Errorf("err = %v, want containing %q", err, c.errSub)
			}
		})
	}
}

func TestBuildQuery(t *testing.T) {
	q, err := buildQuery("maj:7", "0.1, 0.3,0.5", "pc,ppc", 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if q.Spec != "maj:7" || len(q.Ps) != 3 || q.Ps[1] != 0.3 || q.Trials != 500 || q.Seed != 9 {
		t.Errorf("query = %+v", q)
	}
	if len(q.Measures) != 2 || q.Measures[0] != probequorum.MeasurePC || q.Measures[1] != probequorum.MeasurePPC {
		t.Errorf("measures = %v", q.Measures)
	}
	for _, tc := range []struct {
		name, system, p, measures string
	}{
		{"missing system", "", "0.5", "pc"},
		{"bad measure", "maj:7", "0.5", "pc,zoom"},
		{"bad p", "maj:7", "0.5,oops", "pc"},
		{"p out of range", "maj:7", "1.5", "pc"},
		{"empty grid", "maj:7", " , ", "pc"},
	} {
		if _, err := buildQuery(tc.system, tc.p, tc.measures, 0, 0); err == nil {
			t.Errorf("%s: buildQuery accepted invalid input", tc.name)
		}
	}
}

func TestEvalQueryMatchesFacade(t *testing.T) {
	q, err := buildQuery("triang:3", "0.25,0.5", "pc,ppc,availability,expected", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := probequorum.NewEvaluator().Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	sys := probequorum.MustParse("triang:3")
	pc, _ := probequorum.ProbeComplexity(sys)
	if res.PC == nil || *res.PC != pc {
		t.Errorf("PC = %v, want %d", res.PC, pc)
	}
	for _, p := range []float64{0.25, 0.5} {
		pt := res.Point(p)
		if pt == nil {
			t.Fatalf("no point at p=%v", p)
		}
		ppc, _ := probequorum.AverageProbeComplexity(sys, p)
		exp, _ := probequorum.ExpectedProbes(sys, p)
		if *pt.PPC != ppc || *pt.Availability != probequorum.Availability(sys, p) || *pt.Expected != exp {
			t.Errorf("p=%v: point %+v deviates from façade", p, pt)
		}
	}
}

// TestEvalPrintsResilience pins the human table of the resilience
// measure: it carries the value the -json encoding does.
func TestEvalPrintsResilience(t *testing.T) {
	out := captureStdout(t, func() {
		if code := runEval([]string{"-system", "maj:9", "-measures", "resilience"}); code != 0 {
			t.Errorf("eval exited %d", code)
		}
	})
	if !strings.Contains(out, "resilience: 4 ") {
		t.Errorf("eval -measures resilience printed no resilience line:\n%s", out)
	}
}

// TestEnumerateRefusesInfeasibleSystems drives -enumerate on systems
// whose minimal quorums cannot be listed: the inspect report must exit
// 1 with an error instead of panicking, and a listable system must still
// print its quorums.
func TestEnumerateRefusesInfeasibleSystems(t *testing.T) {
	for _, sp := range []string{"hqs:4", "maj:31"} {
		var code int
		out := captureStdout(t, func() { code = run([]string{"-system", sp, "-enumerate"}) })
		if code != 1 || strings.Contains(out, "minimal quorums:") {
			t.Errorf("%s -enumerate exited %d, want 1 with no quorum listing", sp, code)
		}
	}
	var code int
	out := captureStdout(t, func() { code = run([]string{"-system", "maj:3", "-enumerate"}) })
	if code != 0 || !strings.Contains(out, "minimal quorums:\n  {1, 2}\n") {
		t.Errorf("maj:3 -enumerate exited %d:\n%s", code, out)
	}
}

// TestReportSurvivesUnreachableAvailability pins that the inspect report
// of a wide system with neither a closed form nor a witness table prints
// the bound error on its availability line, finishes and exits 0.
func TestReportSurvivesUnreachableAvailability(t *testing.T) {
	for _, sp := range []string{"grid:6x6", "rowa:27", "rw:maj:27"} {
		var code int
		out := captureStdout(t, func() { code = run([]string{"-system", sp}) })
		if code != 0 {
			t.Errorf("%s: exited %d, want 0", sp, code)
		}
		if !strings.Contains(out, "\navailability:  exact availability of ") || !strings.Contains(out, "still available at n = ") {
			t.Errorf("%s: no bound error on the availability line:\n%s", sp, out)
		}
	}
	var code int
	out := captureStdout(t, func() { code = run([]string{"-system", "grid:3x3", "-p", "0.3"}) })
	if code != 0 || !strings.Contains(out, "\navailability:  F_p = ") {
		t.Errorf("grid:3x3 exited %d:\n%s", code, out)
	}
}
