package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"probequorum"
)

// runCaptured runs runRandomized with stdout redirected and returns its
// exit code and output.
func runCaptured(t *testing.T, spec string, p float64, trials int, seed uint64) (int, string) {
	t.Helper()
	sys, err := probequorum.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return capture(t, func() int { return runRandomized(sys, p, trials, seed) })
}

// capture runs f with stdout redirected and returns its exit code and
// output.
func capture(t *testing.T, f func() int) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	code := f()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return code, out
}

// TestRandomizedSurvivesUnreachableAvailability pins that the randomized
// report of a wide system with neither a closed form nor a witness table
// prints its averages and the bound error on an availability line, then
// exits 0.
func TestRandomizedSurvivesUnreachableAvailability(t *testing.T) {
	code, out := runCaptured(t, "rw:maj:27", 0.3, 10, 1)
	if code != 0 {
		t.Errorf("rw:maj:27 exited %d, want 0", code)
	}
	for _, want := range []string{"avg probes:        ", "\nlive-quorum rate:  ", "\navailability:      exact availability of RW(Maj(27)) needs a witness table: ", "still available at n = 27: estimate"} {
		if !strings.Contains(out, want) {
			t.Errorf("rw:maj:27 output lacks %q:\n%s", want, out)
		}
	}
	code, out = runCaptured(t, "maj:9", 0.3, 10, 1)
	if code != 0 || !strings.Contains(out, "analytically)\n") {
		t.Errorf("maj:9 exited %d:\n%s", code, out)
	}
}

// TestDeterministicSurvivesUnreachableAvailability pins the same for the
// deterministic report, one-shot and streamed: the estimate is printed,
// the bound error goes on the availability line, and the exit is 0.
func TestDeterministicSurvivesUnreachableAvailability(t *testing.T) {
	for _, extra := range [][]string{nil, {"-stream"}} {
		args := append([]string{"-system", "rw:maj:27", "-trials", "10"}, extra...)
		code, out := capture(t, func() int { return run(args) })
		if code != 0 {
			t.Errorf("%v exited %d, want 0:\n%s", args, code, out)
		}
		for _, want := range []string{"\navg probes:        ", "\navailability:      exact availability of RW(Maj(27)) needs a witness table: ", "still available at n = 27: estimate"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v output lacks %q:\n%s", args, want, out)
			}
		}
	}
}
