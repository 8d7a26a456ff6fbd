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
	code := runRandomized(sys, p, trials, seed)
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
	code, out := runCaptured(t, "rowa:30", 0.3, 10, 1)
	if code != 0 {
		t.Errorf("rowa:30 exited %d, want 0", code)
	}
	for _, want := range []string{"avg probes:        1.0000\n", "\nlive-quorum rate:  ", "\navailability:      exact availability of ROWA(30) needs a witness table: ", "still available at n = 30: estimate"} {
		if !strings.Contains(out, want) {
			t.Errorf("rowa:30 output lacks %q:\n%s", want, out)
		}
	}
	code, out = runCaptured(t, "maj:9", 0.3, 10, 1)
	if code != 0 || !strings.Contains(out, "analytically)\n") {
		t.Errorf("maj:9 exited %d:\n%s", code, out)
	}
}
