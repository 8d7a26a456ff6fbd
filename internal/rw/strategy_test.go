package rw

import (
	"context"
	"math"
	"testing"

	"probequorum/internal/systems"
)

func close(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

func closeRel(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// alternating is the quoracle tutorial capacity vector: nodes a..f get
// 1000, 500, 1000, 500, 1000, 500.
func alternating(hi, lo float64) []float64 {
	return []float64{hi, lo, hi, lo, hi, lo}
}

// TestOptimizeGridTutorial pins the quoracle tutorial numbers on the
// 2x3 grid with unit capacities: the fr=0.75-optimal strategy has load
// 11/24 = 0.4583, and evaluating THAT strategy at other read fractions
// gives 1/3, 5/12 and 1/2; re-optimizing at fr=0.25 gives 0.375.
func TestOptimizeGridTutorial(t *testing.T) {
	g := mustGrid(t, 2, 3)
	s, err := Optimize(g, Options{Workload: Workload{ReadFraction: 0.75}})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for _, tc := range []struct {
		fr   float64
		want float64
	}{
		{0.75, 11.0 / 24}, // 0.458: the fraction it was built for
		{0, 1.0 / 3},      // 0.333
		{0.5, 5.0 / 12},   // 0.416
		{1, 0.5},
	} {
		got, err := s.Load(Workload{ReadFraction: tc.fr})
		if err != nil {
			t.Fatalf("Load(fr=%v): %v", tc.fr, err)
		}
		if !close(got, tc.want, 1e-9) {
			t.Errorf("load of the fr=0.75 strategy at fr=%v = %v, want %v", tc.fr, got, tc.want)
		}
	}
	s25, err := Optimize(g, Options{Workload: Workload{ReadFraction: 0.25}})
	if err != nil {
		t.Fatalf("Optimize(fr=0.25): %v", err)
	}
	got, err := s25.Load(Workload{ReadFraction: 0.25})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !close(got, 0.375, 1e-9) {
		t.Errorf("optimal load at fr=0.25 = %v, want 0.375", got)
	}
	cap75, err := s.Capacity(Workload{ReadFraction: 0.75})
	if err != nil {
		t.Fatalf("Capacity: %v", err)
	}
	if !close(cap75, 24.0/11, 1e-9) {
		t.Errorf("capacity at fr=0.75 = %v, want 24/11", cap75)
	}
}

// TestOptimizeTutorialCapacities pins the heterogeneous-capacity
// tutorial run: with node capacities 1000/500 alternating (same for
// both roles), the optimal fr=0.75 strategy has load 0.00075 and the
// system sustains 1333 operations per unit time.
func TestOptimizeTutorialCapacities(t *testing.T) {
	g := mustGrid(t, 2, 3)
	caps := alternating(1000, 500)
	w := Workload{ReadFraction: 0.75, ReadCapacity: caps, WriteCapacity: caps}
	s, err := Optimize(g, Options{Workload: w})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	load, err := s.Load(w)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !close(load, 0.00075, 1e-9) {
		t.Errorf("load = %v, want 0.00075", load)
	}
	capacity, err := s.Capacity(w)
	if err != nil {
		t.Fatalf("Capacity: %v", err)
	}
	if !closeRel(capacity, 4000.0/3, 1e-9) {
		t.Errorf("capacity = %v, want 1333.33", capacity)
	}
}

// TestOptimizeSplitCapacities pins the tutorial's split read/write
// capacities (reads are 10x cheaper): capacity 10000 at fr=1, 3913 at
// fr=0.5, 2000 at fr=0.
func TestOptimizeSplitCapacities(t *testing.T) {
	g := mustGrid(t, 2, 3)
	rc := alternating(10000, 5000)
	wc := alternating(1000, 500)
	for _, tc := range []struct {
		fr   float64
		want float64
	}{
		{1, 10000},
		{0.5, 3913.04},
		{0, 2000},
	} {
		w := Workload{ReadFraction: tc.fr, ReadCapacity: rc, WriteCapacity: wc}
		s, err := Optimize(g, Options{Workload: w})
		if err != nil {
			t.Fatalf("Optimize(fr=%v): %v", tc.fr, err)
		}
		capacity, err := s.Capacity(w)
		if err != nil {
			t.Fatalf("Capacity: %v", err)
		}
		if !closeRel(capacity, tc.want, 1e-4) {
			t.Errorf("capacity at fr=%v = %v, want %v", tc.fr, capacity, tc.want)
		}
	}
}

// TestMajMeetsNaorWool checks the optimizer against the Naor-Wool
// bound: majority systems achieve load max(1/c, c/n) = c/n exactly, so
// the LP must land within 1e-6 of it at every odd n it can enumerate.
func TestMajMeetsNaorWool(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9, 11} {
		sys := mustMaj(t, n)
		want := LowerBound(sys)
		c := float64((n + 1) / 2)
		if !close(want, c/float64(n), 0) {
			t.Fatalf("maj:%d lower bound = %v, want c/n = %v", n, want, c/float64(n))
		}
		s, err := Optimize(sys, Options{Workload: Workload{ReadFraction: 0.5}})
		if err != nil {
			t.Fatalf("Optimize(maj:%d): %v", n, err)
		}
		got, err := s.Load(Workload{ReadFraction: 0.5})
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("maj:%d optimal load = %v, want Naor-Wool bound %v within 1e-6", n, got, want)
		}
	}
}

// TestOptimizeResilient pins the f=1 strategy on the tutorial grid: the
// only 1-resilient read quorum is the whole universe (read load 1 on
// every node) and the optimal write side spreads the C(3,2)^2 four-node
// quorums to coverage 2/3, so the fr=0.5 load is 1/2 + 1/2 * 2/3 = 5/6.
func TestOptimizeResilient(t *testing.T) {
	g := mustGrid(t, 2, 3)
	w := Workload{ReadFraction: 0.5}
	s, err := Optimize(g, Options{Workload: w, F: 1})
	if err != nil {
		t.Fatalf("Optimize(F=1): %v", err)
	}
	for _, q := range s.ReadQuorums() {
		if q.Count() != 6 {
			t.Fatalf("1-resilient read support contains %v; only the full universe survives a crash", q)
		}
	}
	load, err := s.Load(w)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !close(load, 5.0/6, 1e-9) {
		t.Errorf("1-resilient load at fr=0.5 = %v, want 5/6", load)
	}
	// ROWA has no 1-resilient write quorum at all: every write needs all
	// nodes, so losing one is fatal. The optimizer must say so.
	if _, err := Optimize(mustROWA(t, 5), Options{Workload: w, F: 1}); err == nil {
		t.Error("Optimize(rowa:5, F=1) succeeded; want an error, writes cannot survive a crash")
	}
}

// TestOptimizeBeatsUniform is the core optimizer guarantee on a
// deliberately lopsided instance: uniform strategies waste capacity on
// asymmetric systems, the LP must never do worse.
func TestOptimizeBeatsUniform(t *testing.T) {
	systems := []struct {
		name string
		sys  ReadWrite
	}{
		{"grid 2x3", mustGrid(t, 2, 3)},
		{"grid 3x4", mustGrid(t, 3, 4)},
		{"rowa 6", mustROWA(t, 6)},
		{"choose 3/5", As(FromSingle(mustChoose(t, 3, 5)))},
	}
	for _, tc := range systems {
		for _, fr := range []float64{0, 0.25, 0.5, 0.75, 1} {
			w := Workload{ReadFraction: fr}
			opt, err := Optimize(tc.sys, Options{Workload: w})
			if err != nil {
				t.Fatalf("%s: Optimize: %v", tc.name, err)
			}
			uni, err := Uniform(tc.sys, Options{Workload: w})
			if err != nil {
				t.Fatalf("%s: Uniform: %v", tc.name, err)
			}
			ol, err1 := opt.Load(w)
			ul, err2 := uni.Load(w)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: loads: %v, %v", tc.name, err1, err2)
			}
			if ol > ul+1e-12 {
				t.Errorf("%s at fr=%v: optimized load %v > uniform load %v", tc.name, fr, ol, ul)
			}
		}
	}
}

// TestOptionsKey pins the canonical cache key format that evaluator
// sessions memoize strategies under.
func TestOptionsKey(t *testing.T) {
	if got := (Options{Workload: Workload{ReadFraction: 0.75}}).Key(); got != "fr=0.75;f=0;rc=unit;wc=unit" {
		t.Errorf("unit key = %q", got)
	}
	o := Options{Workload: Workload{ReadFraction: 0.5, ReadCapacity: []float64{1000, 500}, WriteCapacity: []float64{1, 2}}, F: 1}
	if got := o.Key(); got != "fr=0.5;f=1;rc=1000,500;wc=1,2" {
		t.Errorf("full key = %q", got)
	}
	// Distinct workloads must never collide.
	a := Options{Workload: Workload{ReadFraction: 0.5, ReadCapacity: []float64{1, 2}}}
	b := Options{Workload: Workload{ReadFraction: 0.5, WriteCapacity: []float64{1, 2}}}
	if a.Key() == b.Key() {
		t.Errorf("read-cap and write-cap options share key %q", a.Key())
	}
}

// TestWorkloadValidate pins the rejection of malformed workloads.
func TestWorkloadValidate(t *testing.T) {
	bad := []Workload{
		{ReadFraction: -0.1},
		{ReadFraction: 1.1},
		{ReadFraction: math.NaN()},
		{ReadFraction: 0.5, ReadCapacity: []float64{1, 2}},             // wrong length for n=6
		{ReadFraction: 0.5, WriteCapacity: alternating(1000, 0)},       // zero capacity
		{ReadFraction: 0.5, ReadCapacity: alternating(1000, -5)},       // negative
		{ReadFraction: 0.5, ReadCapacity: alternating(1, math.Inf(1))}, // infinite
	}
	for i, w := range bad {
		if err := w.Validate(6); err == nil {
			t.Errorf("case %d: workload %+v validated", i, w)
		}
	}
	if err := (Workload{ReadFraction: 0.5, ReadCapacity: alternating(2, 1)}).Validate(6); err != nil {
		t.Errorf("good workload rejected: %v", err)
	}
}

func mustMaj(t *testing.T, n int) ReadWrite {
	t.Helper()
	sys, err := systems.NewMaj(n)
	if err != nil {
		t.Fatalf("maj:%d: %v", n, err)
	}
	return As(sys)
}

// TestSimplex pins the LP solver on a hand-checkable instance:
// maximize x+y subject to x <= 2, y <= 3, x+y <= 4.
func TestSimplex(t *testing.T) {
	x, v, err := simplexMax(context.Background(),
		[]float64{1, 1},
		[][]float64{{1, 0}, {0, 1}, {1, 1}},
		[]float64{2, 3, 4})
	if err != nil {
		t.Fatalf("simplexMax: %v", err)
	}
	if !close(v, 4, 1e-9) {
		t.Errorf("optimum = %v, want 4", v)
	}
	if !close(x[0]+x[1], 4, 1e-9) || x[0] > 2+1e-9 || x[1] > 3+1e-9 {
		t.Errorf("solution %v infeasible or suboptimal", x)
	}
}
