// Package load tests the single-role load measure of Naor & Wool [12]
// and Holzman, Marcus & Peleg [6] — the companion quality measure the
// paper cites alongside availability and probe complexity (§1.2). The
// implementation is internal/rw: under the unit-capacity all-reads
// workload a read/write strategy's load is exactly the classic
// single-role load, bounded below by max(1/c, c/n), and rw.Optimize's
// exact capacity LP finds the optimal one.
package load

import (
	"math"
	"testing"

	"probequorum/internal/quorum"
	"probequorum/internal/rw"
	"probequorum/internal/systems"
)

// readOnly is the unit-capacity all-reads workload.
var readOnly = rw.Workload{ReadFraction: 1}

func uniform(t *testing.T, sys quorum.System) *rw.Strategy {
	t.Helper()
	s, err := rw.Uniform(sys, rw.Options{Workload: readOnly})
	if err != nil {
		t.Fatalf("Uniform(%s): %v", sys.Name(), err)
	}
	return s
}

func loadOf(t *testing.T, s *rw.Strategy) float64 {
	t.Helper()
	l, err := s.Load(readOnly)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return l
}

func optimal(t *testing.T, sys quorum.System) *rw.Strategy {
	t.Helper()
	s, err := rw.Optimize(sys, rw.Options{Workload: readOnly})
	if err != nil {
		t.Fatalf("Optimize(%s): %v", sys.Name(), err)
	}
	return s
}

func TestUniformLoadMajority(t *testing.T) {
	// By symmetry the uniform strategy is optimal for Maj, with load
	// c/n = (n+1)/(2n) — it meets the Naor–Wool bound.
	m, _ := systems.NewMaj(5)
	s := uniform(t, m)
	want := 3.0 / 5.0
	if got := loadOf(t, s); math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform Maj(5) load = %v, want %v", got, want)
	}
	if lb := rw.LowerBound(m); math.Abs(lb-want) > 1e-12 {
		t.Errorf("lower bound = %v, want %v", lb, want)
	}
	// All element loads equal.
	loads, err := s.NodeLoads(readOnly)
	if err != nil {
		t.Fatal(err)
	}
	for e, l := range loads {
		if math.Abs(l-want) > 1e-12 {
			t.Errorf("element %d load = %v, want %v", e, l, want)
		}
	}
}

func TestStrategyAccessors(t *testing.T) {
	m, _ := systems.NewMaj(3)
	s := uniform(t, m)
	if len(s.ReadQuorums()) != 3 || len(s.ReadProbs()) != 3 {
		t.Errorf("support sizes: %d quorums, %d probs", len(s.ReadQuorums()), len(s.ReadProbs()))
	}
	total := 0.0
	for _, p := range s.ReadProbs() {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", total)
	}
}

func TestBalanceRespectsLowerBound(t *testing.T) {
	maj, _ := systems.NewMaj(7)
	wheel, _ := systems.NewWheel(6)
	tri, _ := systems.NewTriang(3)
	tree, _ := systems.NewTree(2)
	hqs, _ := systems.NewHQS(2)
	for _, sys := range []quorum.System{maj, wheel, tri, tree, hqs} {
		t.Run(sys.Name(), func(t *testing.T) {
			// The optimum lies between the Naor–Wool bound and the
			// uniform strategy's load.
			opt := loadOf(t, optimal(t, sys))
			if lower := rw.LowerBound(sys); opt < lower-1e-9 {
				t.Errorf("optimal load %v below the Naor–Wool bound %v", opt, lower)
			}
			if uniform := loadOf(t, uniform(t, sys)); opt > uniform+1e-9 {
				t.Errorf("optimal load %v worse than uniform %v", opt, uniform)
			}
		})
	}
}

// The wheel is the showcase: uniform loads the hub with (n-1)/n, while
// the optimal strategy shifts mass to the rim quorum.
func TestBalanceImprovesWheel(t *testing.T) {
	w, _ := systems.NewWheel(8)
	uniform := loadOf(t, uniform(t, w))
	if l := loadOf(t, optimal(t, w)); l >= uniform-0.1 {
		t.Errorf("optimal %v did not improve on uniform %v", l, uniform)
	}
}
