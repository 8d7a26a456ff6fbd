// Package load tests the single-role load measure of Naor & Wool [12]
// and Holzman, Marcus & Peleg [6] — the companion quality measure the
// paper cites alongside availability and probe complexity (§1.2). The
// implementation is internal/rw: under the unit-capacity all-reads
// workload a read/write strategy's load is exactly the classic
// single-role load, bounded below by max(1/c, c/n).
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

func balance(sys quorum.System, rounds int) (*rw.Strategy, float64, error) {
	return rw.BalanceLoad(sys, rounds, rw.DefaultBalanceGap)
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
			bal, gap, err := balance(sys, 800)
			if err != nil {
				t.Fatal(err)
			}
			if gap < 0 {
				t.Errorf("negative certified gap %v", gap)
			}
			balanced := loadOf(t, bal)
			// The gap is the balancer's own honesty check: its load can
			// exceed the optimum (hence the lower bound) by at most gap.
			if balanced > rw.LowerBound(sys)+gap+0.25 {
				t.Errorf("balanced load %v not within certified gap %v of plausible optimum", balanced, gap)
			}
			uniform := loadOf(t, uniform(t, sys))
			lower := rw.LowerBound(sys)
			if balanced < lower-1e-9 {
				t.Errorf("balanced load %v below the Naor–Wool bound %v", balanced, lower)
			}
			// The balancer should not be much worse than uniform, and for
			// asymmetric systems it should improve on it.
			if balanced > uniform+0.05 {
				t.Errorf("balanced load %v worse than uniform %v", balanced, uniform)
			}
		})
	}
}

// The wheel is the showcase: uniform loads the hub with (n-1)/n, while a
// balanced strategy shifts mass to the rim quorum.
func TestBalanceImprovesWheel(t *testing.T) {
	w, _ := systems.NewWheel(8)
	uniform := loadOf(t, uniform(t, w))
	bal, _, err := balance(w, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if l := loadOf(t, bal); l >= uniform-0.1 {
		t.Errorf("balanced %v did not improve on uniform %v", l, uniform)
	}
}

func TestBalanceErrors(t *testing.T) {
	m, _ := systems.NewMaj(3)
	if _, _, err := balance(m, 0); err == nil {
		t.Error("Balance accepted zero rounds")
	}
}
