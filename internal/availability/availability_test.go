package availability_test

import (
	"math"
	"testing"

	"probequorum/internal/availability"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

func TestMajClosedForm(t *testing.T) {
	// Maj over 1 element: F_p = p.
	for _, p := range []float64{0, 0.2, 0.5, 1} {
		if got := availability.Maj(1, p); math.Abs(got-p) > 1e-12 {
			t.Errorf("availability.Maj(1, %v) = %v, want %v", p, got, p)
		}
	}
	// Maj3 at p = 1/2: F = P(at most 1 green of 3) = (1 + 3)/8 = 0.5.
	if got := availability.Maj(3, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("availability.Maj(3, 0.5) = %v, want 0.5", got)
	}
}

func TestClosedFormsMatchBruteForce(t *testing.T) {
	maj, _ := systems.NewMaj(7)
	wheel, _ := systems.NewWheel(6)
	cw, _ := systems.NewCW([]int{1, 3, 2, 4})
	tree, _ := systems.NewTree(2)
	hqs, _ := systems.NewHQS(2)
	cases := []struct {
		sys    quorum.System
		closed func(p float64) float64
	}{
		{maj, func(p float64) float64 { return availability.Maj(7, p) }},
		{wheel, func(p float64) float64 { return availability.Wheel(6, p) }},
		{cw, func(p float64) float64 { return availability.CW([]int{1, 3, 2, 4}, p) }},
		{tree, func(p float64) float64 { return availability.Tree(2, p) }},
		{hqs, func(p float64) float64 { return availability.HQS(2, p) }},
	}
	for _, c := range cases {
		t.Run(c.sys.Name(), func(t *testing.T) {
			for _, p := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
				got := c.closed(p)
				want := availability.BruteForce(c.sys, p)
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("p=%v: closed form %.9f != brute force %.9f", p, got, want)
				}
			}
		})
	}
}

// Fact 2.3(2): F_p(S) + F_{1-p}(S) = 1 for ND coteries.
func TestSelfDualComplement(t *testing.T) {
	closed := []func(p float64) float64{
		func(p float64) float64 { return availability.Maj(9, p) },
		func(p float64) float64 { return availability.Wheel(8, p) },
		func(p float64) float64 { return availability.CW([]int{1, 2, 3, 4}, p) },
		func(p float64) float64 { return availability.Tree(3, p) },
		func(p float64) float64 { return availability.HQS(3, p) },
	}
	for i, f := range closed {
		for _, p := range []float64{0.1, 0.25, 0.5, 0.8} {
			if got := f(p) + f(1-p); math.Abs(got-1) > 1e-9 {
				t.Errorf("case %d p=%v: F_p + F_{1-p} = %v, want 1", i, p, got)
			}
		}
	}
}

// Fact 2.3(1): F_p <= p for p <= 1/2 on ND coteries.
func TestAvailabilityBoundedByP(t *testing.T) {
	for _, p := range []float64{0.05, 0.2, 0.35, 0.5} {
		checks := map[string]float64{
			"availability.Maj(21)":     availability.Maj(21, p),
			"availability.Wheel(10)":   availability.Wheel(10, p),
			"availability.CW(1,2,3,4)": availability.CW([]int{1, 2, 3, 4}, p),
			"availability.Tree(4)":     availability.Tree(4, p),
			"availability.HQS(4)":      availability.HQS(4, p),
		}
		for name, f := range checks {
			if f > p+1e-12 {
				t.Errorf("%s: F_%v = %v > p", name, p, f)
			}
		}
	}
}

// High-availability systems get better with size at small p (the Condorcet
// effect for majority).
func TestMajCondorcet(t *testing.T) {
	p := 0.2
	prev := 1.0
	for _, n := range []int{3, 9, 21, 51} {
		f := availability.Maj(n, p)
		if f >= prev {
			t.Errorf("availability.Maj(%d): F = %v did not decrease (prev %v)", n, f, prev)
		}
		prev = f
	}
	// At p > 1/2 the effect reverses toward certain failure.
	if f := availability.Maj(101, 0.6); f < 0.9 {
		t.Errorf("availability.Maj(101) at p=0.6: F = %v, want near 1", f)
	}
}

func TestVoteAvailability(t *testing.T) {
	// Unit weights reduce to Maj.
	for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
		if got, want := availability.Vote([]int{1, 1, 1, 1, 1}, p), availability.Maj(5, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v: Vote unit = %v, Maj = %v", p, got, want)
		}
	}
	// Weighted assignments match brute force.
	weightSets := [][]int{{3, 1, 1, 2}, {7, 2, 2, 1, 1}, {1, 2, 3, 4, 5}}
	for _, ws := range weightSets {
		v, err := systems.NewVote(ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.1, 0.4, 0.5, 0.9} {
			got := availability.Vote(ws, p)
			want := availability.BruteForce(v, p)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%v p=%v: DP %.9f != brute force %.9f", ws, p, got, want)
			}
			// Self-duality (odd total weight).
			if sum := availability.Vote(ws, p) + availability.Vote(ws, 1-p); math.Abs(sum-1) > 1e-9 {
				t.Errorf("%v p=%v: F_p + F_{1-p} = %v", ws, p, sum)
			}
		}
		// Of dispatch.
		if got, want := availability.Of(v, 0.3), availability.Vote(ws, 0.3); math.Abs(got-want) > 1e-12 {
			t.Errorf("Of dispatch = %v, want %v", got, want)
		}
	}
}

func TestOfDispatch(t *testing.T) {
	maj, _ := systems.NewMaj(5)
	wheel, _ := systems.NewWheel(5)
	cw, _ := systems.NewCW([]int{1, 2})
	tree, _ := systems.NewTree(1)
	hqs, _ := systems.NewHQS(1)
	for _, sys := range []quorum.System{maj, wheel, cw, tree, hqs} {
		got := availability.Of(sys, 0.3)
		want := availability.BruteForce(sys, 0.3)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: Of = %v, brute force %v", sys.Name(), got, want)
		}
	}
	// Fallback path for explicit systems: Maj3 has F_{1/2} = 1/2.
	exp, err := quorum.NewExplicit("maj3", 3, []*bitset.Set{
		bitset.FromSlice(3, []int{0, 1}),
		bitset.FromSlice(3, []int{1, 2}),
		bitset.FromSlice(3, []int{0, 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := availability.Of(exp, 0.5), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("explicit Of = %v, want %v", got, want)
	}
}

// hideMask strips the words method off a system, forcing the per-coloring
// fallback path of BruteForce.
type hideMask struct{ quorum.System }

// The one-word enumeration of BruteForce must reproduce the per-coloring
// fallback exactly — same patterns, same probability arithmetic, same
// summation order.
func TestBruteForceMaskMatchesColoringFallback(t *testing.T) {
	maj, _ := systems.NewMaj(9)
	wheel, _ := systems.NewWheel(7)
	cw, _ := systems.NewCW([]int{1, 2, 3, 2})
	tree, _ := systems.NewTree(2)
	vote, _ := systems.NewVote([]int{3, 2, 1, 1, 1, 1})
	for _, sys := range []quorum.System{maj, wheel, cw, tree, vote} {
		t.Run(sys.Name(), func(t *testing.T) {
			for _, p := range []float64{0, 0.15, 0.5, 0.85, 1} {
				mask := availability.BruteForce(sys, p)
				fallback := availability.BruteForce(hideMask{sys}, p)
				if mask != fallback {
					t.Errorf("p=%v: mask %v != fallback %v", p, mask, fallback)
				}
			}
		})
	}
}
