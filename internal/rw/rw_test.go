package rw

import (
	"context"
	"math/rand/v2"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

func mustGrid(t *testing.T, r, c int) *Pair {
	t.Helper()
	g, err := Grid(r, c)
	if err != nil {
		t.Fatalf("Grid(%d,%d): %v", r, c, err)
	}
	return g
}

func mustROWA(t *testing.T, n int) *Pair {
	t.Helper()
	p, err := ReadOneWriteAll(n)
	if err != nil {
		t.Fatalf("ReadOneWriteAll(%d): %v", n, err)
	}
	return p
}

// TestGridRoles pins the tutorial grid's role structure: reads are the
// full rows, writes the one-per-row transversals.
func TestGridRoles(t *testing.T) {
	g := mustGrid(t, 2, 3)
	if g.Size() != 6 {
		t.Fatalf("Size() = %d, want 6", g.Size())
	}
	reads := g.ReadRole().Quorums()
	if len(reads) != 2 {
		t.Fatalf("read quorums: %d, want 2", len(reads))
	}
	writes := g.WriteRole().Quorums()
	if len(writes) != 9 {
		t.Fatalf("write quorums: %d, want 3^2 = 9", len(writes))
	}
	// {a,b,c} is a read quorum; {a,b,d} is not; {a,d} is a write
	// quorum; {a,b} is not (quoracle tutorial).
	abc := bitset.FromSlice(6, []int{0, 1, 2})
	abd := bitset.FromSlice(6, []int{0, 1, 3})
	ad := bitset.FromSlice(6, []int{0, 3})
	ab := bitset.FromSlice(6, []int{0, 1})
	if !g.ReadRole().ContainsQuorum(abc) || g.ReadRole().ContainsQuorum(abd) {
		t.Errorf("read membership wrong: abc=%v abd=%v", g.ReadRole().ContainsQuorum(abc), g.ReadRole().ContainsQuorum(abd))
	}
	if !g.WriteRole().ContainsQuorum(ad) || g.WriteRole().ContainsQuorum(ab) {
		t.Errorf("write membership wrong: ad=%v ab=%v", g.WriteRole().ContainsQuorum(ad), g.WriteRole().ContainsQuorum(ab))
	}
}

// TestResilienceClosedForms pins the quoracle tutorial resiliences and
// the closed forms of the built-in pairs.
func TestResilienceClosedForms(t *testing.T) {
	ctx := context.Background()
	g := mustGrid(t, 2, 3)
	rr, err := RoleResilience(ctx, g.ReadRole())
	if err != nil || rr != 1 {
		t.Errorf("grid 2x3 read resilience = %d, %v; want 1", rr, err)
	}
	wr, err := RoleResilience(ctx, g.WriteRole())
	if err != nil || wr != 2 {
		t.Errorf("grid 2x3 write resilience = %d, %v; want 2", wr, err)
	}
	res, err := Resilience(ctx, g)
	if err != nil || res != 1 {
		t.Errorf("grid 2x3 resilience = %d, %v; want 1", res, err)
	}
	if res, err := Resilience(ctx, mustROWA(t, 9)); err != nil || res != 0 {
		t.Errorf("rowa 9 resilience = %d, %v; want 0", res, err)
	}
	// The closed forms must agree with the generic witness-table scan.
	for _, sys := range []quorum.System{g.ReadRole(), g.WriteRole()} {
		er := sys.(quorum.ExactResilience)
		table, err := quorum.BuildWitnessTable(sys)
		if err != nil {
			t.Fatalf("table of %s: %v", sys.Name(), err)
		}
		largest := 0
		for m := uint64(0); m < 1<<6; m++ {
			if !table.Contains(m) {
				if c := popcount(m); c > largest {
					largest = c
				}
			}
		}
		if want := 6 - largest - 1; er.Resilience() != want {
			t.Errorf("%s closed-form resilience %d != table scan %d", sys.Name(), er.Resilience(), want)
		}
	}
}

func popcount(m uint64) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// TestCheckDualityExhaustive verifies duality the strong way for every
// small rw construction: over ALL 2^n colorings, a green side
// containing a read quorum implies the red side contains no write
// quorum (and symmetrically), which is exactly "every read quorum
// intersects every write quorum" stated on characteristic functions.
func TestCheckDualityExhaustive(t *testing.T) {
	pairs := []ReadWrite{
		mustGrid(t, 2, 3),
		mustGrid(t, 3, 4),
		mustROWA(t, 12),
		As(FromSingle(mustChoose(t, 4, 7))),
	}
	for _, p := range pairs {
		if err := CheckDuality(p.ReadRole(), p.WriteRole()); err != nil {
			t.Errorf("%s: CheckDuality: %v", p.Name(), err)
		}
		n := p.Size()
		if n > 14 {
			t.Fatalf("%s: exhaustive check wants n <= 14, got %d", p.Name(), n)
		}
		greens := bitset.New(n)
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			greens.Clear()
			for e := 0; e < n; e++ {
				if mask&(1<<uint(e)) != 0 {
					greens.Add(e)
				}
			}
			if p.ReadRole().ContainsQuorum(greens) && p.WriteRole().ContainsQuorum(greens.Complement()) {
				t.Fatalf("%s: read quorum in %v and write quorum in its complement", p.Name(), greens)
			}
		}
	}
}

func mustChoose(t *testing.T, k, n int) *systems.Choose {
	t.Helper()
	c, err := systems.NewChoose(k, n)
	if err != nil {
		t.Fatalf("NewChoose(%d,%d): %v", k, n, err)
	}
	return c
}

// TestDualityRandomWide samples random colorings at the word boundary
// (63, 64) and at wide n, checking the same implication on the native
// wide-mask paths.
func TestDualityRandomWide(t *testing.T) {
	pairs := []ReadWrite{
		mustGrid(t, 7, 9),   // n = 63
		mustGrid(t, 8, 8),   // n = 64
		mustGrid(t, 32, 32), // n = 1024
		mustROWA(t, 64),
		mustROWA(t, 1025),
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for _, p := range pairs {
		n := p.Size()
		rv, ok := p.ReadRole().(quorum.WideMaskSystem)
		if !ok {
			t.Fatalf("%s: read role lacks the wide capability", p.Name())
		}
		wv, ok := p.WriteRole().(quorum.WideMaskSystem)
		if !ok {
			t.Fatalf("%s: write role lacks the wide capability", p.Name())
		}
		words := make([]uint64, quorum.WordCount(n))
		comp := make([]uint64, quorum.WordCount(n))
		for trial := 0; trial < 2000; trial++ {
			for i := range words {
				words[i] = rng.Uint64()
			}
			if n%64 != 0 {
				words[len(words)-1] &= uint64(1)<<(uint(n)%64) - 1
			}
			quorum.ComplementWordsInto(comp, words, n)
			if rv.ContainsQuorumWords(words) && wv.ContainsQuorumWords(comp) {
				t.Fatalf("%s: wide coloring holds a read quorum and its complement a write quorum", p.Name())
			}
		}
	}
}

// TestNewExplicitPairRejectsNonDual pins the mask-native duality check
// on explicit pairs.
func TestNewExplicitPair(t *testing.T) {
	n := 4
	reads := []*bitset.Set{bitset.FromSlice(n, []int{0, 1}), bitset.FromSlice(n, []int{2, 3})}
	writes := []*bitset.Set{bitset.FromSlice(n, []int{0, 2}), bitset.FromSlice(n, []int{1, 3})}
	if _, err := NewExplicitPair("quad", n, reads, writes); err != nil {
		t.Fatalf("dual pair rejected: %v", err)
	}
	// {0,1} misses {2,3}: not dual.
	bad := []*bitset.Set{bitset.FromSlice(n, []int{2, 3})}
	if _, err := NewExplicitPair("bad", n, reads[:1], bad); err == nil {
		t.Fatal("non-dual pair accepted")
	}
}

// TestResilientQuorums pins the f-resilient DP on the tutorial grid:
// the only 1-resilient read quorum is the full universe, and the
// minimal 1-resilient write quorums take two elements per row.
func TestResilientQuorums(t *testing.T) {
	ctx := context.Background()
	g := mustGrid(t, 2, 3)
	reads, err := ResilientQuorums(ctx, g.ReadRole(), 1)
	if err != nil {
		t.Fatalf("read role: %v", err)
	}
	if len(reads) != 1 || reads[0].Count() != 6 {
		t.Fatalf("1-resilient read quorums = %v, want only the full universe", reads)
	}
	writes, err := ResilientQuorums(ctx, g.WriteRole(), 1)
	if err != nil {
		t.Fatalf("write role: %v", err)
	}
	if len(writes) != 9 {
		t.Fatalf("1-resilient write quorums: %d, want C(3,2)^2 = 9", len(writes))
	}
	for _, w := range writes {
		if w.Count() != 4 {
			t.Fatalf("1-resilient write quorum %v has %d elements, want 4", w, w.Count())
		}
	}
	// And every one of them must survive any single failure.
	for _, w := range writes {
		w.ForEach(func(e int) bool {
			rest := w.Clone()
			rest.Remove(e)
			if !g.WriteRole().ContainsQuorum(rest) {
				t.Fatalf("quorum %v dies when %d fails", w, e)
			}
			return true
		})
	}
}

// TestPairDelegation checks the Pair's read-role System surface against
// the inner system.
func TestPairDelegation(t *testing.T) {
	inner := mustChoose(t, 3, 5)
	p := FromSingle(inner)
	if p.Spec() != "" {
		t.Errorf("Spec of a spec-less wrap = %q, want empty", p.Spec())
	}
	s := bitset.FromSlice(5, []int{0, 2, 4})
	if !p.ContainsQuorum(s) {
		t.Error("ContainsQuorum lost in delegation")
	}
	if got := p.ContainsQuorumWords([]uint64{0b10101}); !got {
		t.Error("ContainsQuorumWords lost in delegation")
	}
	// A read role without the words capability takes the bitset fallback.
	bare := FromSingle(struct{ quorum.System }{inner})
	if !bare.ContainsQuorumWords([]uint64{0b10101}) || bare.ContainsQuorumWords([]uint64{0b00101}) {
		t.Error("ContainsQuorumWords bitset fallback disagrees with the read role")
	}
	if q, ok := p.FindQuorumWithin(s); !ok || q.Count() != 3 {
		t.Errorf("FindQuorumWithin = %v, %v", q, ok)
	}
	if p.MinQuorumSize() != 3 || p.MaxQuorumSize() != 3 {
		t.Errorf("Sized = %d/%d, want 3/3", p.MinQuorumSize(), p.MaxQuorumSize())
	}
}
