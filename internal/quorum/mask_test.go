package quorum_test

import (
	"context"
	"errors"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// explicitFixture is a small explicit coterie over 5 elements exercising
// the generic (enumeration-backed) paths.
func explicitFixture(t *testing.T) *quorum.Explicit {
	t.Helper()
	n := 5
	quorums := []*bitset.Set{
		bitset.FromSlice(n, []int{0, 1, 2}),
		bitset.FromSlice(n, []int{0, 3, 4}),
		bitset.FromSlice(n, []int{1, 2, 3, 4}),
	}
	e, err := quorum.NewExplicit("fixture", n, quorums)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hideMask wraps a System, discarding its words method, so tests can force
// the cached-enumeration adapter and the closure-based table builder.
type hideMask struct{ quorum.System }

// directEval re-exposes only the WideMaskSystem methods — not the cached
// quorum list (no embedding, so no promoted unexported methods) — forcing
// BuildWitnessTable's ContainsQuorumWords evaluation branch.
type directEval struct{ e *quorum.Explicit }

func (d directEval) Name() string                            { return d.e.Name() }
func (d directEval) Size() int                               { return d.e.Size() }
func (d directEval) ContainsQuorum(s *bitset.Set) bool       { return d.e.ContainsQuorum(s) }
func (d directEval) Quorums() []*bitset.Set                  { return d.e.Quorums() }
func (d directEval) ContainsQuorumWords(words []uint64) bool { return d.e.ContainsQuorumWords(words) }

func TestMaskOfRoundTrip(t *testing.T) {
	s := bitset.FromSlice(10, []int{0, 3, 9})
	mask := quorum.MaskOf(s)
	if mask != 0b1000001001 {
		t.Fatalf("MaskOf = %#b", mask)
	}
	if back := quorum.SetOfMask(10, mask); !back.Equal(s) {
		t.Fatalf("SetOfMask round trip: %v != %v", back, s)
	}
}

func TestSetOfMaskRejectsOutOfRangeBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetOfMask accepted a mask with bits above n")
		}
	}()
	quorum.SetOfMask(3, 0b1000)
}

// The enumeration adapter's one-word tests must agree with the wrapped
// system's bitset evaluation on every subset.
func TestMaskedAdapterMatchesSystem(t *testing.T) {
	base := explicitFixture(t)
	ws, err := quorum.WideMasked(hideMask{base})
	if err != nil {
		t.Fatal(err)
	}
	if _, native := ws.(*quorum.Explicit); native {
		t.Fatal("WideMasked returned the native system for a wrapped one")
	}
	n := base.Size()
	words := make([]uint64, 1)
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		words[0] = mask
		got := ws.ContainsQuorumWords(words)
		want := base.ContainsQuorum(quorum.SetOfMask(n, mask))
		if got != want {
			t.Fatalf("mask %#b: adapter=%v, system=%v", mask, got, want)
		}
	}
}

// WideMasked must hand native implementations straight through.
func TestMaskedReturnsNativeSystem(t *testing.T) {
	base := explicitFixture(t)
	ws, err := quorum.WideMasked(base)
	if err != nil {
		t.Fatal(err)
	}
	if ws != quorum.WideMaskSystem(base) {
		t.Error("WideMasked wrapped a system that already implements WideMaskSystem")
	}
}

// The witness table must equal the characteristic function everywhere, on
// all three construction paths: enumeration seeding for cached-quorum
// systems (Explicit), quorum-mask seeding plus word-level upward closure
// for plain Systems, and evaluation of ContainsQuorumWords for structural
// WideMaskSystems (exercised on every built-in construction by
// TestContainsQuorumMaskMatchesBitset in internal/systems).
func TestWitnessTableMatchesCharacteristicFunction(t *testing.T) {
	base := explicitFixture(t)
	n := base.Size()
	for _, tc := range []struct {
		name string
		sys  quorum.System
	}{
		{"enum-backed", base},
		{"closure", hideMask{base}},
		{"direct-eval", directEval{e: base}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table, err := quorum.BuildWitnessTable(tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				got := table.Contains(mask)
				want := base.ContainsQuorum(quorum.SetOfMask(n, mask))
				if got != want {
					t.Fatalf("mask %#b: table=%v, system=%v", mask, got, want)
				}
			}
		})
	}
}

// A universe of more than 6 elements exercises the word-pair steps of the
// upward closure (the table spans multiple uint64 words).
func TestWitnessTableClosureMultiWord(t *testing.T) {
	n := 9
	quorums := []*bitset.Set{
		bitset.FromSlice(n, []int{0, 7}),
		bitset.FromSlice(n, []int{0, 8}),
		bitset.FromSlice(n, []int{7, 8, 3}),
	}
	base, err := quorum.NewExplicit("multiword", n, quorums)
	if err != nil {
		t.Fatal(err)
	}
	table, err := quorum.BuildWitnessTable(hideMask{base})
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		got := table.Contains(mask)
		want := base.ContainsQuorum(quorum.SetOfMask(n, mask))
		if got != want {
			t.Fatalf("mask %#b: table=%v, system=%v", mask, got, want)
		}
	}
}

func TestBuildWitnessTableGuard(t *testing.T) {
	big := sized{n: quorum.MaxTableUniverse + 1}
	if _, err := quorum.BuildWitnessTable(big); err == nil {
		t.Error("BuildWitnessTable accepted n > MaxTableUniverse")
	}
	if _, err := quorum.TableFromWords(quorum.MaxTableUniverse+1, nil); err == nil {
		t.Error("TableFromWords accepted n > MaxTableUniverse")
	}
}

// sized is a stub System carrying only a universe size, for guard tests.
type sized struct{ n int }

func (s sized) Name() string                    { return "sized" }
func (s sized) Size() int                       { return s.n }
func (s sized) ContainsQuorum(*bitset.Set) bool { return false }
func (s sized) Quorums() []*bitset.Set          { return nil }

func TestBuildWitnessTableCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := quorum.BuildWitnessTableCtx(ctx, explicitFixture(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildWitnessTableCtx on a cancelled ctx: err = %v, want context.Canceled", err)
	}
}
