package systems

import (
	"slices"
	"testing"

	"probequorum/internal/quorum"
)

// maskFixtures returns one small instance per construction, each with a
// universe small enough for exhaustive 2^n enumeration.
func maskFixtures(t *testing.T) []quorum.WideMaskSystem {
	t.Helper()
	maj, err := NewMaj(7)
	if err != nil {
		t.Fatal(err)
	}
	wheel, err := NewWheel(6)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewCW([]int{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := NewTriang(4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewTree(2)
	if err != nil {
		t.Fatal(err)
	}
	hqs, err := NewHQS(2)
	if err != nil {
		t.Fatal(err)
	}
	vote, err := NewVote([]int{3, 2, 2, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRecMaj(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []quorum.WideMaskSystem{maj, wheel, cw, tri, tree, hqs, vote, rm}
}

// The words characteristic function on a one-word slice, and the witness
// table built from it, must agree with the bitset reference on every
// subset of the universe.
func TestContainsQuorumMaskMatchesBitset(t *testing.T) {
	for _, sys := range maskFixtures(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			n := sys.Size()
			table, err := quorum.BuildWitnessTable(sys)
			if err != nil {
				t.Fatal(err)
			}
			words := make([]uint64, 1)
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				words[0] = mask
				got := sys.ContainsQuorumWords(words)
				want := sys.ContainsQuorum(quorum.SetOfMask(n, mask))
				if got != want || table.Contains(mask) != want {
					t.Fatalf("mask %#b: ContainsQuorumWords=%v, table=%v, ContainsQuorum=%v", mask, got, table.Contains(mask), want)
				}
			}
		})
	}
}

// The quorum enumeration must produce exactly the minimal true points of
// the witness table, which BuildWitnessTable evaluates from
// ContainsQuorumWords: a mask is a minimal quorum iff it contains a
// quorum and dropping any one element leaves none (orders may differ).
func TestQuorumMasksMatchQuorums(t *testing.T) {
	for _, sys := range maskFixtures(t) {
		t.Run(sys.Name(), func(t *testing.T) {
			table, err := quorum.BuildWitnessTable(sys)
			if err != nil {
				t.Fatal(err)
			}
			var minimal []uint64
			for mask := uint64(0); mask < 1<<uint(sys.Size()); mask++ {
				if !table.Contains(mask) {
					continue
				}
				isMin := true
				for m := mask; m != 0 && isMin; m &= m - 1 {
					isMin = !table.Contains(mask &^ (m & -m))
				}
				if isMin {
					minimal = append(minimal, mask)
				}
			}
			got := quorum.MasksOf(sys.Quorums())
			slices.Sort(got)
			if !slices.Equal(got, minimal) {
				t.Fatalf("Quorums gives %d masks %#b, table minimal points %d masks %#b", len(got), got, len(minimal), minimal)
			}
		})
	}
}

// Packing a set into one word must refuse universes beyond one machine
// word rather than silently truncate.
func TestMaskGuardPanics(t *testing.T) {
	m, err := NewMaj(101)
	if err != nil {
		t.Fatal(err)
	}
	for name, pack := range map[string]func(){
		"MaskOf":   func() { quorum.MaskOf(quorum.SetOfWords(m.Size(), quorum.FullWords(m.Size()))) },
		"FullMask": func() { quorum.FullMask(m.Size()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted n > 64", name)
				}
			}()
			pack()
		}()
	}
}
