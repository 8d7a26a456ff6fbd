package quorum_test

import (
	"math/bits"
	"slices"
	"testing"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// elementsOf lists the elements of each class mask.
func elementsOf(classes []uint64) [][]int {
	out := make([][]int, len(classes))
	for i, m := range classes {
		out[i] = []int{}
		for ; m != 0; m &= m - 1 {
			out[i] = append(out[i], bits.TrailingZeros64(m))
		}
	}
	return out
}

// asymmetricVote is the weighted threshold with weights n, n-1, ..., 1.
func asymmetricVote(tb testing.TB, n int) quorum.System {
	tb.Helper()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = n - i
	}
	v, err := systems.NewVote(weights)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// The derived symmetry classes of the constructions whose structure
// predicts them, including the symmetry no per-row declaration would
// state: Triang(4)'s top two rows act as one Maj(3), and each inner gate
// of Tree(2) is interchangeable with its two leaves.
func TestClassesPinned(t *testing.T) {
	must := func(sys quorum.System, err error) quorum.System {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	singletons := make([][]int, 13)
	for i := range singletons {
		singletons[i] = []int{i}
	}
	for _, tc := range []struct {
		sys  quorum.System
		want [][]int
	}{
		{must(systems.NewMaj(9)), [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}}},
		{must(systems.NewWheel(8)), [][]int{{0}, {1, 2, 3, 4, 5, 6, 7}}},
		{must(systems.NewTriang(4)), [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}}},
		{must(systems.NewVote([]int{3, 1, 1, 2})), [][]int{{0}, {1, 2, 3}}},
		{must(systems.NewTree(2)), [][]int{{0}, {1, 3, 4}, {2, 5, 6}}},
		{asymmetricVote(t, 13), singletons},
	} {
		table, err := quorum.BuildWitnessTable(tc.sys)
		if err != nil {
			t.Fatal(err)
		}
		if got := elementsOf(table.Classes()); !slices.EqualFunc(got, tc.want, slices.Equal) {
			t.Errorf("%s: classes %v, want %v", tc.sys.Name(), got, tc.want)
		}
	}
}

// bruteClasses derives the classes bit by bit: elements a and b share a
// class when every mask agrees with its image under the swap.
func bruteClasses(table *quorum.WitnessTable) []uint64 {
	n := table.Size()
	swap := func(m uint64, a, b int) uint64 {
		ba, bb := bitset.Bit(a), bitset.Bit(b)
		if (m&ba != 0) != (m&bb != 0) {
			m ^= ba | bb
		}
		return m
	}
	var classes []uint64
	for e := 0; e < n; e++ {
		joined := false
		for i, c := range classes {
			lead := bits.TrailingZeros64(c)
			same := true
			for m := uint64(0); m < bitset.Pow2(n) && same; m++ {
				same = table.Contains(m) == table.Contains(swap(m, lead, e))
			}
			if same {
				classes[i] |= bitset.Bit(e)
				joined = true
				break
			}
		}
		if !joined {
			classes = append(classes, bitset.Bit(e))
		}
	}
	return classes
}

// The word-at-a-time swap test must agree with the bit-by-bit one on
// every element pair layout: both elements inside a table word, one in
// and one across words, both across, and tables of fewer than six
// elements that fill only part of their word.
func TestClassesMatchBruteForce(t *testing.T) {
	must := func(sys quorum.System, err error) quorum.System {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	dominated, err := quorum.NewExplicit("dominated", 3, []*bitset.Set{bitset.FromSlice(3, []int{0, 1})})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []quorum.System{
		must(systems.NewMaj(1)), must(systems.NewMaj(3)), must(systems.NewMaj(5)), must(systems.NewMaj(11)),
		must(systems.NewWheel(4)), must(systems.NewWheel(7)), must(systems.NewWheel(12)),
		must(systems.NewCW([]int{1, 2})), must(systems.NewCW([]int{1, 3, 2})), must(systems.NewCW([]int{1, 2, 3, 4})),
		must(systems.NewCW([]int{1, 2, 5, 2, 3})),
		must(systems.NewTriang(3)), must(systems.NewTriang(4)),
		must(systems.NewTree(1)), must(systems.NewTree(2)),
		must(systems.NewHQS(1)), must(systems.NewHQS(2)),
		must(systems.NewVote([]int{3, 1, 1, 2})), must(systems.NewVote([]int{1, 1, 3, 1, 1, 2, 2, 1, 3, 1, 1})),
		asymmetricVote(t, 5), asymmetricVote(t, 10),
		dominated,
	} {
		table, err := quorum.BuildWitnessTable(sys)
		if err != nil {
			t.Fatal(err)
		}
		got, want := elementsOf(table.Classes()), elementsOf(bruteClasses(table))
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s: classes %v, bit by bit %v", sys.Name(), got, want)
		}
	}
}
