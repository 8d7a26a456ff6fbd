package quorum_test

import (
	"testing"

	"probequorum/internal/quorum"
	"probequorum/internal/systems"
)

// tableFamilies returns one instance per construction family at the
// universe sizes the exact measures build witness tables for (n ≈ 11–15;
// HQS and RecMaj at n = 9, their nearest size with more than one gate
// level), plus an Explicit copy of Maj(13), which takes the seeding and
// closure path.
func tableFamilies(tb testing.TB) []quorum.System {
	tb.Helper()
	must := func(sys quorum.System, err error) quorum.System {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return sys
	}
	maj := must(systems.NewMaj(13))
	return []quorum.System{
		maj,
		must(systems.NewWheel(13)),
		must(systems.NewTriang(5)),
		must(systems.NewTree(3)),
		must(systems.NewHQS(2)),
		must(systems.NewVote([]int{3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})),
		must(systems.NewRecMaj(3, 2)),
		must(quorum.NewExplicit("explicit-maj13", 13, maj.Quorums())),
	}
}

// BenchmarkBuildWitnessTable times one witness table build per family:
// 2^n evaluations of ContainsQuorumWords on a one-word slice for the
// structural constructions, quorum seeding plus upward closure for
// Explicit.
func BenchmarkBuildWitnessTable(b *testing.B) {
	for _, sys := range tableFamilies(b) {
		b.Run(sys.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := quorum.BuildWitnessTable(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A table build allocates the table, its bit words and the one-word
// evaluation buffer, and nothing per subset.
func TestBuildWitnessTableAllocs(t *testing.T) {
	for _, sys := range tableFamilies(t) {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := quorum.BuildWitnessTable(sys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%s: BuildWitnessTable allocates %v times, want <= 3", sys.Name(), allocs)
		}
	}
}
