package core

import (
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// systemWithFinder is the contract the generic strategies need: a quorum
// system that can also locate quorums inside an allowed set.
type systemWithFinder interface {
	quorum.System
	quorum.Finder
}

// Resolve picks the witness strategy every consumer of a system runs:
// the system's own probe.Prober (probe.RandomizedProber when randomized)
// when it carries one, else SequentialScan (RandomScan) when it
// implements quorum.Finder. It returns nil when neither applies.
// Deterministic strategies ignore rng.
func Resolve(sys quorum.System, randomized bool) func(o probe.Oracle, rng *rand.Rand) probe.Witness {
	if randomized {
		switch impl := sys.(type) {
		case probe.RandomizedProber:
			return impl.ProbeWitnessRandomized
		case systemWithFinder:
			return func(o probe.Oracle, rng *rand.Rand) probe.Witness { return RandomScan(impl, o, rng) }
		}
		return nil
	}
	switch impl := sys.(type) {
	case probe.Prober:
		return func(o probe.Oracle, _ *rand.Rand) probe.Witness { return impl.ProbeWitness(o) }
	case systemWithFinder:
		return func(o probe.Oracle, _ *rand.Rand) probe.Witness { return SequentialScan(impl, o) }
	}
	return nil
}

// SequentialScan is the generic deterministic baseline: probe elements in
// index order until the probes settle the system (see scan). Against it,
// the paper's structure-aware strategies show their savings.
func SequentialScan(sys systemWithFinder, o probe.Oracle) probe.Witness {
	return scan(sys, o, nil)
}

// RandomScan is the generic randomized baseline: probe elements in a
// uniformly random order until the probes settle the system. For the
// majority system it coincides with R_Probe_Maj.
func RandomScan(sys systemWithFinder, o probe.Oracle, rng *rand.Rand) probe.Witness {
	return scan(sys, o, rng.Perm(sys.Size()))
}

// scan probes the elements in order (index order when nil) until the
// greens contain a quorum or the non-reds contain none. After the last
// probe the non-reds are the greens, so one of the two fires by then.
func scan(sys systemWithFinder, o probe.Oracle, order []int) probe.Witness {
	n := sys.Size()
	greens := bitset.New(n)
	rest := bitset.New(n) // the elements not known red
	rest.Fill()
	for i := 0; ; i++ {
		e := i
		if order != nil {
			e = order[i]
		}
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			if sys.ContainsQuorum(greens) {
				return extractWitness(sys, coloring.Green, greens)
			}
		} else {
			rest.Remove(e)
			if !sys.ContainsQuorum(rest) {
				return extractWitness(sys, coloring.Red, rest.Complement())
			}
		}
	}
}

// extractWitness narrows a settled color class, which it takes over, to
// a quorum inside it when the system can find one that still settles the
// state: for red, one that meets every quorum itself. That always holds
// for an ND coterie (Lemma 2.1), but not for read-one's singletons.
func extractWitness(sys systemWithFinder, col coloring.Color, class *bitset.Set) probe.Witness {
	if q, ok := sys.FindQuorumWithin(class); ok && (col == coloring.Green || quorum.IsTransversal(sys, q)) {
		return probe.Witness{Color: col, Set: q}
	}
	return probe.Witness{Color: col, Set: class}
}

// Universal is the quorum-avoiding snoop in the spirit of the universal
// O(c^2) algorithm of Peleg & Wool [15] for c-uniform systems: repeatedly
// pick a quorum avoiding all elements known to be red and probe its
// unknown elements; every failed attempt learns at least one new red
// element, and when no quorum avoids the red set, the red set is a
// transversal, the red witness, narrowed as in scan.
func Universal(sys systemWithFinder, o probe.Oracle) probe.Witness {
	n := sys.Size()
	knownRed := bitset.New(n)
	knownGreen := bitset.New(n)
	for {
		allowed := knownRed.Complement()
		q, ok := sys.FindQuorumWithin(allowed)
		if !ok {
			return extractWitness(sys, coloring.Red, knownRed)
		}
		sawRed := false
		q.ForEach(func(e int) bool {
			if knownGreen.Contains(e) {
				return true
			}
			if o.Probe(e) == coloring.Green {
				knownGreen.Add(e)
				return true
			}
			knownRed.Add(e)
			sawRed = true
			return false
		})
		if !sawRed {
			return probe.Witness{Color: coloring.Green, Set: q}
		}
	}
}
