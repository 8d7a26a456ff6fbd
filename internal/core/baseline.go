package core

import (
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
	"probequorum/internal/rw"
)

// systemWithFinder is the contract the generic strategies need: a quorum
// system that can also locate quorums inside an allowed set.
type systemWithFinder interface {
	quorum.System
	quorum.Finder
}

// TwoRoleReason says why Resolve refuses a read/write pair whose roles
// differ: the pair is its read role, which need not be a coterie, so one
// color holding a read quorum does not rule out the other (one red
// element is a red read quorum of read-one/write-all), and on a grid
// neither color may ever hold one.
const TwoRoleReason = "its read and write roles differ, so a red read quorum does not rule out a green one"

// TwoRoles reports whether sys is a read/write pair whose read and write
// roles are different systems.
func TwoRoles(sys quorum.System) bool {
	rwv, ok := sys.(rw.ReadWrite)
	return ok && !rw.SameRole(rwv.ReadRole(), rwv.WriteRole())
}

// Resolve picks the witness strategy every consumer of a system runs:
// the system's own probe.Prober (probe.RandomizedProber when randomized)
// when it carries one, else SequentialScan (RandomScan) when it
// implements quorum.Finder. It returns nil when neither applies, and for
// TwoRoles pairs (see TwoRoleReason). Deterministic strategies ignore
// rng.
func Resolve(sys quorum.System, randomized bool) func(o probe.Oracle, rng *rand.Rand) probe.Witness {
	if TwoRoles(sys) {
		return nil
	}
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
// index order until one color class contains a quorum. Against it, the
// paper's structure-aware strategies show their savings.
func SequentialScan(sys systemWithFinder, o probe.Oracle) probe.Witness {
	return scan(sys, o, nil)
}

// RandomScan is the generic randomized baseline: probe elements in a
// uniformly random order until one color class contains a quorum. For the
// majority system it coincides with R_Probe_Maj.
func RandomScan(sys systemWithFinder, o probe.Oracle, rng *rand.Rand) probe.Witness {
	return scan(sys, o, rng.Perm(sys.Size()))
}

// scan probes the elements in order (index order when nil) until one
// color class contains a quorum.
func scan(sys systemWithFinder, o probe.Oracle, order []int) probe.Witness {
	n := sys.Size()
	greens := bitset.New(n)
	reds := bitset.New(n)
	for i := 0; i < n; i++ {
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
			reds.Add(e)
			if sys.ContainsQuorum(reds) {
				return extractWitness(sys, coloring.Red, reds)
			}
		}
	}
	panic("core: scan exhausted the universe without a witness")
}

// extractWitness narrows a monochromatic quorum-containing set to an
// actual quorum when the system can find one.
func extractWitness(sys systemWithFinder, col coloring.Color, mono *bitset.Set) probe.Witness {
	if q, ok := sys.FindQuorumWithin(mono); ok {
		return probe.Witness{Color: col, Set: q}
	}
	return probe.Witness{Color: col, Set: mono.Clone()}
}

// Universal is the quorum-avoiding snoop in the spirit of the universal
// O(c^2) algorithm of Peleg & Wool [15] for c-uniform systems: repeatedly
// pick a quorum avoiding all elements known to be red and probe its
// unknown elements; every failed attempt learns at least one new red
// element, and when no quorum avoids the red set, the red set is a
// transversal and (for an ND coterie, Lemma 2.1) contains a red quorum.
func Universal(sys systemWithFinder, o probe.Oracle) probe.Witness {
	n := sys.Size()
	knownRed := bitset.New(n)
	knownGreen := bitset.New(n)
	for {
		allowed := knownRed.Complement()
		q, ok := sys.FindQuorumWithin(allowed)
		if !ok {
			rq, found := sys.FindQuorumWithin(knownRed)
			if !found {
				panic("core: Universal: red transversal contains no quorum (system not an ND coterie)")
			}
			return probe.Witness{Color: coloring.Red, Set: rq}
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
