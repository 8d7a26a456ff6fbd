package probe

import "math/rand/v2"

// Prober is the capability of quorum systems that carry their own
// deterministic witness-search strategy (the paper's probabilistic-model
// algorithms: Probe_Maj, Probe_CW, Probe_Tree, Probe_HQS and friends).
// The façade's FindWitness dispatches on this interface; systems without
// it fall back to the generic sequential scan when they implement
// quorum.Finder.
//
// ProbeWitness must return a sound witness for every coloring the oracle
// can answer from: a monochromatic quorum of probed elements whose color
// matches the true system state.
type Prober interface {
	// ProbeWitness locates a witness by adaptively probing the oracle.
	ProbeWitness(o Oracle) Witness
}

// RandomizedProber is the capability of quorum systems that carry their
// own randomized worst-case witness-search strategy (R_Probe_Maj,
// R_Probe_CW, R_Probe_Tree, IR_Probe_HQS and friends). The façade's
// FindWitnessRandomized dispatches on this interface, falling back to the
// generic random scan for Finder systems.
type RandomizedProber interface {
	// ProbeWitnessRandomized locates a witness using rng for its random
	// choices. It must be sound for every coloring; only the probe count
	// distribution depends on rng.
	ProbeWitnessRandomized(o Oracle, rng *rand.Rand) Witness
}

// WordsProber is the wide-universe form of Prober: the same strategy
// probing a WordsOracle and assembling the witness in the oracle's
// reusable word buffers, so trial loops stay allocation-free at any
// universe size. Implementations must probe exactly the elements
// ProbeWitness probes, in the same order, and return the same witness
// set — the Monte Carlo differential tests pin the two paths to each
// other. The returned witness aliases oracle arena memory (valid until
// the next Reset).
//
// All built-in constructions implement it; the façade's estimate path
// dispatches on it and runs any other system's strategy on the same
// oracle. The randomized strategies have no words form: they run their
// RandomizedProber form against a WordsOracle, which is an Oracle.
type WordsProber interface {
	Prober

	// ProbeWitnessWords locates a witness by adaptively probing o.
	ProbeWitnessWords(o *WordsOracle) WordsWitness
}
