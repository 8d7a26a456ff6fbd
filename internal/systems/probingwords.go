package systems

import (
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
	"probequorum/internal/quorum"
)

// This file implements the probe.WordsProber capability — the wide-
// universe form of every deterministic strategy in probing.go — on all
// seven constructions. Each method probes exactly the elements its bitset
// counterpart probes, in the same order, and assembles the same witness
// set, but the witness and every intermediate live in the oracle's
// reusable word-buffer arena: a Monte Carlo trial performs no heap
// allocation at any universe size. The differential tests in
// probingwords_test.go pin the two paths to each other element-for-
// element.
//
// The pair is kept on purpose. Only against the concrete WordsOracle
// does Probe inline into the strategy loop; a single form written
// against an oracle interface, or a WordsOracle that asks another oracle
// for colors, loses the inlining and slows the Monte Carlo estimate.
// The oracle type selects the form: the estimate runs these, while
// FindWitness on caller oracles and the temporal engine run probing.go.
// The randomized strategies have one form (randomized.go), which runs
// on a WordsOracle as on any other Oracle.

var (
	_ probe.WordsProber = (*Maj)(nil)
	_ probe.WordsProber = (*Wheel)(nil)
	_ probe.WordsProber = (*CW)(nil)
	_ probe.WordsProber = (*Tree)(nil)
	_ probe.WordsProber = (*HQS)(nil)
	_ probe.WordsProber = (*Vote)(nil)
	_ probe.WordsProber = (*RecMaj)(nil)
)

// ProbeWitnessWords implements probe.WordsProber: Probe_Maj with the two
// color classes accumulated in word buffers and counters.
//
//quorum:hotpath
func (m *Maj) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	t := m.Threshold()
	greens := o.AcquireWords()
	reds := o.AcquireWords()
	greenCount, redCount := 0, 0
	for e := 0; e < m.n; e++ {
		if o.Probe(e) == coloring.Green {
			quorum.SetWordBit(greens, e)
			greenCount++
			if greenCount == t {
				return probe.WordsWitness{Color: coloring.Green, Words: greens}
			}
		} else {
			quorum.SetWordBit(reds, e)
			redCount++
			if redCount == t {
				return probe.WordsWitness{Color: coloring.Red, Words: reds}
			}
		}
	}
	panic("systems: Maj.ProbeWitnessWords exhausted the universe without a witness")
}

// ProbeWitnessWords implements probe.WordsProber: the hub-first scan.
//
//quorum:hotpath
func (w *Wheel) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	buf := o.AcquireWords()
	hubColor := o.Probe(0)
	for r := 1; r < w.n; r++ {
		if o.Probe(r) == hubColor {
			quorum.SetWordBit(buf, 0)
			quorum.SetWordBit(buf, r)
			return probe.WordsWitness{Color: hubColor, Words: buf}
		}
	}
	// The entire rim disagrees with the hub: the rim is the witness.
	quorum.FullWordsInto(buf, w.n)
	buf[0] &^= 1
	return probe.WordsWitness{Color: hubColor.Opposite(), Words: buf}
}

// ProbeWitnessWords implements probe.WordsProber: Probe_CW with the
// running witness W kept as a word mask.
//
//quorum:hotpath
func (c *CW) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	w := o.AcquireWords()
	start, _ := c.RowRange(0)
	quorum.SetWordBit(w, start)
	mode := o.Probe(start)
	for i := 1; i < c.Rows(); i++ {
		lo, hi := c.RowRange(i)
		found := false
		for e := lo; e < hi; e++ {
			if o.Probe(e) == mode {
				quorum.SetWordBit(w, e)
				found = true
				break
			}
		}
		if !found {
			quorum.ZeroWords(w)
			for e := lo; e < hi; e++ {
				quorum.SetWordBit(w, e)
			}
			mode = mode.Opposite()
		}
	}
	return probe.WordsWitness{Color: mode, Words: w}
}

// ProbeWitnessWords implements probe.WordsProber: Probe_Tree with
// per-level witness buffers from the oracle arena.
//
//quorum:hotpath
func (t *Tree) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	dst := o.AcquireWords()
	c := t.probeWordsAt(o, t.Root(), dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

// probeWordsAt probes the subtree at v, overwrites dst with the witness
// and returns its color, mirroring probeAt probe-for-probe.
func (t *Tree) probeWordsAt(o *probe.WordsOracle, v int, dst []uint64) coloring.Color {
	rootColor := o.Probe(v)
	if t.IsLeaf(v) {
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, v)
		return rootColor
	}
	cr := t.probeWordsAt(o, t.Right(v), dst)
	if cr == rootColor {
		quorum.SetWordBit(dst, v)
		return rootColor
	}
	tmp := o.AcquireWords()
	cl := t.probeWordsAt(o, t.Left(v), tmp)
	if cl == rootColor {
		quorum.CopyWords(dst, tmp)
		quorum.SetWordBit(dst, v)
		o.ReleaseWords(1)
		return rootColor
	}
	// Both subtrees disagree with the root, hence agree with each other.
	quorum.OrWords(dst, tmp)
	o.ReleaseWords(1)
	return cl
}

// ProbeWitnessWords implements probe.WordsProber: the descending-weight
// scan with word-buffer color classes.
//
//quorum:hotpath
func (v *Vote) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	t := v.Threshold()
	greens := o.AcquireWords()
	reds := o.AcquireWords()
	greenWeight, redWeight := 0, 0
	for _, e := range v.probeOrder() {
		if o.Probe(e) == coloring.Green {
			quorum.SetWordBit(greens, e)
			greenWeight += v.weights[e]
			if greenWeight >= t {
				return probe.WordsWitness{Color: coloring.Green, Words: greens}
			}
		} else {
			quorum.SetWordBit(reds, e)
			redWeight += v.weights[e]
			if redWeight >= t {
				return probe.WordsWitness{Color: coloring.Red, Words: reds}
			}
		}
	}
	panic("systems: Vote.ProbeWitnessWords exhausted the universe without a witness")
}

// ProbeWitnessWords implements probe.WordsProber: short-circuit m-ary
// gate evaluation with per-gate color accumulators from the arena.
//
//quorum:hotpath
func (r *RecMaj) ProbeWitnessWords(o *probe.WordsOracle) probe.WordsWitness {
	dst := o.AcquireWords()
	c := r.probeWordsAt(o, 0, r.n, dst)
	return probe.WordsWitness{Color: c, Words: dst}
}

func (r *RecMaj) probeWordsAt(o *probe.WordsOracle, start, size int, dst []uint64) coloring.Color {
	if size == 1 {
		c := o.Probe(start)
		quorum.ZeroWords(dst)
		quorum.SetWordBit(dst, start)
		return c
	}
	sub := size / r.m
	t := r.GateThreshold()
	greens, reds := 0, 0
	greenAcc := o.AcquireWords()
	redAcc := o.AcquireWords()
	child := o.AcquireWords()
	for i := 0; i < r.m; i++ {
		c := r.probeWordsAt(o, start+i*sub, sub, child)
		if c == coloring.Green {
			greens++
			quorum.OrWords(greenAcc, child)
			if greens == t {
				quorum.CopyWords(dst, greenAcc)
				o.ReleaseWords(3)
				return coloring.Green
			}
		} else {
			reds++
			quorum.OrWords(redAcc, child)
			if reds == t {
				quorum.CopyWords(dst, redAcc)
				o.ReleaseWords(3)
				return coloring.Red
			}
		}
	}
	panic("systems: RecMaj.ProbeWitnessWords: gate undecided after all children (invalid arity)")
}
