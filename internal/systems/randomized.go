package systems

import (
	"math/rand/v2"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
)

// This file implements the probe.RandomizedProber capability — the
// paper's randomized worst-case strategies — on every construction, so
// no built-in ever takes the generic random-scan fallback.

var (
	_ probe.RandomizedProber = (*Maj)(nil)
	_ probe.RandomizedProber = (*Wheel)(nil)
	_ probe.RandomizedProber = (*CW)(nil)
	_ probe.RandomizedProber = (*Tree)(nil)
	_ probe.RandomizedProber = (*HQS)(nil)
	_ probe.RandomizedProber = (*Vote)(nil)
	_ probe.RandomizedProber = (*RecMaj)(nil)
)

// ProbeWitnessRandomized implements probe.RandomizedProber with Algorithm
// R_Probe_Maj (§4.1): probe elements uniformly at random without
// replacement until one color reaches the quorum threshold. Its
// worst-case expected probe count is n - (n-1)/(n+3) (Theorem 4.2).
func (m *Maj) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	t := m.Threshold()
	greens := bitset.New(m.n)
	reds := bitset.New(m.n)
	greenCount, redCount := 0, 0
	for _, e := range rng.Perm(m.n) {
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			greenCount++
			if greenCount == t {
				return probe.Witness{Color: coloring.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			redCount++
			if redCount == t {
				return probe.Witness{Color: coloring.Red, Set: reds}
			}
		}
	}
	panic("systems: Maj.ProbeWitnessRandomized exhausted the universe without a witness")
}

// ProbeWitnessRandomized implements probe.RandomizedProber: the hub-first
// strategy of ProbeWitness with the rim scanned in uniformly random
// order, so no fixed rim ordering can be targeted by an adversary.
func (w *Wheel) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	hubColor := o.Probe(0)
	for _, off := range rng.Perm(w.n - 1) {
		r := off + 1
		if o.Probe(r) == hubColor {
			return probe.Witness{Color: hubColor, Set: bitset.FromSlice(w.n, []int{0, r})}
		}
	}
	rim := bitset.New(w.n)
	rim.Fill()
	rim.Remove(0)
	return probe.Witness{Color: hubColor.Opposite(), Set: rim}
}

// ProbeWitnessRandomized implements probe.RandomizedProber with Algorithm
// R_Probe_CW (§4.2): starting from the bottom row, probe each row in
// uniformly random order until elements of both colors are seen, moving
// up; stop at the first monochromatic row, which together with the
// recorded same-colored representatives below forms the witness.
func (c *CW) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	k := c.Rows()
	// rep[i][color] is an element of row i observed with that color.
	repGreen := make([]int, k)
	repRed := make([]int, k)
	for j := k - 1; j >= 0; j-- {
		lo, hi := c.RowRange(j)
		width := hi - lo
		order := rng.Perm(width)
		repGreen[j], repRed[j] = -1, -1
		for _, off := range order {
			e := lo + off
			if o.Probe(e) == coloring.Green {
				repGreen[j] = e
			} else {
				repRed[j] = e
			}
			if repGreen[j] >= 0 && repRed[j] >= 0 {
				break
			}
		}
		if repGreen[j] < 0 || repRed[j] < 0 {
			// Row j is monochromatic: assemble the witness.
			mode := coloring.Green
			if repGreen[j] < 0 {
				mode = coloring.Red
			}
			w := bitset.New(c.n)
			for e := lo; e < hi; e++ {
				w.Add(e)
			}
			for i := j + 1; i < k; i++ {
				if mode == coloring.Green {
					w.Add(repGreen[i])
				} else {
					w.Add(repRed[i])
				}
			}
			return probe.Witness{Color: mode, Set: w}
		}
	}
	// Unreachable: the top row has width 1 and is always monochromatic.
	panic("systems: CW.ProbeWitnessRandomized passed the top row without a witness")
}

// ProbeWitnessRandomized implements probe.RandomizedProber with Algorithm
// R_Probe_Tree (§4.3): at every subtree choose uniformly among three
// probe orders — root then left subtree (right only if needed), root then
// right subtree (left only if needed), or both subtrees first (root only
// if they disagree). PCR ≤ 5n/6 + 1/6 (Theorem 4.7).
func (t *Tree) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return t.rProbeAt(o, rng, t.Root())
}

func (t *Tree) rProbeAt(o probe.Oracle, rng *rand.Rand, v int) probe.Witness {
	if t.IsLeaf(v) {
		return probe.Witness{Color: o.Probe(v), Set: bitset.FromSlice(t.n, []int{v})}
	}
	switch rng.IntN(3) {
	case 0:
		return t.rProbeRootFirst(o, rng, v, t.Left(v), t.Right(v))
	case 1:
		return t.rProbeRootFirst(o, rng, v, t.Right(v), t.Left(v))
	default:
		wl := t.rProbeAt(o, rng, t.Left(v))
		wr := t.rProbeAt(o, rng, t.Right(v))
		if wl.Color == wr.Color {
			wl.Set.UnionWith(wr.Set)
			return probe.Witness{Color: wl.Color, Set: wl.Set}
		}
		rootColor := o.Probe(v)
		match := wl
		if wr.Color == rootColor {
			match = wr
		}
		match.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: match.Set}
	}
}

// rProbeRootFirst probes the root and subtree first; if their colors
// disagree it falls back to the other subtree, whose witness color must
// match either the root or the first subtree.
func (t *Tree) rProbeRootFirst(o probe.Oracle, rng *rand.Rand, v, first, second int) probe.Witness {
	rootColor := o.Probe(v)
	w1 := t.rProbeAt(o, rng, first)
	if w1.Color == rootColor {
		w1.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: w1.Set}
	}
	w2 := t.rProbeAt(o, rng, second)
	if w2.Color == rootColor {
		w2.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: w2.Set}
	}
	w1.Set.UnionWith(w2.Set)
	return probe.Witness{Color: w1.Color, Set: w1.Set}
}

// ProbeWitnessRandomized implements probe.RandomizedProber with Algorithm
// IR_Probe_HQS (Fig. 8): the improved randomized HQS prober. To evaluate
// a gate of height >= 2 it fully evaluates a random child r1, then peeks
// at a random grandchild of a second random child r2. If the grandchild
// agrees with r1 the algorithm finishes evaluating r2 (hoping to confirm
// the majority); otherwise it suspects r2 is the minority child and
// evaluates r3 first. PCR = O(n^0.887) (Theorem 4.10).
//
// Following the paper, "evaluating" a node means evaluating its children
// in uniformly random order until its value is determined, where each
// child evaluation is a recursive IR call; the recursion therefore
// descends two levels at a time.
func (q *HQS) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return q.irEval(o, rng, 0, q.n)
}

// irEval evaluates the subtree [start, start+size) with the IR strategy.
func (q *HQS) irEval(o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(q.n, []int{start})}
	}
	if size == 3 {
		return q.irPlainEval(o, rng, start, size)
	}
	third := size / 3
	order := rng.Perm(3)
	r1 := start + order[0]*third
	r2 := start + order[1]*third
	r3 := start + order[2]*third

	v1 := q.irPlainEval(o, rng, r1, third)
	ninth := third / 3
	gcIdx := rng.IntN(3)
	gc := q.irEval(o, rng, r2+gcIdx*ninth, ninth)

	if gc.Color == v1.Color {
		v2 := q.irContinueEval(o, rng, r2, third, gcIdx, gc)
		if v2.Color == v1.Color {
			v1.Set.UnionWith(v2.Set)
			return probe.Witness{Color: v1.Color, Set: v1.Set}
		}
		v3 := q.irPlainEval(o, rng, r3, third)
		return mergeMajority(v3, v1, v2)
	}
	v3 := q.irPlainEval(o, rng, r3, third)
	if v3.Color == v1.Color {
		v1.Set.UnionWith(v3.Set)
		return probe.Witness{Color: v1.Color, Set: v1.Set}
	}
	v2 := q.irContinueEval(o, rng, r2, third, gcIdx, gc)
	return mergeMajority(v2, v1, v3)
}

// irPlainEval evaluates the gate at [start, start+size) by examining its
// children in uniformly random order (each child via a recursive IR
// call), stopping as soon as two children agree.
func (q *HQS) irPlainEval(o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	third := size / 3
	order := rng.Perm(3)
	w0 := q.irEval(o, rng, start+order[0]*third, third)
	w1 := q.irEval(o, rng, start+order[1]*third, third)
	if w0.Color == w1.Color {
		w0.Set.UnionWith(w1.Set)
		return probe.Witness{Color: w0.Color, Set: w0.Set}
	}
	w2 := q.irEval(o, rng, start+order[2]*third, third)
	return mergeMajority(w2, w0, w1)
}

// irContinueEval finishes evaluating the gate at [start, start+size)
// given that its child at knownIdx has already been evaluated to known.
func (q *HQS) irContinueEval(o probe.Oracle, rng *rand.Rand, start, size, knownIdx int, known probe.Witness) probe.Witness {
	third := size / 3
	rest := make([]int, 0, 2)
	for i := 0; i < 3; i++ {
		if i != knownIdx {
			rest = append(rest, i)
		}
	}
	if rng.IntN(2) == 1 {
		rest[0], rest[1] = rest[1], rest[0]
	}
	w1 := q.irEval(o, rng, start+rest[0]*third, third)
	if w1.Color == known.Color {
		w1.Set.UnionWith(known.Set)
		return probe.Witness{Color: w1.Color, Set: w1.Set}
	}
	w2 := q.irEval(o, rng, start+rest[1]*third, third)
	return mergeMajority(w2, known, w1)
}

// mergeMajority combines the deciding child witness with whichever of the
// other two child witnesses shares its color, yielding the gate witness.
func mergeMajority(decider, a, b probe.Witness) probe.Witness {
	match := a
	if b.Color == decider.Color {
		match = b
	}
	set := decider.Set.Clone()
	set.UnionWith(match.Set)
	return probe.Witness{Color: decider.Color, Set: set}
}

// ProbeWitnessRandomized implements probe.RandomizedProber in the spirit
// of R_Probe_Maj: probe elements in uniformly random order until one
// color accumulates a strict weight majority. Randomizing the order
// removes the adversary's leverage over the fixed descending-weight scan
// of ProbeWitness.
func (v *Vote) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	t := v.Threshold()
	n := len(v.weights)
	greens := bitset.New(n)
	reds := bitset.New(n)
	greenWeight, redWeight := 0, 0
	for _, e := range rng.Perm(n) {
		if o.Probe(e) == coloring.Green {
			greens.Add(e)
			greenWeight += v.weights[e]
			if greenWeight >= t {
				return probe.Witness{Color: coloring.Green, Set: greens}
			}
		} else {
			reds.Add(e)
			redWeight += v.weights[e]
			if redWeight >= t {
				return probe.Witness{Color: coloring.Red, Set: reds}
			}
		}
	}
	panic("systems: Vote.ProbeWitnessRandomized exhausted the universe without a witness")
}

// ProbeWitnessRandomized implements probe.RandomizedProber by evaluating
// every gate's children in uniformly random order with short-circuit at
// the gate threshold — the m-ary generalization of Algorithm R_Probe_HQS
// (Fig. 7, due to Boppana [16]; PCR = O(n^{log3(8/3)})). For m = 3 it is
// R_Probe_HQS itself: the HQS overrides this method with the improved
// IR_Probe_HQS and keeps R_Probe_HQS, the baseline IR_Probe_HQS is
// measured against, as hq.RecMaj.ProbeWitnessRandomized.
func (r *RecMaj) ProbeWitnessRandomized(o probe.Oracle, rng *rand.Rand) probe.Witness {
	return r.rProbeAt(o, rng, 0, r.n)
}

func (r *RecMaj) rProbeAt(o probe.Oracle, rng *rand.Rand, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(r.n, []int{start})}
	}
	sub := size / r.m
	t := r.GateThreshold()
	greens, reds := 0, 0
	greenSet := bitset.New(r.n)
	redSet := bitset.New(r.n)
	for _, i := range rng.Perm(r.m) {
		w := r.rProbeAt(o, rng, start+i*sub, sub)
		if w.Color == coloring.Green {
			greens++
			greenSet.UnionWith(w.Set)
			if greens == t {
				return probe.Witness{Color: coloring.Green, Set: greenSet}
			}
		} else {
			reds++
			redSet.UnionWith(w.Set)
			if reds == t {
				return probe.Witness{Color: coloring.Red, Set: redSet}
			}
		}
	}
	panic("systems: RecMaj.ProbeWitnessRandomized: gate undecided after all children")
}
