package systems

import (
	"sort"

	"probequorum/internal/bitset"
	"probequorum/internal/coloring"
	"probequorum/internal/probe"
)

// This file implements the probe.Prober capability — the paper's
// deterministic probabilistic-model strategies — on every construction,
// so the façade dispatches on the interface instead of on concrete
// types. probingwords.go holds the word-buffer form of each.

var (
	_ probe.Prober = (*Maj)(nil)
	_ probe.Prober = (*Wheel)(nil)
	_ probe.Prober = (*CW)(nil)
	_ probe.Prober = (*Tree)(nil)
	_ probe.Prober = (*HQS)(nil)
	_ probe.Prober = (*Vote)(nil)
	_ probe.Prober = (*RecMaj)(nil)
)

// ProbeWitness implements probe.Prober with the paper's Probe_Maj (§3.1):
// probe elements in index order until one color reaches the quorum
// threshold. Under IID failures every fixed order is optimal because the
// unprobed elements remain exchangeable.
func (m *Maj) ProbeWitness(o probe.Oracle) probe.Witness {
	t := m.Threshold()
	greens := bitset.New(m.n)
	reds := bitset.New(m.n)
	greenCount, redCount := 0, 0
	for e := 0; e < m.n; e++ {
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
	// Unreachable for odd n: one color must reach the threshold.
	panic("systems: Maj.ProbeWitness exhausted the universe without a witness")
}

// ProbeWitness implements probe.Prober with the hub-first strategy: probe
// the hub, then scan the rim for an element of the hub's color. A hub
// colored c plus a rim element colored c is a monochromatic {hub, r}
// quorum; if the whole rim disagrees with the hub, the rim itself is a
// monochromatic quorum of the opposite color. Under IID(p) the scan is a
// truncated geometric, so the expected probe count is O(1) for p bounded
// away from 0 and 1 — the paper's intuition for the wheel's cheapness.
func (w *Wheel) ProbeWitness(o probe.Oracle) probe.Witness {
	hubColor := o.Probe(0)
	for r := 1; r < w.n; r++ {
		if o.Probe(r) == hubColor {
			return probe.Witness{Color: hubColor, Set: bitset.FromSlice(w.n, []int{0, r})}
		}
	}
	// The entire rim disagrees with the hub: the rim is the witness.
	rim := bitset.New(w.n)
	rim.Fill()
	rim.Remove(0)
	return probe.Witness{Color: hubColor.Opposite(), Set: rim}
}

// ProbeWitness implements probe.Prober with Algorithm Probe_CW (Fig. 5):
// scan rows top to bottom, maintaining a monochromatic witness set W and
// a mode equal to its color. In each row, probe until an element of the
// current mode is found; if the row is exhausted, the row itself is
// monochromatic of the opposite color, so it replaces W and the mode
// flips.
func (c *CW) ProbeWitness(o probe.Oracle) probe.Witness {
	start, _ := c.RowRange(0)
	w := bitset.New(c.n)
	w.Add(start)
	mode := o.Probe(start)
	for i := 1; i < c.Rows(); i++ {
		lo, hi := c.RowRange(i)
		found := false
		for e := lo; e < hi; e++ {
			if o.Probe(e) == mode {
				w.Add(e)
				found = true
				break
			}
		}
		if !found {
			w.Clear()
			for e := lo; e < hi; e++ {
				w.Add(e)
			}
			mode = mode.Opposite()
		}
	}
	return probe.Witness{Color: mode, Set: w}
}

// ProbeWitness implements probe.Prober with Algorithm Probe_Tree (§3.3):
// probe the root, recursively find a witness for the right subtree and,
// only if its color differs from the root's, for the left subtree. The
// three colors cannot be pairwise distinct, so a monochromatic
// subtree/root combination always emerges.
func (t *Tree) ProbeWitness(o probe.Oracle) probe.Witness {
	return t.probeAt(o, t.Root())
}

func (t *Tree) probeAt(o probe.Oracle, v int) probe.Witness {
	rootColor := o.Probe(v)
	if t.IsLeaf(v) {
		return probe.Witness{Color: rootColor, Set: bitset.FromSlice(t.n, []int{v})}
	}
	wr := t.probeAt(o, t.Right(v))
	if wr.Color == rootColor {
		wr.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: wr.Set}
	}
	wl := t.probeAt(o, t.Left(v))
	if wl.Color == rootColor {
		wl.Set.Add(v)
		return probe.Witness{Color: rootColor, Set: wl.Set}
	}
	// wl and wr disagree with the root, hence agree with each other.
	wl.Set.UnionWith(wr.Set)
	return probe.Witness{Color: wl.Color, Set: wl.Set}
}

// ProbeWitness implements probe.Prober by probing elements in order of
// decreasing weight until one color accumulates a strict majority of the
// total weight. Heavy elements resolve the most weight per probe, which
// makes the descending order the natural greedy strategy in the
// probabilistic model (it is exactly Probe_Maj on unit weights).
func (v *Vote) ProbeWitness(o probe.Oracle) probe.Witness {
	order := v.probeOrder()
	t := v.Threshold()
	greens := bitset.New(v.Size())
	reds := bitset.New(v.Size())
	greenWeight, redWeight := 0, 0
	for _, e := range order {
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
	panic("systems: Vote.ProbeWitness exhausted the universe without a witness")
}

// probeOrder returns the deterministic probe order of ProbeWitness:
// descending weight, ties broken by index. The order is computed once and
// cached; callers must not mutate it.
func (v *Vote) probeOrder() []int {
	v.orderOnce.Do(func() {
		order := make([]int, len(v.weights))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return v.weights[order[a]] > v.weights[order[b]] })
		v.order = order
	})
	return v.order
}

// ProbeWitness implements probe.Prober by short-circuit gate evaluation:
// children are evaluated left to right and a gate stops as soon as one
// color reaches the gate threshold (m+1)/2. For m = 3 this is Probe_HQS
// (§3.4): evaluate the first two children and the third only when they
// disagree. That strategy is h-good and, by Theorem 3.9, optimal in the
// probabilistic model at p = 1/2; the HQS runs it through its embedded
// RecMaj.
func (r *RecMaj) ProbeWitness(o probe.Oracle) probe.Witness {
	return r.probeAt(o, 0, r.n)
}

func (r *RecMaj) probeAt(o probe.Oracle, start, size int) probe.Witness {
	if size == 1 {
		return probe.Witness{Color: o.Probe(start), Set: bitset.FromSlice(r.n, []int{start})}
	}
	sub := size / r.m
	t := r.GateThreshold()
	greens, reds := 0, 0
	greenSet := bitset.New(r.n)
	redSet := bitset.New(r.n)
	for i := 0; i < r.m; i++ {
		w := r.probeAt(o, start+i*sub, sub)
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
	panic("systems: RecMaj.ProbeWitness: gate undecided after all children (invalid arity)")
}
