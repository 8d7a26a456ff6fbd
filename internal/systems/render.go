package systems

import (
	"fmt"
	"strings"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// This file implements the quorum.Renderer capability on every
// construction, in the style of the paper's Figs. 1-3: elements are
// labeled 1-based, and elements of the highlighted set (a quorum, witness
// or arbitrary subset; nil for none) are bracketed as [v].

var (
	_ quorum.Renderer = (*Maj)(nil)
	_ quorum.Renderer = (*Wheel)(nil)
	_ quorum.Renderer = (*CW)(nil)
	_ quorum.Renderer = (*Tree)(nil)
	_ quorum.Renderer = (*HQS)(nil)
	_ quorum.Renderer = (*Vote)(nil)
	_ quorum.Renderer = (*RecMaj)(nil)
)

// renderLabel renders an element 1-based, bracketed when it belongs to
// the highlighted set.
func renderLabel(e int, width int, highlight *bitset.Set) string {
	s := fmt.Sprintf("%*d", width, e+1)
	if highlight != nil && highlight.Contains(e) {
		return "[" + s + "]"
	}
	return " " + s + " "
}

func digitsOf(v int) int { return len(fmt.Sprintf("%d", v)) }

// RenderASCII implements quorum.Renderer: the flat universe with the
// quorum threshold spelled out.
func (m *Maj) RenderASCII(highlight *bitset.Set) string {
	digits := digitsOf(m.n)
	var b strings.Builder
	fmt.Fprintf(&b, "quorum: any %d of %d\n", m.Threshold(), m.n)
	var row strings.Builder
	for e := 0; e < m.n; e++ {
		row.WriteString(renderLabel(e, digits, highlight))
	}
	fmt.Fprintf(&b, "%s\n", strings.TrimRight(row.String(), " "))
	return b.String()
}

// RenderASCII implements quorum.Renderer: the hub above its rim.
func (w *Wheel) RenderASCII(highlight *bitset.Set) string {
	digits := digitsOf(w.n)
	var b strings.Builder
	fmt.Fprintf(&b, "hub: %s\n", strings.TrimRight(renderLabel(0, digits, highlight), " "))
	var rim strings.Builder
	for e := 1; e < w.n; e++ {
		rim.WriteString(renderLabel(e, digits, highlight))
	}
	fmt.Fprintf(&b, "rim: %s\n", strings.TrimRight(rim.String(), " "))
	return b.String()
}

// RenderASCII implements quorum.Renderer: the wall row by row, each row
// centered (Fig. 1).
func (c *CW) RenderASCII(highlight *bitset.Set) string {
	digits := digitsOf(c.n)
	cell := digits + 2
	maxWidth := c.MaxWidth() * cell
	var b strings.Builder
	for i := 0; i < c.Rows(); i++ {
		lo, hi := c.RowRange(i)
		var row strings.Builder
		for e := lo; e < hi; e++ {
			row.WriteString(renderLabel(e, digits, highlight))
		}
		pad := (maxWidth - row.Len()) / 2
		fmt.Fprintf(&b, "row %d: %s%s\n", i+1, strings.Repeat(" ", pad), row.String())
	}
	return b.String()
}

// RenderASCII implements quorum.Renderer: the binary tree sideways, root
// at the left margin, right subtree above the root's line and the left
// subtree below it (Fig. 2).
func (t *Tree) RenderASCII(highlight *bitset.Set) string {
	digits := digitsOf(t.n)
	var b strings.Builder
	var walk func(v, depth int)
	walk = func(v, depth int) {
		if !t.IsLeaf(v) {
			walk(t.Right(v), depth+1)
		}
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("    ", depth),
			strings.TrimSpace(renderLabel(v, digits, highlight)))
		if !t.IsLeaf(v) {
			walk(t.Left(v), depth+1)
		}
	}
	walk(t.Root(), 0)
	return b.String()
}

// RenderASCII implements quorum.Renderer: the m-ary majority gate tree
// level by level, internal gates as "MAJ" nodes above the leaf row; for
// m = 3 this is the HQS drawing of Fig. 3.
func (r *RecMaj) RenderASCII(highlight *bitset.Set) string {
	return gateTreeASCII(r.n, r.h, r.m, highlight)
}

// gateTreeASCII draws a complete arity-ary gate tree of the given height
// over n leaves: one centered "MAJ" per gate on each internal level, then
// the leaf row.
func gateTreeASCII(n, height, arity int, highlight *bitset.Set) string {
	digits := digitsOf(n)
	cell := digits + 2
	var b strings.Builder
	for d := 0; d < height; d++ {
		gates := 1
		for i := 0; i < d; i++ {
			gates *= arity
		}
		span := n / gates * cell
		var row strings.Builder
		for g := 0; g < gates; g++ {
			cellStr := "MAJ"
			pad := span - len(cellStr)
			row.WriteString(strings.Repeat(" ", pad/2) + cellStr + strings.Repeat(" ", pad-pad/2))
		}
		fmt.Fprintf(&b, "%s\n", strings.TrimRight(row.String(), " "))
	}
	var leaves strings.Builder
	for e := 0; e < n; e++ {
		leaves.WriteString(renderLabel(e, digits, highlight))
	}
	fmt.Fprintf(&b, "%s\n", strings.TrimRight(leaves.String(), " "))
	return b.String()
}

// RenderASCII implements quorum.Renderer: the elements above their
// weights, with the weight threshold spelled out.
func (v *Vote) RenderASCII(highlight *bitset.Set) string {
	n := len(v.weights)
	width := digitsOf(n)
	for _, w := range v.weights {
		if d := digitsOf(w); d > width {
			width = d
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quorum: weight >= %d of %d\n", v.Threshold(), v.total)
	var elems, weights strings.Builder
	for e := 0; e < n; e++ {
		elems.WriteString(renderLabel(e, width, highlight))
		weights.WriteString(fmt.Sprintf(" %*d ", width, v.weights[e]))
	}
	fmt.Fprintf(&b, "element: %s\n", strings.TrimRight(elems.String(), " "))
	fmt.Fprintf(&b, "weight:  %s\n", strings.TrimRight(weights.String(), " "))
	return b.String()
}
