// Package render draws probe strategy trees and colorings as ASCII art:
// Fig. 4 of the paper (the Maj3 decision tree) and its relatives. The
// layout drawings of Figs. 1-3 (Triang with a shaded quorum, Tree, HQS)
// are each construction's own quorum.Renderer capability, RenderASCII
// (internal/systems/render.go). Elements are labeled 1-based to match
// the paper.
package render

import (
	"fmt"
	"strings"

	"probequorum/internal/coloring"
	"probequorum/internal/strategy"
)

// StrategyTree renders a probe strategy tree (Fig. 4): internal nodes show
// the probed element (1-based), branches are marked g/r, and leaves carry
// "+" for a green witness and "-" for a red one, matching the paper's
// notation.
func StrategyTree(root *strategy.Node) string {
	var b strings.Builder
	var walk func(nd *strategy.Node, prefix, edge string)
	walk = func(nd *strategy.Node, prefix, edge string) {
		if nd.IsLeaf() {
			mark := "+"
			if nd.Leaf == coloring.Red {
				mark = "-"
			}
			fmt.Fprintf(&b, "%s%s%s\n", prefix, edge, mark)
			return
		}
		fmt.Fprintf(&b, "%s%sx%d\n", prefix, edge, nd.Element+1)
		childPrefix := prefix + strings.Repeat(" ", len(edge))
		walk(nd.OnGreen, childPrefix, "g: ")
		walk(nd.OnRed, childPrefix, "r: ")
	}
	walk(root, "", "")
	return b.String()
}

// Coloring renders a coloring as one character per element, G for green
// and R for red, split into rows of the given width (0 for a single row).
func Coloring(col *coloring.Coloring, rowWidth int) string {
	s := col.String()
	if rowWidth <= 0 || rowWidth >= len(s) {
		return s
	}
	var b strings.Builder
	for start := 0; start < len(s); start += rowWidth {
		end := start + rowWidth
		if end > len(s) {
			end = len(s)
		}
		fmt.Fprintln(&b, s[start:end])
	}
	return b.String()
}
