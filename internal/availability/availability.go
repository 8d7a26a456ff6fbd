// Package availability computes F_p(S), the probability that a quorum
// system contains no live quorum when every element independently fails
// with probability p (Peleg & Wool [13], used throughout §3 of the paper).
//
// Closed forms are provided per construction — binomial tail for Maj, a
// bottom-up row DP for crumbling walls, and the gate recursions for Tree
// and HQS — alongside brute-force enumeration for cross-validation. The
// Monte Carlo estimate is the evaluator's deadline fallback.
package availability

import (
	"fmt"
	"math"
	"math/bits"

	"probequorum/internal/coloring"
	"probequorum/internal/quorum"
)

// Maj returns F_p(Maj) over n (odd) elements: the probability that fewer
// than (n+1)/2 elements are live, i.e. the lower binomial tail
// sum_{i<= (n-1)/2} C(n,i) q^i p^{n-i}.
func Maj(n int, p float64) float64 {
	checkP(p)
	if n <= 0 || n%2 == 0 {
		panic(fmt.Sprintf("availability: Maj requires odd positive n, got %d", n))
	}
	q := 1 - p
	total := 0.0
	for i := 0; i <= (n-1)/2; i++ {
		total += math.Exp(logChoose(n, i) + float64(i)*safeLog(q) + float64(n-i)*safeLog(p))
	}
	return clampProb(total)
}

// CW returns F_p for the crumbling wall with the given row widths. A green
// quorum exists iff some row is fully green with every row below it
// containing a green element; scanning rows bottom-up, the DP tracks the
// probability that a quorum has been found and the probability that no
// quorum was found but every row so far has a green element.
func CW(widths []int, p float64) float64 {
	checkP(p)
	if len(widths) == 0 {
		panic("availability: CW requires at least one row")
	}
	q := 1 - p
	found := 0.0  // P(quorum among processed suffix rows)
	allHit := 1.0 // P(no quorum yet, every processed row has a green element)
	for i := len(widths) - 1; i >= 0; i-- {
		w := float64(widths[i])
		pg := math.Pow(q, w)     // row fully green
		ph := 1 - math.Pow(p, w) // row has at least one green element
		found += allHit * pg
		allHit *= ph - pg
	}
	return clampProb(1 - found)
}

// Wheel returns F_p for the wheel system over n elements, using the
// closed form: a live quorum exists iff the hub is live with some live rim
// element, or the whole rim is live.
func Wheel(n int, p float64) float64 {
	checkP(p)
	if n < 3 {
		panic(fmt.Sprintf("availability: Wheel requires n >= 3, got %d", n))
	}
	q := 1 - p
	rim := float64(n - 1)
	avail := q*(1-math.Pow(p, rim)) + p*math.Pow(q, rim)
	return clampProb(1 - avail)
}

// Tree returns F_p for the tree system of height h via the recursion
// a(0) = q, a(i) = q(2a - a^2) + p a^2 over the subtree live-probability a.
func Tree(h int, p float64) float64 {
	checkP(p)
	if h < 0 {
		panic(fmt.Sprintf("availability: negative tree height %d", h))
	}
	q := 1 - p
	a := q
	for i := 1; i <= h; i++ {
		a = q*(2*a-a*a) + p*a*a
	}
	return clampProb(1 - a)
}

// HQS returns F_p for the hierarchical quorum system of height h via the
// 2-of-3 gate recursion b(0) = q, b(i) = 3b^2 - 2b^3.
func HQS(h int, p float64) float64 {
	checkP(p)
	if h < 0 {
		panic(fmt.Sprintf("availability: negative HQS height %d", h))
	}
	b := 1 - p
	for i := 1; i <= h; i++ {
		b = 3*b*b - 2*b*b*b
	}
	return clampProb(1 - b)
}

// RecMaj returns F_p for the recursive m-ary majority system of height h
// (m odd) via the gate recursion b' = P(Binomial(m, b) >= (m+1)/2).
// RecMaj(3, h, p) coincides with HQS(h, p).
func RecMaj(m, h int, p float64) float64 {
	checkP(p)
	if m < 3 || m%2 == 0 {
		panic(fmt.Sprintf("availability: RecMaj requires odd arity >= 3, got %d", m))
	}
	if h < 0 {
		panic(fmt.Sprintf("availability: negative RecMaj height %d", h))
	}
	t := (m + 1) / 2
	b := 1 - p
	for i := 1; i <= h; i++ {
		next := 0.0
		for j := t; j <= m; j++ {
			next += math.Exp(logChoose(m, j) + float64(j)*safeLog(b) + float64(m-j)*safeLog(1-b))
		}
		b = clampProb(next)
	}
	return clampProb(1 - b)
}

// Vote returns F_p for the weighted-voting system with the given weights
// (odd total): the probability that the live weight stays below the
// majority threshold, computed by an O(n*W) knapsack-style DP over the
// distribution of live weight.
func Vote(weights []int, p float64) float64 {
	checkP(p)
	if len(weights) == 0 {
		panic("availability: Vote requires at least one element")
	}
	total := 0
	for _, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("availability: Vote weight must be positive, got %d", w))
		}
		total += w
	}
	if total%2 == 0 {
		panic(fmt.Sprintf("availability: Vote requires odd total weight, got %d", total))
	}
	q := 1 - p
	// dist[w] = P(live weight == w) over the processed prefix.
	dist := make([]float64, total+1)
	dist[0] = 1
	maxW := 0
	for _, w := range weights {
		for v := maxW; v >= 0; v-- {
			if dist[v] == 0 {
				continue
			}
			dist[v+w] += dist[v] * q
			dist[v] *= p
		}
		maxW += w
	}
	threshold := (total + 1) / 2
	fail := 0.0
	for v := 0; v < threshold; v++ {
		fail += dist[v]
	}
	return clampProb(fail)
}

// BruteForce returns F_p(S) by exhaustive enumeration of all 2^n failure
// patterns. Wide-mask systems (all built-in constructions) are enumerated
// as one-word masks — no per-coloring bitsets — with the pattern
// probability looked up by red count; other systems fall back to coloring
// enumeration. It panics for n > 24.
func BruteForce(sys quorum.System, p float64) float64 {
	checkP(p)
	n := sys.Size()
	if n > 24 {
		panic(fmt.Sprintf("availability: BruteForce limited to n <= 24, got %d", n))
	}
	total := 0.0
	if ws, ok := sys.(quorum.WideMaskSystem); ok {
		probOfReds := redCountProbs(n, p)
		full := quorum.FullMask(n)
		greens := make([]uint64, 1)
		for reds := uint64(0); reds <= full; reds++ {
			greens[0] = full &^ reds
			if !ws.ContainsQuorumWords(greens) {
				total += probOfReds[bits.OnesCount64(reds)]
			}
		}
		return clampProb(total)
	}
	coloring.All(n, func(col *coloring.Coloring) bool {
		if !sys.ContainsQuorum(col.GreenSet()) {
			total += col.Probability(p)
		}
		return true
	})
	return clampProb(total)
}

// redCountProbs returns the IID(p) probability of each fixed coloring with
// r red elements, for r = 0..n, multiplied in the same order as
// coloring.Probability so mask enumeration reproduces its sums exactly.
func redCountProbs(n int, p float64) []float64 {
	out := make([]float64, n+1)
	for r := 0; r <= n; r++ {
		prob := 1.0
		for i := 0; i < r; i++ {
			prob *= p
		}
		for i := 0; i < n-r; i++ {
			prob *= 1 - p
		}
		out[r] = prob
	}
	return out
}

// Of dispatches through the quorum.ExactAvailability capability — every
// built-in construction implements it with its closed form — falling
// back to brute-force enumeration for systems without one (small
// universes only).
func Of(sys quorum.System, p float64) float64 {
	if ea, ok := sys.(quorum.ExactAvailability); ok {
		return ea.AvailabilityIID(p)
	}
	return BruteForce(sys, p)
}

func checkP(p float64) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("availability: probability %v out of [0,1]", p))
	}
}

func clampProb(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func safeLog(x float64) float64 {
	if x == 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}

// logChoose returns log C(n, k).
func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
