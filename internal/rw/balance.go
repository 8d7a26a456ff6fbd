package rw

import (
	"fmt"
	"math"

	"probequorum/internal/bitset"
	"probequorum/internal/quorum"
)

// DefaultBalanceGap is the convergence gap at which BalanceLoad stops
// early: once the certified interval around the optimal load is this
// tight, more rounds buy nothing visible.
const DefaultBalanceGap = 1e-4

// BalanceLoad approximately minimizes the maximum element load of a
// single-role system by multiplicative-weights play of the load game,
// and — unlike a blind fixed-round iteration — certifies how far it got:
// the returned gap is the width of a proven interval around the optimal
// load L*. The empirical strategy's own maximum load is an upper bound
// on nothing less than what it achieves, and for ANY element
// distribution w the least total weight of a quorum lower-bounds L*
// (the adversary can guarantee that much); the averaged adversary
// weights over the played rounds make that lower bound tight as play
// converges. Play stops at maxRounds or as soon as gap <= gapTarget
// (non-positive gapTarget plays all rounds, reporting the final gap).
//
// The exact LP in Optimize supersedes this solver; it remains the
// paper-named iterative balancer, now honest about its convergence.
func BalanceLoad(sys quorum.System, maxRounds int, gapTarget float64) (*Strategy, float64, error) {
	if maxRounds <= 0 {
		return nil, 0, fmt.Errorf("rw: balance rounds must be positive, got %d", maxRounds)
	}
	qs, err := quorum.EnumerateQuorums(sys)
	if err != nil {
		return nil, 0, err
	}
	if len(qs) == 0 {
		return nil, 0, fmt.Errorf("rw: %s has no quorums", sys.Name())
	}
	n := sys.Size()
	weights := make([]float64, n)
	avg := make([]float64, n) // running sum of normalized adversary weights
	for e := range weights {
		weights[e] = 1
	}
	counts := make([]float64, len(qs))
	quorumWeight := func(w []float64, q *bitset.Set) float64 {
		total := 0.0
		q.ForEach(func(e int) bool {
			total += w[e]
			return true
		})
		return total
	}
	eta := math.Sqrt(math.Log(float64(n)+1) / float64(maxRounds))
	gap := math.Inf(1)
	played := 0
	for t := 0; t < maxRounds; t++ {
		// Accumulate the normalized adversary play for the lower bound.
		wsum := 0.0
		for _, w := range weights {
			wsum += w
		}
		for e, w := range weights {
			avg[e] += w / wsum
		}
		// Best response: the quorum with the least total adversary weight.
		best, bestW := 0, math.Inf(1)
		for i, q := range qs {
			if w := quorumWeight(weights, q); w < bestW {
				best, bestW = i, w
			}
		}
		counts[best]++
		// The adversary boosts the elements the chosen quorum loads.
		qs[best].ForEach(func(e int) bool {
			weights[e] *= 1 + eta
			return true
		})
		played = t + 1
		// Certify convergence periodically; renormalizing on the same
		// stride keeps the weights from overflowing.
		if t%64 == 63 || t == maxRounds-1 {
			maxW := 0.0
			for _, w := range weights {
				if w > maxW {
					maxW = w
				}
			}
			for e := range weights {
				weights[e] /= maxW
			}
			ub := empiricalLoad(n, qs, counts, float64(played))
			lb, avgSum := math.Inf(1), 0.0
			for _, a := range avg {
				avgSum += a
			}
			for _, q := range qs {
				if w := quorumWeight(avg, q) / avgSum; w < lb {
					lb = w
				}
			}
			gap = ub - lb
			if gapTarget > 0 && gap <= gapTarget {
				break
			}
		}
	}
	probs := make([]float64, len(qs))
	for i, c := range counts {
		probs[i] = c / float64(played)
	}
	s := &Strategy{n: n, reads: qs, readP: probs, writes: qs, writeP: probs}
	return s, gap, nil
}

// empiricalLoad is the maximum element load of the play-count strategy.
func empiricalLoad(n int, qs []*bitset.Set, counts []float64, rounds float64) float64 {
	loads := make([]float64, n)
	for i, q := range qs {
		if counts[i] == 0 {
			continue
		}
		p := counts[i] / rounds
		q.ForEach(func(e int) bool {
			loads[e] += p
			return true
		})
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
