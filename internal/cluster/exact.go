package cluster

import (
	"math"

	"schemex/internal/typing"
)

// This file provides an exact reference optimizer for tiny instances. The
// paper proves that finding the best k-typing is NP-hard (even for bipartite
// data), so the exact search is exponential and only used to validate the
// greedy heuristic in tests and to demonstrate its near-optimality.
//
// The objective mirrors the greedy's δ2 accounting on the k-median view of
// §5.1: choose k of the n types as centers and move every other type to a
// center, paying d(center, t)·w_t; the total is the δ2 upper bound on the
// defect of the resulting program. Hypercube projection is ignored here
// (projection only lowers distances, so the exact value is a valid
// upper-bound baseline for comparing against the greedy's δ2 total).

// ExactKMedian returns the minimum total cost Σ d(center(t), t)·w_t over all
// choices of k centers among the types of p, together with one optimal
// center set. It is exponential in n choose k; intended for n ≲ 15.
func ExactKMedian(p *typing.Program, k int) (float64, []int) {
	n := len(p.Types)
	if k >= n {
		return 0, identity(n)
	}
	sets := make([]typing.LinkSet, n)
	weights := make([]int, n)
	for i, t := range p.Types {
		sets[i] = typing.NewLinkSet(t.Links)
		weights[i] = t.Weight
		if weights[i] == 0 {
			weights[i] = 1
		}
	}
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = Manhattan(sets[i], sets[j])
		}
	}

	best := math.Inf(1)
	var bestCenters []int
	centers := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			cost := 0.0
			for t := 0; t < n; t++ {
				min := math.MaxInt32
				for _, c := range centers {
					if dist[c][t] < min {
						min = dist[c][t]
					}
				}
				cost += float64(min * weights[t])
			}
			if cost < best {
				best = cost
				bestCenters = append([]int(nil), centers...)
			}
			return
		}
		for c := start; c <= n-(k-depth); c++ {
			centers[depth] = c
			rec(c+1, depth+1)
		}
	}
	rec(0, 0)
	return best, bestCenters
}

// GreedyKMedianCost runs the greedy engine down to k types under δ2 and
// returns its δ2 total, for comparison against ExactKMedian.
func GreedyKMedianCost(p *typing.Program, k int) float64 {
	g := NewGreedy(p.Clone(), nil, Config{Delta: Delta2}, nil)
	g.RunTo(k)
	return float64(g.DefectEstimate())
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
