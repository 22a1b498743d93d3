package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceBest replicates the original full-pair scan over the engine's
// current state, returning the move the unoptimized greedy would take.
func bruteForceBest(g *Greedy) (from, to int, cost float64, ok bool) {
	delta := g.cfg.delta()
	bestCost := math.Inf(1)
	bestFrom, bestTo := -1, -2
	consider := func(f, t int, c float64) {
		if c < bestCost ||
			(c == bestCost && (t < bestTo || (t == bestTo && f < bestFrom))) {
			bestCost, bestFrom, bestTo = c, f, t
		}
	}
	for i := 0; i < g.n; i++ {
		if !g.active[i] {
			continue
		}
		for j := 0; j < g.n; j++ {
			if i == j || !g.active[j] || g.cfg.pinned(j) {
				continue
			}
			d := int(g.distAt(i, j))
			consider(j, i, delta.Eval(g.weight[i], g.weight[j], d, g.L))
		}
		if g.cfg.AllowEmpty && !g.cfg.pinned(i) {
			d := g.size[i]
			w1 := len(g.inEmpty)
			if w1 == 0 {
				w1 = 1
			}
			consider(i, EmptySlot, delta.Eval(w1, g.weight[i], d, g.L)*g.cfg.emptyBias())
		}
	}
	return bestFrom, bestTo, bestCost, bestFrom >= 0
}

// TestCachedSelectionMatchesBruteForce drives full greedy runs over random
// programs under every distance function (and with the empty type and
// pinning mixed in), checking before each step that the cached row selection
// picks exactly the move the original full scan would.
func TestCachedSelectionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(12)
		p := randomClusterProgram(rng, n)
		cfg := Config{Delta: Deltas[trial%len(Deltas)]}
		if trial%4 == 1 {
			cfg.AllowEmpty = true
			cfg.EmptyBias = 0.3
		}
		if trial%5 == 2 {
			cfg.Pinned = make([]bool, n)
			cfg.Pinned[rng.Intn(n)] = true
		}
		g := NewGreedy(p, nil, cfg, nil)
		for step := 0; ; step++ {
			if g.NumActive() < 2 {
				// Both selection strategies stop here by contract.
				if _, ok := g.Step(); ok {
					t.Fatalf("trial %d: Step moved with < 2 active types", trial)
				}
				break
			}
			wantFrom, wantTo, wantCost, wantOK := bruteForceBest(g)
			st, ok := g.Step()
			if ok != wantOK {
				t.Fatalf("trial %d step %d: ok=%v, brute force %v", trial, step, ok, wantOK)
			}
			if !ok {
				break
			}
			if st.From != wantFrom || st.To != wantTo || st.Cost != wantCost {
				t.Fatalf("trial %d step %d: cached picked (%d->%d, %v), brute force (%d->%d, %v)",
					trial, step, st.From, st.To, st.Cost, wantFrom, wantTo, wantCost)
			}
		}
	}
}
