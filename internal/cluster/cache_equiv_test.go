package cluster

import (
	"math"
	"math/rand"
	"testing"

	"schemex/internal/bitset"
	"schemex/internal/typing"
)

// bruteForceBest replicates the original full-pair scan over the engine's
// current definitions, returning the move the unoptimized greedy would take.
// Distances and sizes are counted from the definitions themselves, never
// read from the matrix or caches the engine maintains, so a wrong
// incremental recount cannot fool both sides.
func bruteForceBest(g *Greedy) (from, to int, cost float64, ok bool) {
	delta := g.cfg.delta()
	bestCost := math.Inf(1)
	bestFrom, bestTo := -1, noMove
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
			d := g.set[i].XorCount(g.set[j])
			consider(j, i, delta.Eval(g.weight[i], g.weight[j], d, g.L))
		}
		if g.cfg.AllowEmpty && !g.cfg.pinned(i) {
			d := g.set[i].Count()
			w1 := g.inEmpty
			if w1 == 0 {
				w1 = 1
			}
			consider(i, EmptySlot, delta.Eval(w1, g.weight[i], d, g.L)*g.cfg.emptyBias())
		}
	}
	return bestFrom, bestTo, bestCost, bestFrom >= 0
}

// checkCells asserts that every matrix cell between two active slots equals
// the Manhattan distance of their definitions, and every cached size the
// popcount of its definition. Bits stand for links, so it first asserts the
// link table: each link's holder set is exactly the active slots whose
// definitions hold it, and a held link's key maps back to it, targets an
// active slot and sits on that slot's list. Two held links can then never
// share a key, and a popcount over bits is the distance over links.
func checkCells(t *testing.T, g *Greedy, trial, step int) {
	t.Helper()
	for p := 0; p < g.L; p++ {
		held := bitset.New(g.n)
		for c := 0; c < g.n; c++ {
			if g.active[c] && g.set[c].Test(p) {
				held.Set(c)
			}
		}
		if !g.holders[p].Equal(held) {
			t.Fatalf("trial %d step %d: link %d has holder index %v, held by %v", trial, step, p, g.holders[p], held)
		}
		if held.Count() == 0 {
			continue
		}
		key := g.links[p]
		if id, ok := g.linkID[key]; !ok || int(id) != p {
			t.Fatalf("trial %d step %d: held link %d has key %v, which maps to %d (%v)", trial, step, p, key, id, ok)
		}
		if key.target == typing.AtomicTarget {
			continue
		}
		if !g.active[key.target] {
			t.Fatalf("trial %d step %d: held link %d targets retired slot %d", trial, step, p, key.target)
		}
		listed := false
		for q := g.into[key.target]; q >= 0 && !listed; q = g.next[q] {
			listed = int(q) == p
		}
		if !listed {
			t.Fatalf("trial %d step %d: held link %d is missing from slot %d's list", trial, step, p, key.target)
		}
	}
	for i := 0; i < g.n; i++ {
		if !g.active[i] {
			continue
		}
		if got, want := g.size[i], g.set[i].Count(); got != want {
			t.Fatalf("trial %d step %d: size[%d] = %d, definition has %d links", trial, step, i, got, want)
		}
		for j := i + 1; j < g.n; j++ {
			if !g.active[j] {
				continue
			}
			if got, want := int(g.distAt(i, j)), g.set[i].XorCount(g.set[j]); got != want {
				t.Fatalf("trial %d step %d: cell (%d, %d) = %d, definitions differ in %d links",
					trial, step, i, j, got, want)
			}
		}
	}
}

// denseClusterProgram builds a random program whose types carry many links
// to class targets, so each merge's projection rewrites several definitions
// at once.
func denseClusterProgram(rng *rand.Rand, n int) *typing.Program {
	labels := []string{"a", "b", "c"}
	p := typing.NewProgram()
	for i := 0; i < n; i++ {
		ty := &typing.Type{Name: "t" + itoa(i), Weight: 1 + rng.Intn(30)}
		for j := 0; j < 4+rng.Intn(9); j++ {
			l := typing.TypedLink{Label: labels[rng.Intn(len(labels))], Dir: typing.Out, Target: rng.Intn(n)}
			switch rng.Intn(8) {
			case 0:
				l.Target = typing.AtomicTarget
			case 1, 2, 3:
				l.Dir = typing.In
			}
			ty.Links = append(ty.Links, l)
		}
		p.Add(ty)
	}
	return p
}

// TestCachedSelectionMatchesBruteForce drives full greedy runs over random
// programs under every distance function (and with the empty type and
// pinning mixed in), checking before each step that the cached row selection
// picks exactly the move the original full scan would, and after each step
// that every maintained matrix cell and size still matches the definitions.
// The dense trials (up to ~60 types, many class targets, a cheap empty type)
// make merges touch several slots at once and mix in empty moves; they run
// at one and four workers.
func TestCachedSelectionMatchesBruteForce(t *testing.T) {
	// The five paper functions, plus one whose cost falls as the mover's
	// weight grows and is not symmetric, so a merge lowers the costs of
	// the survivor's own moves.
	deltas := append(Deltas[:len(Deltas):len(Deltas)], Delta{"mover-decreasing", func(w1, w2, d, L int) float64 {
		return float64(d) * float64(w1) / float64(w2)
	}})
	rng := rand.New(rand.NewSource(41))
	empties, multiTouch := 0, 0 // dense-trial empty moves and multi-slot merges
	for trial := 0; trial < 36; trial++ {
		dense := trial >= 20
		var p *typing.Program
		var n int
		if dense {
			n = 30 + rng.Intn(31)
			p = denseClusterProgram(rng, n)
		} else {
			n = 5 + rng.Intn(12)
			p = randomClusterProgram(rng, n)
		}
		cfg := Config{Delta: deltas[trial%len(deltas)], Parallelism: 1}
		if trial%4 == 1 || (dense && trial%2 == 0) {
			cfg.AllowEmpty = true
			cfg.EmptyBias = 0.3
		}
		if trial%5 == 2 {
			cfg.Pinned = make([]bool, n)
			cfg.Pinned[rng.Intn(n)] = true
		}
		if dense && trial%3 != 0 {
			cfg.Parallelism = 4
		}
		g := NewGreedy(p, nil, cfg, nil)
		checkCells(t, g, trial, -1)
		for step := 0; ; step++ {
			if g.NumActive() < 2 {
				// Both selection strategies stop here by contract.
				if _, ok := g.Step(); ok {
					t.Fatalf("trial %d: Step moved with < 2 active types", trial)
				}
				break
			}
			wantFrom, wantTo, wantCost, wantOK := bruteForceBest(g)
			before := make([]*bitset.Set, n)
			for k := range before {
				before[k] = g.set[k].Clone()
			}
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
			checkCells(t, g, trial, step)
			if !dense {
				continue
			}
			if st.To == EmptySlot {
				empties++
			}
			changed := 0
			for k := range before {
				if g.active[k] && !g.set[k].Equal(before[k]) {
					changed++
				}
			}
			if changed >= 2 && st.To != EmptySlot {
				multiTouch++
			}
		}
	}
	if empties == 0 || multiTouch == 0 {
		t.Fatalf("dense trials made %d empty moves and %d merges changing >= 2 definitions; want both > 0",
			empties, multiTouch)
	}
	t.Logf("dense trials: %d empty moves, %d merges changing >= 2 definitions", empties, multiTouch)
}
