package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"schemex/internal/typing"
)

// permuteProgram builds a child program whose slot i is parent slot perm[i],
// with every class target rewritten into child space. The child provably
// mirrors the parent under the mapping m[i] = perm[i].
func permuteProgram(parent *typing.Program, perm []int) *typing.Program {
	inv := make([]int, len(perm))
	for ci, pi := range perm {
		inv[pi] = ci
	}
	child := typing.NewProgram()
	for _, pi := range perm {
		t := parent.Types[pi].Clone()
		for li, l := range t.Links {
			if l.Target != typing.AtomicTarget {
				t.Links[li].Target = inv[l.Target]
			}
		}
		child.Add(t)
	}
	return child
}

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// TestWarmSeedPermutedMatchesCold: a warm-seeded matrix over a slot-permuted
// (and partially dirtied) child program is cell-for-cell equal to the
// cold-seeded one, and the whole merge run stays bit-identical, at any
// Parallelism.
func TestWarmSeedPermutedMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := 8 + rng.Intn(25)
		parent := randomClusterProgram(rng, n)
		cfg := Config{Parallelism: 1}
		if trial%2 == 1 {
			cfg.AllowEmpty = true
		}
		st := NewGreedy(parent.Clone(), nil, cfg, nil).State()
		if st == nil {
			t.Fatal("State() before any Step returned nil")
		}

		perm := rng.Perm(n)
		child := permuteProgram(parent, perm)
		proposal := append([]int(nil), perm...)
		nDirty := 0
		if trial >= 2 {
			// Dirty a few slots: change their definitions and disown their
			// proposals, as a membership diff would.
			nDirty = 1 + rng.Intn(3)
			for d := 0; d < nDirty; d++ {
				i := rng.Intn(n)
				child.Types[i].Links = append(child.Types[i].Links, typing.TypedLink{
					Dir: typing.Out, Label: "zz", Target: typing.AtomicTarget,
				})
				proposal[i] = DirtySlot
			}
		}
		m, clean := MatchDefinitions(child, st, proposal)
		if nDirty == 0 && clean != n {
			t.Fatalf("trial %d: pure permutation matched %d/%d slots", trial, clean, n)
		}

		for _, workers := range []int{1, 0, 3} {
			c := cfg
			c.Parallelism = workers
			warm := NewGreedy(child.Clone(), nil, c, &Warm{State: st, Map: m})
			cold := NewGreedy(child.Clone(), nil, c, nil)
			if !reflect.DeepEqual(warm.dist, cold.dist) {
				t.Fatalf("trial %d (par=%d): warm-seeded matrix differs from cold", trial, workers)
			}
			copied, counted := warm.SeedStats()
			if nDirty == 0 && counted != 0 {
				t.Fatalf("trial %d: fully clean warm start still popcounted %d cells", trial, counted)
			}
			if copied+counted != n*(n-1)/2 {
				t.Fatalf("trial %d: seed stats %d+%d don't cover the triangle", trial, copied, counted)
			}
			warm.RunTo(2)
			cold.RunTo(2)
			if !reflect.DeepEqual(warm.Trace(), cold.Trace()) {
				t.Fatalf("trial %d (par=%d): warm trace diverges from cold", trial, workers)
			}
			wp, wm := warm.Program()
			cp, cm := cold.Program()
			if wp.String() != cp.String() || !reflect.DeepEqual(wm, cm) {
				t.Fatalf("trial %d (par=%d): warm program/mapping diverges", trial, workers)
			}
		}
	}
}

// TestMatchDefinitionsVetting exercises the demotion rules on a hand-built
// program: injectivity, range, definition mismatch, and dirty-target
// propagation.
func TestMatchDefinitionsVetting(t *testing.T) {
	p := typing.NewProgram()
	p.Add(&typing.Type{Name: "t0", Weight: 1, Links: []typing.TypedLink{
		{Dir: typing.Out, Label: "a", Target: typing.AtomicTarget},
	}})
	p.Add(&typing.Type{Name: "t1", Weight: 1, Links: []typing.TypedLink{
		{Dir: typing.Out, Label: "b", Target: 0},
	}})
	p.Add(&typing.Type{Name: "t2", Weight: 1, Links: []typing.TypedLink{
		{Dir: typing.Out, Label: "a", Target: 1},
	}})
	st := NewGreedy(p.Clone(), nil, Config{Parallelism: 1}, nil).State()

	if m, clean := MatchDefinitions(p, st, []int{0, 1, 2}); clean != 3 {
		t.Fatalf("identity proposal: clean = %d (%v), want 3", clean, m)
	}
	// Two slots claiming parent 0: the second is demoted, and slot 2 —
	// whose definition targets slot 1 — is dragged down with it.
	if m, clean := MatchDefinitions(p, st, []int{0, 0, 2}); clean != 1 || m[1] != DirtySlot || m[2] != DirtySlot {
		t.Fatalf("duplicate claim: m = %v clean = %d, want [0 -1 -1] 1", m, clean)
	}
	// Out-of-range proposals are demoted, not chased.
	if m, clean := MatchDefinitions(p, st, []int{0, 1, 7}); m[2] != DirtySlot || clean != 2 {
		t.Fatalf("out of range: m = %v clean = %d, want [0 1 -1] 2", m, clean)
	}
	// A definition mismatch is caught even when members would have agreed.
	q := p.Clone()
	q.Types[2].Links[0].Label = "c"
	if m, clean := MatchDefinitions(q, st, []int{0, 1, 2}); m[2] != DirtySlot || clean != 2 {
		t.Fatalf("leaf definition mismatch: m = %v clean = %d, want [0 1 -1] 2", m, clean)
	}
	// Dirtying a slot other slots target cascades: nothing downstream of it
	// can be proven either.
	q = p.Clone()
	q.Types[0].Links[0].Label = "c"
	if m, clean := MatchDefinitions(q, st, []int{0, 1, 2}); m[0] != DirtySlot || clean != 0 {
		t.Fatalf("root definition mismatch: m = %v clean = %d, want all dirty", m, clean)
	}
	// A cross-slot permutation is accepted when targets are remapped: child
	// {0<->1} with slot targets rewritten accordingly.
	perm := permuteProgram(p, []int{1, 0, 2})
	if m, clean := MatchDefinitions(perm, st, []int{1, 0, 2}); clean != 3 {
		t.Fatalf("permuted proposal: clean = %d (%v), want 3", clean, m)
	}
}

// TestStateCaptureWindow: State is only available on the seeded, pre-merge
// engine; after a Step (or a seeding cancellation) it reports nil.
func TestStateCaptureWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomClusterProgram(rng, 12)
	g := NewGreedy(p.Clone(), nil, Config{Parallelism: 1}, nil)
	if g.State() == nil {
		t.Fatal("pre-merge State is nil")
	}
	if _, ok := g.Step(); !ok {
		t.Fatal("no step possible")
	}
	if g.State() != nil {
		t.Fatal("State after a Step must be nil (matrix already mutated)")
	}
}

// TestWarmIdentityAliasesMatrix pins the copy-on-write contract of clean
// reuse: an identity warm start aliases the parent triangle outright — no
// copy, no recount — re-capturing costs zero allocations, and the first
// mutating move clones, leaving the captured State bit-identical for the
// next consumer.
func TestWarmIdentityAliasesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomClusterProgram(rng, 40)
	cfg := Config{Parallelism: 1}
	st := NewGreedy(p.Clone(), nil, cfg, nil).State()
	frozen := append([]uint32(nil), st.dist...)

	g := NewGreedy(p.Clone(), nil, cfg, &Warm{State: st, Map: identityMap(40)})
	if &g.dist[0] != &st.dist[0] {
		t.Fatal("identity warm start copied the triangle instead of aliasing it")
	}
	if copied, counted := g.SeedStats(); counted != 0 || copied != 40*39/2 {
		t.Fatalf("identity warm start seeded %d copied / %d counted, want %d / 0",
			copied, counted, 40*39/2)
	}
	if g.State() != st {
		t.Fatal("re-capturing an identity-warm engine must return the parent State")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = g.State() }); allocs != 0 {
		t.Fatalf("re-capture allocates %.0f times, want 0", allocs)
	}

	g.RunTo(39) // one merge: the engine must clone before mutating
	if len(g.trace) == 0 {
		t.Fatal("expected one merge")
	}
	if &g.dist[0] == &st.dist[0] {
		t.Fatal("merge mutated the aliased parent triangle in place")
	}
	if !reflect.DeepEqual(st.dist, frozen) {
		t.Fatal("captured State changed after the child's merge")
	}
}
