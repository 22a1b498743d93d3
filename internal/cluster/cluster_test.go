package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"schemex/internal/typing"
)

// TestExample52Distances checks the worked Manhattan distances of
// Example 5.2: τ1 = ->a[0] & ->b[τ2], τ2 = ->a[0] & ->b[τ1],
// τ3 = ->b[τ1] & ->b[τ2] & ->b[τ3]; d(τ1,τ2)=2, d(τ1,τ3)=3, d(τ2,τ3)=3.
func TestExample52Distances(t *testing.T) {
	p := typing.MustParse(`
		type t1 = ->a[0] & ->b[t2]
		type t2 = ->a[0] & ->b[t1]
		type t3 = ->b[t1] & ->b[t2] & ->b[t3]
	`)
	sets := make([]typing.LinkSet, 3)
	for i, ty := range p.Types {
		sets[i] = typing.NewLinkSet(ty.Links)
	}
	cases := []struct{ i, j, want int }{
		{0, 1, 2},
		{0, 2, 3},
		{1, 2, 3},
	}
	for _, c := range cases {
		if got := Manhattan(sets[c.i], sets[c.j]); got != c.want {
			t.Errorf("d(t%d, t%d) = %d, want %d", c.i+1, c.j+1, got, c.want)
		}
		if got := ManhattanSlices(p.Types[c.i].Links, p.Types[c.j].Links); got != c.want {
			t.Errorf("slice d(t%d, t%d) = %d, want %d", c.i+1, c.j+1, got, c.want)
		}
	}
}

func TestManhattanIsMetric(t *testing.T) {
	links := []typing.TypedLink{
		{Dir: typing.Out, Label: "a", Target: typing.AtomicTarget},
		{Dir: typing.Out, Label: "b", Target: 0},
		{Dir: typing.In, Label: "c", Target: 1},
		{Dir: typing.Out, Label: "d", Target: 2},
		{Dir: typing.In, Label: "e", Target: 0},
	}
	mk := func(bits uint8) typing.LinkSet {
		s := make(typing.LinkSet)
		for i, l := range links {
			if bits&(1<<i) != 0 {
				s[l] = true
			}
		}
		return s
	}
	f := func(a, b, c uint8) bool {
		x, y, z := mk(a&31), mk(b&31), mk(c&31)
		dxy, dyx := Manhattan(x, y), Manhattan(y, x)
		if dxy != dyx {
			return false // symmetry
		}
		if (dxy == 0) != (a&31 == b&31) {
			return false // identity of indiscernibles
		}
		return Manhattan(x, z) <= dxy+Manhattan(y, z) // triangle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeltaProperties(t *testing.T) {
	// §5.2 asks for δ increasing in d, decreasing in w1, increasing in w2.
	// δ1 satisfies all three (for L >= 2); δ2 is increasing in d and w2 but
	// constant in w1; δ5 is decreasing in w1 and increasing in w2.
	const L = 10
	if !(Delta1.Eval(5, 5, 2, L) > Delta1.Eval(5, 5, 1, L)) {
		t.Error("delta1 not increasing in d")
	}
	if !(Delta1.Eval(10, 5, 2, L) < Delta1.Eval(5, 5, 2, L)) {
		t.Error("delta1 not decreasing in w1")
	}
	if !(Delta1.Eval(5, 10, 2, L) < Delta1.Eval(5, 5, 2, L)) {
		// δ1 is actually DEcreasing in w2 as well — the paper notes some
		// candidates don't satisfy all properties.
		t.Error("delta1 behaviour in w2 changed")
	}
	if !(Delta2.Eval(1, 5, 3, L) == 15) {
		t.Errorf("delta2(.,5,3) = %v, want 15", Delta2.Eval(1, 5, 3, L))
	}
	if !(Delta5.Eval(10, 5, 2, L) < Delta5.Eval(2, 5, 2, L)) {
		t.Error("delta5 not decreasing in w1")
	}
	if !(Delta5.Eval(5, 10, 2, L) > Delta5.Eval(5, 5, 2, L)) {
		t.Error("delta5 not increasing in w2")
	}
	// d = 0 is free for every function.
	for _, d := range Deltas {
		if got := d.Eval(3, 7, 0, L); got != 0 {
			t.Errorf("%s.Eval(d=0) = %v, want 0", d.Name, got)
		}
	}
}

func TestDeltaByName(t *testing.T) {
	for _, name := range []string{"delta1", "delta2", "delta3", "delta4", "delta5", "weighted-manhattan"} {
		if _, ok := DeltaByName(name); !ok {
			t.Errorf("DeltaByName(%q) not found", name)
		}
	}
	if _, ok := DeltaByName("nope"); ok {
		t.Error("DeltaByName accepted unknown name")
	}
}

// TestExample51Projection reproduces Example 5.1: four types where
// coalescing τ1 and τ2 makes τ3 and τ4 identical via hypercube projection.
func TestExample51Projection(t *testing.T) {
	p := typing.MustParse(`
		type t1 = ->a[0] & ->b[t3]
		type t2 = ->a[0] & ->b[t4]
		type t3 = ->a[0] & ->b[t1]
		type t4 = ->a[0] & ->b[t2]
	`)
	for _, ty := range p.Types {
		ty.Weight = 10
	}
	g := NewGreedy(p, nil, Config{Delta: Delta2}, nil)
	// All pairwise distances are 2 initially (defs differ in one link each
	// way); merge t2 into t1.
	g.merge(0, 1)
	// After projection, t3 = ->a[0] & ->b[t1] and t4 = ->a[0] & ->b[t1]:
	// identical, distance 0.
	if d := g.distAt(2, 3); d != 0 {
		t.Fatalf("after coalescing t1,t2: d(t3,t4) = %d, want 0 (projection)", d)
	}
	// The next greedy step must take the free merge.
	st, ok := g.Step()
	if !ok || st.D != 0 || st.Cost != 0 {
		t.Fatalf("next step = %+v, want free merge of t3,t4", st)
	}
}

func TestGreedyRunToAndProgram(t *testing.T) {
	p := typing.MustParse(`
		type a = ->x[0] & ->y[0]
		type b = ->x[0] & ->y[0] & ->z[0]
		type c = ->q[0]
		type d = ->q[0] & ->r[0]
	`)
	weights := []int{10, 3, 8, 2}
	for i, ty := range p.Types {
		ty.Weight = weights[i]
	}
	g := NewGreedy(p, nil, Config{Delta: Delta2}, nil)
	if got := g.RunTo(2); got != 2 {
		t.Fatalf("RunTo(2) left %d types", got)
	}
	prog, mapping := g.Program()
	if prog.Len() != 2 {
		t.Fatalf("materialized %d types, want 2", prog.Len())
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// The cheap merges are b->a (d=1, w=3) and d->c (d=1, w=2): mapping
	// must send a,b together and c,d together.
	if mapping[0] != mapping[1] || mapping[2] != mapping[3] || mapping[0] == mapping[2] {
		t.Fatalf("mapping = %v, want {a,b} and {c,d} merged", mapping)
	}
	// Weights accumulate.
	total := 0
	for _, ty := range prog.Types {
		total += ty.Weight
	}
	if total != 23 {
		t.Fatalf("total weight = %d, want 23", total)
	}
	// Survivor definitions are the heavier types' definitions.
	for _, ty := range prog.Types {
		if len(ty.Links) == 3 {
			t.Errorf("survivor kept absorbed type's definition: %v", ty.Links)
		}
	}
	if g.TotalDistance() != float64(1*3+1*2) {
		t.Errorf("TotalDistance = %v, want 5", g.TotalDistance())
	}
	if g.DefectEstimate() != 5 {
		t.Errorf("DefectEstimate = %d, want 5", g.DefectEstimate())
	}
	if len(g.Trace()) != 2 {
		t.Errorf("trace has %d steps, want 2", len(g.Trace()))
	}
}

// TestExample53EmptyType: with the empty type allowed, a small distant type
// is retired to the empty set rather than merged into a faraway big type.
func TestExample53EmptyType(t *testing.T) {
	// τ1: 100000 objects, ->a[0] & ->b[0]; τ2: 1000 objects with k extra
	// links; τ3: 100 objects, ->a[0] & ->b[0] & ->c[0].
	mk := func(k int) *typing.Program {
		p := typing.NewProgram()
		t1 := &typing.Type{Name: "t1", Weight: 100000, Links: []typing.TypedLink{
			{Dir: typing.Out, Label: "a", Target: typing.AtomicTarget},
			{Dir: typing.Out, Label: "b", Target: typing.AtomicTarget},
		}}
		t2 := &typing.Type{Name: "t2", Weight: 1000, Links: []typing.TypedLink{
			{Dir: typing.Out, Label: "a", Target: typing.AtomicTarget},
			{Dir: typing.Out, Label: "b", Target: typing.AtomicTarget},
		}}
		for i := 0; i < k; i++ {
			t2.Links = append(t2.Links, typing.TypedLink{
				Dir: typing.Out, Label: "l" + string(rune('a'+i)), Target: typing.AtomicTarget,
			})
		}
		t3 := &typing.Type{Name: "t3", Weight: 100, Links: []typing.TypedLink{
			{Dir: typing.Out, Label: "a", Target: typing.AtomicTarget},
			{Dir: typing.Out, Label: "b", Target: typing.AtomicTarget},
			{Dir: typing.Out, Label: "c", Target: typing.AtomicTarget},
		}}
		p.Add(t1)
		p.Add(t2)
		p.Add(t3)
		return p
	}
	// Small k: t3 merges into t1 (cost d=1 × w=100 = 100 beats t2's k×1000).
	g := NewGreedy(mk(1), nil, Config{Delta: Delta2, AllowEmpty: true}, nil)
	st, _ := g.Step()
	if st.To == EmptySlot || st.From != 2 {
		t.Fatalf("k=1: first move %+v, want t3 -> t1", st)
	}
	// Large k with a bias favoring unclassification: retiring t3 (cost
	// 3×100×bias) beats merging t2 (k×1000) and merging t3 (1×100)? No —
	// the d=1 merge stays cheapest under δ2. With bias 0.2 the empty move
	// costs 60 < 100, so t3 is unclassified first.
	g = NewGreedy(mk(16), nil, Config{Delta: Delta2, AllowEmpty: true, EmptyBias: 0.2}, nil)
	st, _ = g.Step()
	if st.To != EmptySlot || st.From != 2 {
		t.Fatalf("k=16 with bias: first move %+v, want t3 -> empty", st)
	}
	prog, mapping := g.Program()
	if prog.Len() != 2 {
		t.Fatalf("after empty move: %d active types, want 2", prog.Len())
	}
	if mapping[2] != EmptySlot {
		t.Fatalf("mapping[2] = %d, want EmptySlot", mapping[2])
	}
}

func TestGreedyMatchesExactOnTinyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 15; trial++ {
		p := typing.NewProgram()
		n := 4 + rng.Intn(4)
		for i := 0; i < n; i++ {
			ty := &typing.Type{Name: "t" + string(rune('0'+i)), Weight: 1 + rng.Intn(9)}
			for _, l := range labels {
				if rng.Intn(2) == 0 {
					ty.Links = append(ty.Links, typing.TypedLink{
						Dir: typing.Out, Label: l, Target: typing.AtomicTarget,
					})
				}
			}
			p.Add(ty)
		}
		k := 1 + rng.Intn(3)
		exact, _ := ExactKMedian(p, k)
		greedy := GreedyKMedianCost(p, k)
		if greedy+1e-9 < exact {
			t.Fatalf("trial %d: greedy %v beat exact %v (exact search bug)", trial, greedy, exact)
		}
		// Near-optimality: the greedy heuristic stays within a small factor
		// on these bipartite instances (the paper cites an O(log n) bound).
		if exact > 0 && greedy > 6*exact {
			t.Errorf("trial %d: greedy %v much worse than exact %v", trial, greedy, exact)
		}
	}
}

func TestJumpCluster(t *testing.T) {
	p := typing.MustParse(`
		type a1 = ->x[0] & ->y[0]
		type a2 = ->x[0] & ->y[0] & ->rare[0]
		type b1 = ->p[0] & ->q[0]
		type b2 = ->p[0] & ->q[0] & ->odd[0]
	`)
	weights := []int{20, 2, 15, 1}
	for i, ty := range p.Types {
		ty.Weight = weights[i]
	}
	res := JumpCluster(p, 2)
	if res.Program.Len() != 2 {
		t.Fatalf("JumpCluster produced %d clusters, want 2", res.Program.Len())
	}
	if res.Mapping[0] != res.Mapping[1] || res.Mapping[2] != res.Mapping[3] || res.Mapping[0] == res.Mapping[2] {
		t.Fatalf("mapping = %v, want {a1,a2} and {b1,b2}", res.Mapping)
	}
	// The jump heuristic must drop the rare attributes (support 2 or 1 vs
	// 22 or 16).
	for _, ty := range res.Program.Types {
		for _, l := range ty.Links {
			if l.Label == "rare" || l.Label == "odd" {
				t.Errorf("center kept rare link %v", l)
			}
		}
	}
	// Weights accumulate per cluster.
	got := map[int]bool{}
	for _, ty := range res.Program.Types {
		got[ty.Weight] = true
	}
	if !got[22] || !got[16] {
		t.Errorf("cluster weights wrong: %+v", res.Program.Types)
	}
}

func TestExactKMedianDegenerate(t *testing.T) {
	p := typing.MustParse(`
		type a = ->x[0]
		type b = ->y[0]
	`)
	cost, centers := ExactKMedian(p, 2)
	if cost != 0 || len(centers) != 2 {
		t.Fatalf("k = n should be free, got cost %v centers %v", cost, centers)
	}
	cost, _ = ExactKMedian(p, 5)
	if cost != 0 {
		t.Fatalf("k > n should be free, got %v", cost)
	}
}

func TestGreedyTieBreakDeterministic(t *testing.T) {
	build := func() *typing.Program {
		p := typing.MustParse(`
			type a = ->x[0]
			type b = ->x[0] & ->y[0]
			type c = ->x[0] & ->z[0]
		`)
		for _, ty := range p.Types {
			ty.Weight = 5
		}
		return p
	}
	g1 := NewGreedy(build(), nil, Config{}, nil)
	g2 := NewGreedy(build(), nil, Config{}, nil)
	g1.RunTo(1)
	g2.RunTo(1)
	tr1, tr2 := g1.Trace(), g2.Trace()
	if len(tr1) != len(tr2) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, tr1[i], tr2[i])
		}
	}
}

func TestDeltaInfinityComparable(t *testing.T) {
	// δ4 = L^d·w2 can overflow to +Inf for large d; the greedy must still
	// pick a move.
	v := Delta4.Eval(1, 1000, 5000, 100)
	if !math.IsInf(v, 1) {
		t.Skipf("expected overflow to +Inf, got %v", v)
	}
	p := typing.MustParse(`
		type a = ->x[0]
		type b = ->y[0]
	`)
	p.Types[0].Weight, p.Types[1].Weight = 1, 1
	g := NewGreedy(p, nil, Config{Delta: Delta4}, nil)
	if _, ok := g.Step(); !ok {
		t.Fatal("greedy failed to pick a move with infinite costs")
	}
}
