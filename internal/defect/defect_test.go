package defect

import (
	"testing"

	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/typing"
)

// evalGFP evaluates p's greatest fixpoint over db serially.
func evalGFP(tb testing.TB, p *typing.Program, db *graph.DB) *typing.Extent {
	tb.Helper()
	ext, err := typing.EvalGFP(p, snapOf(tb, db), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return ext
}

// snapOf compiles db with the automatic layout on every CPU.
func snapOf(tb testing.TB, db *graph.DB) *compile.Snapshot {
	tb.Helper()
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// example22 builds the database of Figure 3 and the typing program of
// Example 2.2:
//
//	type1 = ->a[type2]
//	type2 = <-a[type1] & ->b[0] & ->c[0]
//	type3 = ->b[0] & ->d[0]
//
// o1 -a-> o2; o2 has b, c to atomics; o3 has b, d; o4 has b, c, d.
func example22() (*graph.DB, *typing.Program) {
	db := graph.New()
	db.Link("o1", "o2", "a")
	db.LinkAtom("o2", "b", "a1", "v")
	db.LinkAtom("o2", "c", "a2", "v")
	db.LinkAtom("o3", "b", "a3", "v")
	db.LinkAtom("o3", "d", "a4", "v")
	db.LinkAtom("o4", "b", "a5", "v")
	db.LinkAtom("o4", "c", "a6", "v")
	db.LinkAtom("o4", "d", "a7", "v")
	p := typing.MustParse(`
		type t1 = ->a[t2]
		type t2 = <-a[t1] & ->b[0] & ->c[0]
		type t3 = ->b[0] & ->d[0]
	`)
	return db, p
}

// TestExample22 reproduces the paper's defect arithmetic: σ1 (o4 ↦ type2)
// has excess 1 and deficit 1 (defect 2); σ2 (o4 ↦ type3) has excess 1 and
// deficit 0 (defect 1).
func TestExample22(t *testing.T) {
	db, p := example22()
	base := func() *typing.Assignment {
		a := typing.NewAssignment(p, db)
		a.Assign(db.Lookup("o1"), p.IndexOf("t1"))
		a.Assign(db.Lookup("o2"), p.IndexOf("t2"))
		a.Assign(db.Lookup("o3"), p.IndexOf("t3"))
		return a
	}

	s1 := base()
	s1.Assign(db.Lookup("o4"), p.IndexOf("t2"))
	r1 := Measure(s1)
	if r1.Excess != 1 || r1.Deficit != 1 || r1.Total() != 2 {
		t.Fatalf("σ1: excess %d deficit %d, want 1 and 1", r1.Excess, r1.Deficit)
	}
	// The single deficit is o4's missing <-a[t1].
	reqs := UnsatisfiedRequirements(s1)
	if len(reqs) != 1 || reqs[0].Obj != db.Lookup("o4") ||
		reqs[0].Link.Dir != typing.In || reqs[0].Link.Label != "a" {
		t.Fatalf("requirements = %+v, want o4 <-a[t1]", reqs)
	}
	// The single excess is link(o4, ., d).
	edges := ExcessEdges(p, db, s1.Membership())
	if len(edges) != 1 || edges[0].From != db.Lookup("o4") || edges[0].Label != "d" {
		t.Fatalf("excess edges = %v, want o4's d edge", edges)
	}

	s2 := base()
	s2.Assign(db.Lookup("o4"), p.IndexOf("t3"))
	r2 := Measure(s2)
	if r2.Excess != 1 || r2.Deficit != 0 || r2.Total() != 1 {
		t.Fatalf("σ2: excess %d deficit %d, want 1 and 0", r2.Excess, r2.Deficit)
	}
	edges = ExcessEdges(p, db, s2.Membership())
	if len(edges) != 1 || edges[0].From != db.Lookup("o4") || edges[0].Label != "c" {
		t.Fatalf("σ2 excess edges = %v, want o4's c edge", edges)
	}
}

func TestExcessJustificationByEitherSide(t *testing.T) {
	// A fact is justified when EITHER the source class stipulates an
	// outgoing link OR the target class stipulates the incoming link (§2).
	db := graph.New()
	db.Link("x", "y", "l")
	db.LinkAtom("y", "name", "n", "v")
	// Program A: only the target side stipulates <-l.
	pa := typing.MustParse(`
		type src =
		type dst = <-l[src] & ->name[0]
	`)
	a := typing.NewAssignment(pa, db)
	a.Assign(db.Lookup("x"), 0)
	a.Assign(db.Lookup("y"), 1)
	if x := Excess(pa, db, a.Membership()); x != 0 {
		t.Fatalf("target-side stipulation: excess %d, want 0", x)
	}
	// Program B: nobody stipulates l.
	pb := typing.MustParse(`
		type src = ->other[0]
		type dst = ->name[0]
	`)
	b := typing.NewAssignment(pb, db)
	b.Assign(db.Lookup("x"), 0)
	b.Assign(db.Lookup("y"), 1)
	if x := Excess(pb, db, b.Membership()); x != 1 {
		t.Fatalf("no stipulation: excess %d, want 1 (the l edge)", x)
	}
}

func TestDeficitDeduplicatesPerObjectLink(t *testing.T) {
	db := graph.New()
	db.Intern("o")
	p := typing.MustParse(`
		type a = ->x[0] & ->y[0]
		type b = ->x[0]
	`)
	a := typing.NewAssignment(p, db)
	a.Assign(db.Lookup("o"), 0)
	a.Assign(db.Lookup("o"), 1)
	// o lacks x and y; the x requirement is shared between types a and b.
	if d := Deficit(a); d != 2 {
		t.Fatalf("deficit = %d, want 2 (x deduped, y)", d)
	}
}

func TestDeficitSharedPairsComplementaryRequirements(t *testing.T) {
	// o requires ->l[B]; q requires <-l[A]; o ∈ A and q ∈ B, so one
	// invented fact link(o, q, l) satisfies both.
	db := graph.New()
	db.Intern("o")
	db.Intern("q")
	p := typing.MustParse(`
		type A = ->l[B]
		type B = <-l[A]
	`)
	a := typing.NewAssignment(p, db)
	a.Assign(db.Lookup("o"), 0)
	a.Assign(db.Lookup("q"), 1)
	if d := Deficit(a); d != 2 {
		t.Fatalf("plain deficit = %d, want 2", d)
	}
	if d := DeficitShared(a); d != 1 {
		t.Fatalf("shared deficit = %d, want 1", d)
	}
}

func TestDeficitSharedNeverExceedsDeficit(t *testing.T) {
	db, p := example22()
	a := typing.NewAssignment(p, db)
	a.Assign(db.Lookup("o1"), 0)
	a.Assign(db.Lookup("o2"), 1)
	a.Assign(db.Lookup("o3"), 2)
	a.Assign(db.Lookup("o4"), 1)
	if DeficitShared(a) > Deficit(a) {
		t.Fatal("DeficitShared exceeded Deficit")
	}
}

func TestGFPExtentHasZeroDeficit(t *testing.T) {
	// Membership produced by the greatest fixpoint satisfies every type
	// definition by construction, so the deficit of the corresponding
	// assignment is zero.
	db, p := example22()
	e := evalGFP(t, p, db)
	a := typing.FromExtent(e)
	if d := Deficit(a); d != 0 {
		t.Fatalf("GFP assignment deficit = %d, want 0", d)
	}
}

func TestPerfectTypingZeroDefectEndToEnd(t *testing.T) {
	db, _ := example22()
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x := Excess(res.Program, db, res.Extent.Member); x != 0 {
		t.Fatalf("minimal perfect typing excess = %d, want 0", x)
	}
	a := typing.FromExtent(res.Extent)
	if d := Deficit(a); d != 0 {
		t.Fatalf("minimal perfect typing deficit = %d, want 0", d)
	}
}

func TestEmptyAssignmentAllExcess(t *testing.T) {
	db, p := example22()
	a := typing.NewAssignment(p, db)
	r := Measure(a)
	if r.Excess != db.NumLinks() {
		t.Fatalf("empty assignment excess = %d, want all %d links", r.Excess, db.NumLinks())
	}
	if r.Deficit != 0 {
		t.Fatalf("empty assignment deficit = %d, want 0", r.Deficit)
	}
}
