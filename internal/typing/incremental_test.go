package typing_test

import (
	"fmt"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/synth"
	"schemex/internal/typing"
)

// snapOf compiles db with the automatic layout on every CPU.
func snapOf(tb testing.TB, db *graph.DB) *compile.Snapshot {
	tb.Helper()
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// incrCase sets up a parent Q_D fixpoint, applies the delta, and returns
// everything EvalGFPSnapIncr needs plus the from-scratch reference extent.
func incrCase(t *testing.T, db *graph.DB, delta *graph.Delta) (qd2 *typing.Program, snap2 *compile.Snapshot, parent *typing.Extent, changed []int, eff *graph.DeltaEffect, want *typing.Extent) {
	t.Helper()
	snap := snapOf(t, db)
	qd, _, err := perfect.BuildQD(snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err = typing.EvalGFP(qd, snap, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	child, eff, err := db.ApplyDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	snap2 = snapOf(t, child)
	qd2, _, err = perfect.BuildQD(snap2, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ti, ty := range qd2.Types {
		same := ti < len(qd.Types) && len(ty.Links) == len(qd.Types[ti].Links)
		if same {
			for li := range ty.Links {
				if ty.Links[li] != qd.Types[ti].Links[li] {
					same = false
					break
				}
			}
		}
		if !same {
			changed = append(changed, ti)
		}
	}
	want, err = typing.EvalGFP(qd2, snap2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return qd2, snap2, parent, changed, eff, want
}

// TestIncrMatchesFull checks that incremental maintenance lands on the exact
// fixpoint the full evaluator computes on both sides of its internal bound on
// the affected region: moving one edge stays inside the bound and runs
// incrementally, while detaching a third of the objects falls back to the
// full evaluation.
func TestIncrMatchesFull(t *testing.T) {
	type tc struct {
		name string
		db   *graph.DB
	}
	moveEdge := func(db *graph.DB) *graph.Delta {
		// Move one existing-label edge between existing objects.
		var edges []graph.Edge
		db.Links(func(e graph.Edge) { edges = append(edges, e) })
		e := edges[len(edges)/2]
		d := &graph.Delta{}
		d.RemoveLink(db.Name(e.From), db.Name(e.To), e.Label)
		var far graph.ObjectID
		for _, o := range db.ComplexObjects() {
			if o != e.From {
				far = o
			}
		}
		d.AddLink(db.Name(far), db.Name(e.To), e.Label)
		return d
	}
	detachThird := func(db *graph.DB) *graph.Delta {
		// A detached object's rule is empty, so every complex object is a
		// candidate for its type: a third of them put a third of the
		// type × object matrix in play.
		d := &graph.Delta{}
		for i, o := range db.ComplexObjects() {
			if i%3 == 0 {
				d.RemoveObject(db.Name(o))
			}
		}
		return d
	}
	attachNew := func(db *graph.DB) *graph.Delta {
		// The new object joins every type whose links it can witness,
		// including a type with no links (DB6 has one).
		d := &graph.Delta{}
		d.AddLink(db.Name(db.ComplexObjects()[0]), "fresh", db.Labels()[0])
		return d
	}
	deltas := []struct {
		name     string
		build    func(db *graph.DB) *graph.Delta
		wantIncr bool
	}{
		{"move one edge", moveEdge, true},
		{"attach a new object", attachNew, true},
		{"detach a third of the objects", detachThird, false},
	}
	var cases []tc
	for _, no := range []int{5, 6, 7, 8} { // graph-shaped presets: the GFP route
		p := synth.Presets()[no-1]
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("DB%d", no), db})
	}
	dbgDB, _ := dbg.Generate(dbg.Options{})
	cases = append(cases, tc{"dbg", dbgDB})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, dl := range deltas {
				qd2, snap2, parent, changed, eff, want := incrCase(t, c.db, dl.build(c.db))

				got, incr, err := typing.EvalGFPSnapIncr(qd2, snap2, parent, changed, eff.Touched, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if incr != dl.wantIncr {
					t.Fatalf("%s: incremental = %v, want %v", dl.name, incr, dl.wantIncr)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: extent differs from full recompute", dl.name)
				}

				got, incr, err = typing.EvalGFPSnapIncr(qd2, snap2, nil, changed, eff.Touched, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if incr || !got.Equal(want) {
					t.Fatalf("%s: nil parent: incremental = %v, extent equal = %v", dl.name, incr, got.Equal(want))
				}
			}
		})
	}
}

// TestIncrGrowth checks maintenance across deltas that grow the object
// universe: new complex objects and new atomics join mid-graph.
func TestIncrGrowth(t *testing.T) {
	p := synth.Presets()[6] // DB7
	db, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	anchor := db.Name(db.ComplexObjects()[0])
	label := db.Labels()[0]
	d := &graph.Delta{}
	d.AddAtomic("fresh.v", graph.Value{Sort: graph.SortString, Text: "x"})
	d.AddLink(anchor, "fresh", label)
	d.AddLink("fresh", "fresh.v", label)

	qd2, snap2, parent, changed, eff, want := incrCase(t, db, d)
	got, incr, err := typing.EvalGFPSnapIncr(qd2, snap2, parent, changed, eff.Touched, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !incr {
		t.Fatal("growth delta fell back unexpectedly")
	}
	if !got.Equal(want) {
		t.Fatal("incremental extent differs from full recompute after growth")
	}
}
