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
	snap, err := compile.Compile(db, 0, 0, 0, nil)
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
// fixpoint the full evaluator computes, both when the incremental path is
// taken and when the budget forces the fallback.
func TestIncrMatchesFull(t *testing.T) {
	type tc struct {
		name  string
		db    *graph.DB
		delta func(db *graph.DB) *graph.Delta
	}
	edgeDelta := func(db *graph.DB) *graph.Delta {
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
	var cases []tc
	for _, no := range []int{5, 6, 7, 8} { // graph-shaped presets: the GFP route
		p := synth.Presets()[no-1]
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("DB%d", no), db, edgeDelta})
	}
	dbgDB, _ := dbg.Generate(dbg.Options{})
	cases = append(cases, tc{"dbg", dbgDB, edgeDelta})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			qd2, snap2, parent, changed, eff, want := incrCase(t, c.db, c.delta(c.db))

			got, incr, err := typing.EvalGFPSnapIncr(qd2, snap2, parent, changed, eff.Touched, typing.IncrOptions{MaxAffectedFrac: 1.0})
			if err != nil {
				t.Fatal(err)
			}
			if !incr {
				t.Fatalf("budget 1.0 fell back to full recompute (affected region should fit)")
			}
			if !got.Equal(want) {
				t.Fatalf("incremental extent differs from full recompute")
			}

			got, incr, err = typing.EvalGFPSnapIncr(qd2, snap2, parent, changed, eff.Touched, typing.IncrOptions{MaxAffectedFrac: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			if incr {
				t.Fatalf("budget 1e-9 did not fall back")
			}
			if !got.Equal(want) {
				t.Fatalf("fallback extent differs from full recompute")
			}

			if got, _, err = typing.EvalGFPSnapIncr(qd2, snap2, nil, changed, eff.Touched, typing.IncrOptions{}); err != nil {
				t.Fatal(err)
			} else if !got.Equal(want) {
				t.Fatalf("nil-parent extent differs from full recompute")
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
	got, incr, err := typing.EvalGFPSnapIncr(qd2, snap2, parent, changed, eff.Touched, typing.IncrOptions{MaxAffectedFrac: 1.0})
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
