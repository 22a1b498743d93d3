package compile

import (
	"fmt"
	"reflect"
	"testing"

	"schemex/internal/graph"
)

// buildDB assembles a small mixed graph: a root fanning out to three members,
// each holding an atomic attribute, plus a back edge.
func buildDB(t *testing.T) *graph.DB {
	t.Helper()
	db := graph.New()
	add := func(from, to, label string) {
		if err := db.AddLink(db.Intern(from), db.Intern(to), label); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"a", "b", "c"} {
		add("root", m, "member")
		v := m + ".name"
		if err := db.SetAtomic(db.Intern(v), graph.Value{Sort: graph.SortString, Text: m}); err != nil {
			t.Fatal(err)
		}
		add(m, v, "name")
	}
	add("c", "root", "owner")
	return db
}

// flatView flattens a snapshot's sharded CSR back into the global-array
// form, so snapshots compare field-by-field regardless of shard layout.
type flatView struct {
	Labels                       []string
	OutTo, OutLab, InFrom, InLab []int32
	AtomicBits                   string
	Complex                      []graph.ObjectID
	Pos                          []int32
}

func flatten(s *Snapshot) flatView {
	v := flatView{
		Labels: s.Labels, AtomicBits: fmt.Sprint(s.Atomic),
		Complex: s.Complex, Pos: s.Pos,
	}
	for i := 0; i < s.NumObjects(); i++ {
		to, lab := s.Out(graph.ObjectID(i))
		v.OutTo = append(v.OutTo, to...)
		v.OutLab = append(v.OutLab, lab...)
		from, flab := s.In(graph.ObjectID(i))
		v.InFrom = append(v.InFrom, from...)
		v.InLab = append(v.InLab, flab...)
	}
	return v
}

// snapEqual compares two snapshots' contents through the flattened view,
// so snapshots with different shard layouts compare equal iff they describe
// the same compiled graph bit for bit.
func snapEqual(t *testing.T, got, want *Snapshot, label string) {
	t.Helper()
	if g, w := flatten(got), flatten(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: snapshots differ:\ngot  %+v\nwant %+v", label, g, w)
	}
}

// TestApplyMatchesFullCompile checks that every Apply path — structural
// sharing, label-universe recompile, and flip recompile — produces a snapshot
// field-identical to compiling the mutated graph from scratch.
func TestApplyMatchesFullCompile(t *testing.T) {
	cases := []struct {
		name          string
		delta         func(d *graph.Delta)
		wantShared    bool
		wantPosStable bool
	}{
		{"add-existing-label", func(d *graph.Delta) {
			d.AddLink("a", "b", "member")
		}, true, true},
		{"remove-link", func(d *graph.Delta) {
			d.RemoveLink("root", "b", "member")
		}, true, true},
		{"new-object", func(d *graph.Delta) {
			d.AddLink("root", "d", "member")
			d.AddAtomic("d.name", graph.Value{Sort: graph.SortString, Text: "d"})
			d.AddLink("d", "d.name", "name")
		}, true, true},
		{"new-label", func(d *graph.Delta) {
			d.AddLink("root", "a", "chair")
		}, false, true},
		{"label-vanishes", func(d *graph.Delta) {
			d.RemoveLink("c", "root", "owner") // only "owner" edge in the graph
		}, false, true},
		{"atomic-flip", func(d *graph.Delta) {
			d.RemoveObject("a.name") // detaches the value: a.name becomes complex
		}, false, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			db := buildDB(t)
			parent := compileDB(t, db)
			parentRef := compileDB(t, db.Clone())

			var d graph.Delta
			c.delta(&d)
			got, info, err := Apply(parent, &d, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.Shared != c.wantShared || info.PosStable != c.wantPosStable {
				t.Fatalf("info = {Shared:%v PosStable:%v}, want {%v %v}",
					info.Shared, info.PosStable, c.wantShared, c.wantPosStable)
			}
			snapEqual(t, got, compileDB(t, got.DB().Clone()), "apply vs full compile")
			// The parent snapshot must be untouched by the child's existence.
			snapEqual(t, parent, parentRef, "parent after apply")
		})
	}
}

// TestApplySharesUntouchedRows checks the structural-sharing contract the
// incremental path is for: untouched label-table memory is aliased, and a
// shared apply reports Shared.
func TestApplySharesUntouchedRows(t *testing.T) {
	db := buildDB(t)
	parent := compileDB(t, db)
	var d graph.Delta
	d.AddLink("a", "c", "member")
	got, info, err := Apply(parent, &d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Shared {
		t.Fatal("expected shared apply")
	}
	if len(got.Labels) != len(parent.Labels) || &got.Labels[0] != &parent.Labels[0] {
		t.Fatal("label table not aliased on shared apply")
	}
	if len(info.Touched) != 2 {
		t.Fatalf("touched = %v, want the two endpoints", info.Touched)
	}
}

// TestApplyErrorLeavesParentUsable checks a failing delta reports the error
// without corrupting the parent snapshot.
func TestApplyErrorLeavesParentUsable(t *testing.T) {
	db := buildDB(t)
	parent := compileDB(t, db)
	parentRef := compileDB(t, db.Clone())
	var d graph.Delta
	d.RemoveLink("root", "nope", "member")
	if _, _, err := Apply(parent, &d, 0, nil); err == nil {
		t.Fatal("expected error for missing link")
	}
	snapEqual(t, parent, parentRef, "parent after failed apply")
}
