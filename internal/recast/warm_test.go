package recast

import (
	"reflect"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/graph"
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

// TestRecastWarmMatchesCold: a warm recast that reclassifies only the dirty
// positions and copies the rest from a parent assignment is bit-identical to
// the cold recast, for every dirty mask shape, at serial and parallel
// execution.
func TestRecastWarmMatchesCold(t *testing.T) {
	db := testDB()
	snap := snapOf(t, db)
	p := personProgram()
	homes := homesFor(db, map[string]int{"p1": 0, "p2": 0, "p3": 0, "q": 1})
	opts := Options{KeepHome: true, MaxDistance: -1}

	cold, _, err := Recast(snap, p, homes, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(snap.Complex)
	masks := [][]bool{
		make([]bool, n), // all clean: pure row copy
		func() []bool { // one dirty object
			m := make([]bool, n)
			m[0] = true
			return m
		}(),
		func() []bool { // everything dirty: degenerates to a cold run
			m := make([]bool, n)
			for i := range m {
				m[i] = true
			}
			return m
		}(),
	}
	for mi, mask := range masks {
		for _, par := range []int{1, 0} {
			o := opts
			o.Parallelism = par
			warm, classified, err := Recast(snap, p, homes, o, &Warm{
				Assignment: cold.Assignment, Dirty: mask,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, d := range mask {
				if d {
					want++
				}
			}
			if classified != want {
				t.Fatalf("mask %d: classified %d objects, want %d", mi, classified, want)
			}
			if !reflect.DeepEqual(warm.Assignment.Types, cold.Assignment.Types) {
				t.Fatalf("mask %d (par=%d): warm assignment differs from cold", mi, par)
			}
			if warm.Defect != cold.Defect || warm.Unclassified != cold.Unclassified {
				t.Fatalf("mask %d (par=%d): warm defect %+v/%d != cold %+v/%d",
					mi, par, warm.Defect, warm.Unclassified, cold.Defect, cold.Unclassified)
			}
		}
	}
}

// TestRecastWarmCopiedRowsIndependent: copied rows are deep copies — mutating
// the warm result must not reach back into the parent assignment.
func TestRecastWarmCopiedRowsIndependent(t *testing.T) {
	db := testDB()
	snap := snapOf(t, db)
	p := personProgram()
	homes := homesFor(db, map[string]int{"p1": 0, "p2": 0, "p3": 0, "q": 1})
	opts := Options{KeepHome: true, MaxDistance: -1}
	cold, _, err := Recast(snap, p, homes, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := Recast(snap, p, homes, opts, &Warm{
		Assignment: cold.Assignment, Dirty: make([]bool, len(snap.Complex)),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := db.Lookup("p1")
	parentRow := append([]int(nil), cold.Assignment.Types[o]...)
	row := warm.Assignment.Types[o]
	if len(row) == 0 {
		t.Fatal("p1 has no copied row")
	}
	row[0] = 99
	if !reflect.DeepEqual(cold.Assignment.Types[o], parentRow) {
		t.Fatal("mutating a copied row leaked into the parent assignment")
	}
}
