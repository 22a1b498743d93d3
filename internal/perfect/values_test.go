package perfect

import (
	"strings"
	"testing"

	"schemex/internal/graph"
)

// TestValueLabelsSplitClasses exercises the value-predicate extension end to
// end through Stage 1: persons identical except for their sex value split
// into two classes when "sex" is a value label.
func TestValueLabelsSplitClasses(t *testing.T) {
	db := graph.New()
	add := func(name, sex string) {
		db.LinkAtom(name, "name", name+".n", "x")
		db.Atom(name+".s", sex)
		db.Link(name, name+".s", "sex")
	}
	add("a", "Male")
	add("b", "Male")
	add("c", "Female")

	plain, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Program.Len() != 1 {
		t.Fatalf("without value labels: %d classes, want 1", plain.Program.Len())
	}

	valued, err := minimal(db, Options{ValueLabels: []string{"sex"}})
	if err != nil {
		t.Fatal(err)
	}
	if valued.Program.Len() != 2 {
		t.Fatalf("with value labels: %d classes, want 2\n%s", valued.Program.Len(), valued.Program)
	}
	if valued.Home[db.Lookup("a")] != valued.Home[db.Lookup("b")] {
		t.Error("same-sex objects split")
	}
	if valued.Home[db.Lookup("a")] == valued.Home[db.Lookup("c")] {
		t.Error("different-sex objects merged")
	}
	s := valued.Program.String()
	if !strings.Contains(s, `->sex[0="Male"]`) || !strings.Contains(s, `->sex[0="Female"]`) {
		t.Fatalf("program missing value predicates:\n%s", s)
	}
}

func TestValueLabelsWithSorts(t *testing.T) {
	db := graph.New()
	for _, r := range []string{"r1", "r2"} {
		id := db.Intern(r + ".v")
		if err := db.SetAtomic(id, graph.Value{Sort: graph.SortInt, Text: "42"}); err != nil {
			t.Fatal(err)
		}
		db.Link(r, r+".v", "grade")
	}
	res, err := minimal(db, Options{UseSorts: true, ValueLabels: []string{"grade"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 1 {
		t.Fatalf("classes = %d, want 1", res.Program.Len())
	}
	s := res.Program.String()
	if !strings.Contains(s, `->grade[0:int="42"]`) {
		t.Fatalf("combined sort+value rendering missing:\n%s", s)
	}
}
