package typing

import (
	"strings"
	"testing"

	"schemex/internal/graph"
)

// peopleDB builds the paper's future-work scenario: persons with a sex
// subobject valued "Male" or "Female".
func peopleDB() *graph.DB {
	db := graph.New()
	add := func(name, sex string) {
		db.LinkAtom(name, "name", name+".n", name)
		db.Atom(name+".s", sex)
		db.Link(name, name+".s", "sex")
	}
	add("adam", "Male")
	add("bob", "Male")
	add("carol", "Female")
	add("dana", "Female")
	return db
}

func TestValuePredicateGFP(t *testing.T) {
	db := peopleDB()
	p := MustParse(`
		type male   = ->name[0] & ->sex[0="Male"]
		type female = ->name[0] & ->sex[0="Female"]
	`)
	for name, eval := range map[string]func(*Program, *graph.DB) *Extent{
		"naive":   EvalGFPNaive,
		"support": func(p *Program, db *graph.DB) *Extent { return evalGFP(t, p, db) },
	} {
		e := eval(p, db)
		male, female := p.IndexOf("male"), p.IndexOf("female")
		if e.Count(male) != 2 || !e.Has(male, db.Lookup("adam")) || !e.Has(male, db.Lookup("bob")) {
			t.Errorf("%s: male extent wrong: %v", name, e.Objects(male))
		}
		if e.Count(female) != 2 || !e.Has(female, db.Lookup("carol")) {
			t.Errorf("%s: female extent wrong: %v", name, e.Objects(female))
		}
	}
	// Cross-check against the generic datalog engine (compiles the value as
	// a constant in atomic/2).
	e3, err := EvalGFPDatalog(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !evalGFP(t, p, db).Equal(e3) {
		t.Fatal("datalog engine disagrees on value predicates")
	}
}

func TestValueNotationRoundtrip(t *testing.T) {
	src := `type male = ->sex[0="Male"] & ->age[0:int] & ->tag[0:string="x y"]`
	p := MustParse(src)
	p2 := MustParse(p.String())
	if p.String() != p2.String() {
		t.Fatalf("roundtrip changed program:\n%svs\n%s", p, p2)
	}
	ml := p.Types[0].Links
	foundValue := false
	for _, l := range ml {
		if l.HasValue && l.Value == "Male" {
			foundValue = true
		}
		if l.HasValue && l.Value == "x y" && l.Sort != SortString {
			t.Errorf("combined sort+value link lost its sort: %+v", l)
		}
	}
	if !foundValue {
		t.Fatalf("value constraint lost: %+v", ml)
	}
}

func TestValueOnComplexTargetRejected(t *testing.T) {
	p := NewProgram()
	p.Add(&Type{Name: "a"})
	p.Add(&Type{Name: "b", Links: []TypedLink{{Dir: Out, Label: "x", Target: 0, Value: "v", HasValue: true}}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "value") {
		t.Fatalf("value constraint on complex target accepted: %v", err)
	}
}

func TestValueCompareOrdering(t *testing.T) {
	a := TypedLink{Dir: Out, Label: "sex", Target: AtomicTarget, Value: "Female", HasValue: true}
	b := TypedLink{Dir: Out, Label: "sex", Target: AtomicTarget, Value: "Male", HasValue: true}
	plain := TypedLink{Dir: Out, Label: "sex", Target: AtomicTarget}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("value ordering broken")
	}
	if plain.Compare(a) >= 0 {
		t.Error("plain link should order before value-constrained link")
	}
	if a.Compare(a) != 0 {
		t.Error("self-compare nonzero")
	}
}

func TestLocalLinksOptsValueLabels(t *testing.T) {
	db := peopleDB()
	opts := PictureOpts{ValueLabels: map[string]bool{"sex": true}}
	local := LocalLinks(db, db.Lookup("adam"), func(graph.ObjectID) []int { return nil }, opts)
	set := NewLinkSet(local)
	if !set[TypedLink{Dir: Out, Label: "sex", Target: AtomicTarget}] {
		t.Error("plain sex link missing from picture")
	}
	if !set[TypedLink{Dir: Out, Label: "sex", Target: AtomicTarget, Value: "Male", HasValue: true}] {
		t.Errorf("value-constrained sex link missing: %v", local)
	}
	// name is not a value label: no value form for it.
	if set[TypedLink{Dir: Out, Label: "name", Target: AtomicTarget, Value: "adam", HasValue: true}] {
		t.Error("non-value label leaked a value link")
	}
}
