package recast

import (
	"testing"

	"schemex/internal/graph"
	"schemex/internal/typing"
)

// testDB builds a small record database: three "person" records (two full,
// one missing the mail attribute) and one unrelated record.
func testDB() *graph.DB {
	db := graph.New()
	for _, n := range []string{"p1", "p2"} {
		db.LinkAtom(n, "name", n+".n", "x")
		db.LinkAtom(n, "mail", n+".m", "x")
	}
	db.LinkAtom("p3", "name", "p3.n", "x")
	db.LinkAtom("q", "qq", "q.q", "x")
	return db
}

// recastDB compiles db and recasts it cold.
func recastDB(tb testing.TB, db *graph.DB, p *typing.Program, homes map[graph.ObjectID][]int, opts Options) *Result {
	tb.Helper()
	res, _, err := Recast(snapOf(tb, db), p, homes, opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func personProgram() *typing.Program {
	return typing.MustParse(`
		type person = ->name[0] & ->mail[0]
		type other  = ->qq[0]
	`)
}

func homesFor(db *graph.DB, m map[string]int) map[graph.ObjectID][]int {
	out := make(map[graph.ObjectID][]int)
	for name, h := range m {
		out[db.Lookup(name)] = []int{h}
	}
	return out
}

func TestRecastExactFit(t *testing.T) {
	db := testDB()
	p := personProgram()
	homes := homesFor(db, map[string]int{"p1": 0, "p2": 0, "p3": 0, "q": 1})
	res := recastDB(t, db, p, homes, Options{KeepHome: false, MaxDistance: -1})
	a := res.Assignment
	if !a.Has(db.Lookup("p1"), 0) || !a.Has(db.Lookup("p2"), 0) {
		t.Fatal("full records should satisfy person exactly")
	}
	if !a.Has(db.Lookup("q"), 1) {
		t.Fatal("q should satisfy other exactly")
	}
	// p3 misses mail: no exact fit, assigned the closest type (person at
	// d=1 vs other at d=3).
	if !a.Has(db.Lookup("p3"), 0) {
		t.Fatalf("p3 should fall back to closest type person; got %v", a.Of(db.Lookup("p3")))
	}
	// Defect: p3's missing mail is a deficit of 1; no excess.
	if res.Defect.Deficit != 1 || res.Defect.Excess != 0 {
		t.Fatalf("defect = %+v, want deficit 1, excess 0", res.Defect)
	}
	if res.Unclassified != 0 {
		t.Fatalf("unclassified = %d, want 0", res.Unclassified)
	}
}

func TestRecastMaxDistanceCutoff(t *testing.T) {
	db := testDB()
	p := personProgram()
	homes := map[graph.ObjectID][]int{} // no home evidence
	res := recastDB(t, db, p, homes, Options{KeepHome: false, MaxDistance: 0})
	// p3 fits nothing exactly and the cutoff forbids approximation.
	if got := res.Assignment.Of(db.Lookup("p3")); len(got) != 0 {
		t.Fatalf("p3 assigned %v despite cutoff", got)
	}
	if res.Unclassified != 1 {
		t.Fatalf("unclassified = %d, want 1", res.Unclassified)
	}
}

func TestRecastKeepHome(t *testing.T) {
	db := testDB()
	p := personProgram()
	// Give p3 home type "other" — absurd on purpose; KeepHome must keep it
	// and the missing qq link must surface as deficit.
	homes := homesFor(db, map[string]int{"p1": 0, "p2": 0, "p3": 1, "q": 1})
	res := recastDB(t, db, p, homes, Options{KeepHome: true, MaxDistance: -1})
	if !res.Assignment.Has(db.Lookup("p3"), 1) {
		t.Fatal("KeepHome did not keep the home type")
	}
	if res.Defect.Deficit == 0 {
		t.Fatal("keeping an unsatisfied home type must cost deficit")
	}
}

func TestRecastNoClosest(t *testing.T) {
	db := testDB()
	p := personProgram()
	res := recastDB(t, db, p, map[graph.ObjectID][]int{}, Options{KeepHome: false, NoClosest: true, MaxDistance: -1})
	if got := res.Assignment.Of(db.Lookup("p3")); len(got) != 0 {
		t.Fatalf("NoClosest still assigned %v", got)
	}
}

func TestRecastMultipleExactFits(t *testing.T) {
	// An object satisfying two types is assigned both (§6: "we assign the
	// new objects to all types that it satisfies completely").
	db := graph.New()
	db.LinkAtom("rich", "name", "r.n", "x")
	db.LinkAtom("rich", "mail", "r.m", "x")
	db.LinkAtom("rich", "fax", "r.f", "x")
	p := typing.MustParse(`
		type named  = ->name[0]
		type mailed = ->mail[0] & ->name[0]
	`)
	res := recastDB(t, db, p, map[graph.ObjectID][]int{}, Options{KeepHome: false, MaxDistance: -1})
	got := res.Assignment.Of(db.Lookup("rich"))
	if len(got) != 2 {
		t.Fatalf("rich assigned %v, want both types", got)
	}
}

func TestRecastUsesHomeEvidenceForNeighbors(t *testing.T) {
	// Typed links with complex targets resolve through the neighbours' home
	// classes: person -> project[proj] only fits when the target's home is
	// proj.
	db := graph.New()
	db.Link("alice", "lore", "project")
	db.LinkAtom("alice", "name", "a.n", "x")
	db.LinkAtom("lore", "title", "l.t", "x")
	p := typing.MustParse(`
		type member = ->name[0] & ->project[proj]
		type proj   = <-project[member] & ->title[0]
	`)
	homes := homesFor(db, map[string]int{"alice": 0, "lore": 1})
	res := recastDB(t, db, p, homes, Options{KeepHome: false, MaxDistance: -1})
	if !res.Assignment.Has(db.Lookup("alice"), 0) {
		t.Fatal("alice should satisfy member via lore's home class")
	}
	if !res.Assignment.Has(db.Lookup("lore"), 1) {
		t.Fatal("lore should satisfy proj via alice's home class")
	}
	if res.Defect.Total() != 0 {
		t.Fatalf("defect = %+v, want 0", res.Defect)
	}
}

func TestTypeNewObject(t *testing.T) {
	db := testDB()
	p := personProgram()
	homes := homesFor(db, map[string]int{"p1": 0, "p2": 0, "p3": 0, "q": 1})
	res := recastDB(t, db, p, homes, Options{KeepHome: false, MaxDistance: -1})

	// A new full person arrives.
	db.LinkAtom("p4", "name", "p4.n", "x")
	db.LinkAtom("p4", "mail", "p4.m", "x")
	got := TypeNewObject(res.Assignment, db.Lookup("p4"), -1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("new full person typed as %v, want [person]", got)
	}
	// A new partial person: closest-type fallback.
	db.LinkAtom("p5", "name", "p5.n", "x")
	got = TypeNewObject(res.Assignment, db.Lookup("p5"), -1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("new partial person typed as %v, want [person]", got)
	}
	// With a tight cutoff it stays unclassified.
	db.LinkAtom("p6", "zzz", "p6.z", "x")
	got = TypeNewObject(res.Assignment, db.Lookup("p6"), 0)
	if len(got) != 0 {
		t.Fatalf("alien object typed as %v despite cutoff", got)
	}
}
