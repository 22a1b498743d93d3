package perfect

import (
	"math/rand"
	"testing"

	"schemex/internal/graph"
	"schemex/internal/synth"
)

// TestBipartiteFastPathMatchesGFP: on bipartite data the label-set grouping
// must produce exactly the classes the reference fixpoint route does (same
// partition, same program text).
func TestBipartiteFastPathMatchesGFP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	attrs := []string{"name", "addr", "phone", "mail", "fax"}
	for trial := 0; trial < 10; trial++ {
		db := graph.New()
		n := 8 + rng.Intn(20)
		for i := 0; i < n; i++ {
			rec := "r" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			any := false
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					db.LinkAtom(rec, a, rec+"."+a, "v")
					any = true
				}
			}
			if !any {
				db.LinkAtom(rec, "name", rec+".name", "v")
			}
		}
		fast, err := minimal(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := minimal(db, Options{UseNaiveGFP: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast.Program.String() != ref.Program.String() {
			t.Fatalf("trial %d: fast path program differs:\n%s\nvs\n%s",
				trial, fast.Program, ref.Program)
		}
		for o, h := range fast.Home {
			if ref.Home[o] != h {
				t.Fatalf("trial %d: home of %s differs", trial, db.Name(o))
			}
		}
	}
}

// TestBipartiteFastPathPreset runs the comparison on Table 1's DB1.
func TestBipartiteFastPathPreset(t *testing.T) {
	db, err := synth.Presets()[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := minimal(db, Options{UseNaiveGFP: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Program.Len() != ref.Program.Len() {
		t.Fatalf("fast %d classes vs reference %d", fast.Program.Len(), ref.Program.Len())
	}
	if fast.Program.String() != ref.Program.String() {
		t.Fatal("fast path program differs from reference on DB1")
	}
}

// TestBipartiteFastPathWithSortsAndValues: the fast path keys include sort
// and value refinements.
func TestBipartiteFastPathWithSortsAndValues(t *testing.T) {
	db := graph.New()
	set := func(rec, sex string, age string, sort graph.Sort) {
		db.Atom(rec+".sex", sex)
		db.Link(rec, rec+".sex", "sex")
		id := db.Intern(rec + ".age")
		if err := db.SetAtomic(id, graph.Value{Sort: sort, Text: age}); err != nil {
			t.Fatal(err)
		}
		db.Link(rec, rec+".age", "age")
	}
	set("a", "Male", "30", graph.SortInt)
	set("b", "Male", "31", graph.SortInt)
	set("c", "Female", "32", graph.SortInt)
	set("d", "Male", "unknown", graph.SortString)

	res, err := minimal(db, Options{UseSorts: true, ValueLabels: []string{"sex"}})
	if err != nil {
		t.Fatal(err)
	}
	// Classes: {a,b} (male, int age), {c} (female), {d} (male, string age).
	if res.Program.Len() != 3 {
		t.Fatalf("classes = %d, want 3:\n%s", res.Program.Len(), res.Program)
	}
	if res.Home[db.Lookup("a")] != res.Home[db.Lookup("b")] {
		t.Error("a,b should share a class")
	}
	if res.Home[db.Lookup("a")] == res.Home[db.Lookup("d")] {
		t.Error("string-aged male should split from int-aged males")
	}
	ref, err := minimal(db, Options{UseSorts: true, ValueLabels: []string{"sex"}, UseNaiveGFP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.String() != ref.Program.String() {
		t.Fatal("fast path differs from reference with sorts+values")
	}
}
