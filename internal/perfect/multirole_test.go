package perfect

import (
	"testing"

	"schemex/internal/graph"
	"schemex/internal/typing"
)

// figure5DB builds the soccer-and-movie-stars database of Figure 5 /
// Example 4.3: o1 (Scholes) has name, country, team; o2 (Cantona) has name,
// country, team, movie; o3 (Binoche) has name, country, movie ×2.
func figure5DB() *graph.DB {
	db := graph.New()
	db.LinkAtom("o1", "name", "n1", "Scholes")
	db.LinkAtom("o1", "country", "c1", "England")
	db.LinkAtom("o1", "team", "t1", "Man Utd")
	db.LinkAtom("o2", "name", "n2", "Cantona")
	db.LinkAtom("o2", "country", "c2", "France")
	db.LinkAtom("o2", "team", "t2", "Man Utd")
	db.LinkAtom("o2", "movie", "m2", "Le Bonheur...")
	db.LinkAtom("o3", "name", "n3", "Binoche")
	db.LinkAtom("o3", "country", "c3", "France")
	db.LinkAtom("o3", "movie", "m3a", "Bleu")
	db.LinkAtom("o3", "movie", "m3b", "Damage")
	return db
}

func TestExample43Covers(t *testing.T) {
	db := figure5DB()
	res, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three perfect types: soccer star, soccer+movie star, movie star.
	if res.Program.Len() != 3 {
		t.Fatalf("perfect typing has %d types, want 3:\n%s", res.Program.Len(), res.Program)
	}
	h1, h2, h3 := res.Home[db.Lookup("o1")], res.Home[db.Lookup("o2")], res.Home[db.Lookup("o3")]
	// In the greatest fixpoint, type1 (soccer) contains o1 and o2; type3
	// (movie) contains o2 and o3; type2 contains o2 only.
	if !res.Extent.Has(h1, db.Lookup("o2")) {
		t.Error("extent of soccer type should contain o2")
	}
	if !res.Extent.Has(h3, db.Lookup("o2")) {
		t.Error("extent of movie type should contain o2")
	}
	if res.Extent.Count(h2) != 1 {
		t.Errorf("conjunction type extent = %d, want 1 (o2 only)", res.Extent.Count(h2))
	}

	covers := FindCovers(res.Program)
	if len(covers) != 1 {
		t.Fatalf("FindCovers found %d covers, want 1: %+v", len(covers), covers)
	}
	if covers[0].Type != h2 {
		t.Errorf("cover should remove o2's conjunction type %d, got %d", h2, covers[0].Type)
	}
	wantParts := map[int]bool{h1: true, h3: true}
	for _, si := range covers[0].CoveredBy {
		if !wantParts[si] {
			t.Errorf("unexpected cover part %d", si)
		}
	}

	roles := ApplyRoles(res)
	if roles.Program.Len() != 2 {
		t.Fatalf("after roles: %d types, want 2:\n%s", roles.Program.Len(), roles.Program)
	}
	// o2 now has two home types (multiple roles).
	homes := roles.Homes[db.Lookup("o2")]
	if len(homes) != 2 {
		t.Fatalf("o2 has %d home types after decomposition, want 2", len(homes))
	}
	// o1 and o3 keep a single home.
	if len(roles.Homes[db.Lookup("o1")]) != 1 || len(roles.Homes[db.Lookup("o3")]) != 1 {
		t.Error("o1/o3 should keep single homes")
	}
	// Weights: soccer type is home to o1 and o2; movie type to o2 and o3.
	for _, ty := range roles.Program.Types {
		if ty.Weight != 2 {
			t.Errorf("type %s weight = %d, want 2", ty.Name, ty.Weight)
		}
	}
}

func TestApplyRolesNoCovers(t *testing.T) {
	db := figure4DB()
	res, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	roles := ApplyRoles(res)
	if roles.Program.Len() != res.Program.Len() {
		t.Fatalf("roles changed type count with no covers: %d vs %d",
			roles.Program.Len(), res.Program.Len())
	}
	if len(roles.Removed) != 0 {
		t.Fatalf("unexpected removals: %+v", roles.Removed)
	}
	for o, hs := range roles.Homes {
		if len(hs) != 1 || hs[0] != res.Home[o] {
			t.Fatalf("home of %s changed: %v", db.Name(o), hs)
		}
	}
}

func TestRetargetLinksToRemovedType(t *testing.T) {
	// A program where a surviving type links to a removed conjunction type:
	// the link must be retargeted to the most specific covering part.
	p := typing.MustParse(`
		type simple1 = ->a[0]
		type simple2 = ->b[0]
		type conj    = ->a[0] & ->b[0]
		type user    = ->ref[conj] & ->c[0]
	`)
	for _, ty := range p.Types {
		ty.Weight = 1
	}
	res := &Result{Program: p, Home: map[graph.ObjectID]int{0: 0, 1: 1, 2: 2, 3: 3}}
	roles := ApplyRoles(res)
	if roles.Program.Len() != 3 {
		t.Fatalf("after roles: %d types, want 3:\n%s", roles.Program.Len(), roles.Program)
	}
	ui := roles.Program.IndexOf("user")
	if ui < 0 {
		t.Fatal("user type vanished")
	}
	for _, l := range roles.Program.Types[ui].Links {
		if l.Label == "ref" {
			name := roles.Program.Types[l.Target].Name
			if name != "simple1" && name != "simple2" {
				t.Fatalf("ref link retargeted to %q", name)
			}
		}
	}
	if err := roles.Program.Validate(); err != nil {
		t.Fatal(err)
	}
}
