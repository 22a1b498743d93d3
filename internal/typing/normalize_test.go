package typing

import (
	"strings"
	"testing"
)

func TestNormalizeOrdersAndRemaps(t *testing.T) {
	p := MustParse(`
		type zebra = ->ref[apple] & ->z[0]
		type apple = <-ref[zebra] & ->a[0]
	`)
	n := p.Normalize()
	if n.Types[0].Name != "apple" || n.Types[1].Name != "zebra" {
		t.Fatalf("not sorted: %v, %v", n.Types[0].Name, n.Types[1].Name)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// zebra's ref link must now target index 0 (apple).
	zi := n.IndexOf("zebra")
	found := false
	for _, l := range n.Types[zi].Links {
		if l.Label == "ref" && l.Dir == Out && l.Target == n.IndexOf("apple") {
			found = true
		}
	}
	if !found {
		t.Fatalf("targets not remapped: %s", n.TypeString(zi))
	}
	// The original program is untouched.
	if p.Types[0].Name != "zebra" {
		t.Fatal("Normalize mutated its receiver")
	}
}

func TestProgramEqual(t *testing.T) {
	a := MustParse(`
		type x = ->l[y]
		type y = ->m[0]
	`)
	b := MustParse(`
		type y = ->m[0]
		type x = ->l[y]
	`)
	if !a.Equal(b) {
		t.Fatal("order-permuted programs should be equal")
	}
	c := MustParse(`
		type x = ->l[y] & ->extra[0]
		type y = ->m[0]
	`)
	if a.Equal(c) {
		t.Fatal("different rules reported equal")
	}
	d := MustParse(`type x = ->l[x]`)
	if a.Equal(d) {
		t.Fatal("different sizes reported equal")
	}
}

func TestProgramStats(t *testing.T) {
	p := MustParse(`
		type a = ->x[0] & ->y[b] & <-z[b]
		type b = ->x[0]
	`)
	p.Types[0].Weight = 10
	p.Types[1].Weight = 3
	s := p.Stats()
	if s.Types != 2 || s.TypedLinks != 4 || s.Incoming != 1 || s.Outgoing != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AtomicTargets != 2 || s.TotalWeight != 13 || s.MaxLinks != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.DistinctLinks != 3 {
		t.Fatalf("distinct = %d, want 3 (->x[0] shared)", s.DistinctLinks)
	}
	if !strings.Contains(s.String(), "2 types") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestHomeCandidates(t *testing.T) {
	db := figure2DB()
	// With the exact-picture program, g's only home candidate is person.
	exact := MustParse(`
		type person = ->is-manager-of[firm] & ->name[0] & <-is-managed-by[firm]
		type firm   = ->is-managed-by[person] & ->name[0] & <-is-manager-of[person]
	`)
	ee := evalGFP(t, exact, db)
	got := ee.HomeCandidates(db.Lookup("g"))
	if len(got) != 1 || exact.Types[got[0]].Name != "person" {
		t.Fatalf("HomeCandidates(g) = %v", got)
	}
	// Under the looser Figure 2 program, g's picture strictly exceeds the
	// person rule: no exact home candidates.
	loose := figure2Program()
	le := evalGFP(t, loose, db)
	if got := le.HomeCandidates(db.Lookup("g")); len(got) != 0 {
		t.Fatalf("loose HomeCandidates(g) = %v, want none", got)
	}
}
