package defect

import (
	"math/rand"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/typing"
)

// randomScenario builds a random database, takes its minimal perfect typing
// program, and assigns objects to random types — producing assignments with
// genuine excess and deficit.
func randomScenario(rng *rand.Rand) (*graph.DB, *typing.Assignment) {
	db := graph.New()
	labels := []string{"a", "b", "c"}
	n := 4 + rng.Intn(8)
	names := make([]string, n)
	for i := range names {
		names[i] = "o" + string(rune('a'+i))
		db.Intern(names[i])
	}
	for i := 0; i < n*2; i++ {
		f, to := rng.Intn(n), rng.Intn(n)
		if f != to {
			db.Link(names[f], names[to], labels[rng.Intn(len(labels))])
		}
	}
	for i := 0; i < n/2; i++ {
		atom := "v" + string(rune('a'+i))
		db.Atom(atom, atom)
		db.Link(names[rng.Intn(n)], atom, labels[rng.Intn(len(labels))])
	}
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		panic(err)
	}
	res, err := perfect.Minimal(snap, perfect.Options{}, nil)
	if err != nil {
		panic(err)
	}
	a := typing.NewAssignment(res.Program, db)
	for _, o := range db.ComplexObjects() {
		for k := 0; k < 1+rng.Intn(2); k++ {
			a.Assign(o, rng.Intn(res.Program.Len()))
		}
	}
	return db, a
}

// TestDefectProperties checks, across random scenarios: defect components
// are nonnegative; excess never exceeds the number of links; DeficitShared
// is sandwiched between half of Deficit and Deficit; and the GFP assignment
// of the same program has zero deficit.
func TestDefectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		db, a := randomScenario(rng)
		rep := Measure(a)
		if rep.Excess < 0 || rep.Deficit < 0 {
			t.Fatalf("trial %d: negative defect components %+v", trial, rep)
		}
		if rep.Excess > db.NumLinks() {
			t.Fatalf("trial %d: excess %d exceeds %d links", trial, rep.Excess, db.NumLinks())
		}
		shared := DeficitShared(a)
		if shared > rep.Deficit {
			t.Fatalf("trial %d: shared deficit %d > deficit %d", trial, shared, rep.Deficit)
		}
		if 2*shared < rep.Deficit {
			t.Fatalf("trial %d: shared deficit %d below half of %d (each fact serves at most two requirements)",
				trial, shared, rep.Deficit)
		}
		// The GFP of the same program is deficit-free (§2: greatest fixpoint
		// semantics may lead to excess but cannot yield deficit).
		gfp := typing.FromExtent(evalGFP(t, a.Program, db))
		if d := Deficit(gfp); d != 0 {
			t.Fatalf("trial %d: GFP assignment has deficit %d", trial, d)
		}
	}
}

// TestExcessMonotoneInAssignment: assigning more types can only justify
// more facts, so excess is antitone in the assignment.
func TestExcessMonotoneInAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		db, a := randomScenario(rng)
		small := Excess(a.Program, db, a.Membership())
		// Enlarge: every object gets every type.
		full := typing.NewAssignment(a.Program, db)
		for _, o := range db.ComplexObjects() {
			for ti := range a.Program.Types {
				full.Assign(o, ti)
			}
		}
		big := Excess(a.Program, db, full.Membership())
		if big > small {
			t.Fatalf("trial %d: excess grew from %d to %d with a larger assignment", trial, small, big)
		}
	}
}
