package dbg

import (
	"context"
	"strings"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/core"
	"schemex/internal/defect"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/typing"
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

func TestSpecIs53Shapes(t *testing.T) {
	spec := Spec(Options{})
	if got := len(spec.Shapes); got != 53 {
		t.Fatalf("DBG spec has %d shapes, want 53 (the paper's perfect-type count)", got)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Options{})
	b, _ := Generate(Options{})
	if a.NumObjects() != b.NumObjects() || a.NumLinks() != b.NumLinks() {
		t.Fatal("DBG generation not deterministic")
	}
}

// TestPerfectTypingHas53Types: the headline Figure 1 claim — "the perfect
// typing for this dataset consists of 53 different types".
func TestPerfectTypingHas53Types(t *testing.T) {
	db, _ := Generate(Options{})
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Program.Len(); got != 53 {
		t.Fatalf("perfect typing has %d types, want 53", got)
	}
	// And it is perfect: zero defect.
	if x := defect.Excess(res.Program, db, res.Extent.Member); x != 0 {
		t.Fatalf("excess = %d, want 0", x)
	}
	a := typing.FromExtent(res.Extent)
	if d := defect.Deficit(a); d != 0 {
		t.Fatalf("deficit = %d, want 0", d)
	}
}

// TestFigure1SixTypeProgram: clustering to 6 types recovers the six roles
// of Figure 1, with the structural links the figure shows.
func TestFigure1SixTypeProgram(t *testing.T) {
	db, roles := Generate(Options{})
	res, err := core.Extract(db, core.Options{K: 6, NameFor: roles.NameFor})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 6 {
		t.Fatalf("optimal typing has %d types, want 6", res.Program.Len())
	}
	s := res.Program.String()
	for _, role := range []string{"project", "publication", "db-person", "student", "birthday", "degree"} {
		if !strings.Contains(s, "type "+role) {
			t.Errorf("6-type program missing role %q:\n%s", role, s)
		}
	}
	// Figure 1 structural spot-checks on the six-type program.
	for _, frag := range []string{
		"<-birthday[db-person]", // birthdays belong to db-persons
		"<-degree[db-person]",   // degrees belong to db-persons
		"->advisor[db-person]",  // students point at advisors
		"->project-member[",     // projects point at members
		"->month[0]",            // birthday attributes
		"->major[0]",            // degree attributes
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("6-type program missing structure %q:\n%s", frag, s)
		}
	}
	// A small defect relative to the k=1 catastrophe.
	if res.Defect.Total() <= 0 {
		t.Error("6-type typing should have nonzero defect (it is approximate)")
	}
}

// TestFigure6SweepShape checks the sensitivity curve's shape: zero defect at
// the perfect typing, a moderate plateau around the intended 6, and a steep
// blow-up at 1.
func TestFigure6SweepShape(t *testing.T) {
	db, roles := Generate(Options{})
	sw, err := core.Sweep(context.Background(), db, core.Options{NameFor: roles.NameFor})
	if err != nil {
		t.Fatal(err)
	}
	at := func(k int) core.SweepPoint {
		p, ok := sw.At(k)
		if !ok {
			t.Fatalf("no sweep point for k=%d", k)
		}
		return p
	}
	if at(53).Defect != 0 {
		t.Errorf("defect at k=53 is %d, want 0", at(53).Defect)
	}
	d6, d1 := at(6).Defect, at(1).Defect
	if d6 <= 0 {
		t.Errorf("defect at k=6 is %d, want > 0", d6)
	}
	if d1 < 3*d6 {
		t.Errorf("defect at k=1 (%d) should dwarf defect at k=6 (%d)", d1, d6)
	}
	// Total distance decreases monotonically with k (it accumulates as
	// types are merged away).
	for i := 1; i < len(sw.Points); i++ {
		if sw.Points[i].TotalDistance < sw.Points[i-1].TotalDistance {
			t.Fatalf("total distance not nondecreasing along the merge sequence")
		}
	}
	// The suggested knee falls in (or near) the paper's optimal range 6-10.
	knee := sw.Knee()
	if knee < 3 || knee > 13 {
		t.Errorf("knee = %d, want within the 6-10 neighbourhood", knee)
	}
}

func TestRolesGroundTruthAlignment(t *testing.T) {
	// Stage 1 classes never mix roles: the class namer sees a single
	// majority role per class because the shape quotient is role-pure.
	db, roles := Generate(Options{})
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ci, members := range res.Classes {
		seen := map[string]bool{}
		for _, o := range members {
			seen[roles[o]] = true
		}
		if len(seen) != 1 {
			t.Errorf("class %d mixes roles: %v", ci, seen)
		}
	}
}

func TestScaleInvariantPerfectTypes(t *testing.T) {
	db, _ := Generate(Options{Scale: 2})
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scaling populations must not change the number of perfect types
	// (except the singleton root staying singleton — Count 1×2=2 is fine).
	if got := res.Program.Len(); got != 53 {
		t.Fatalf("scaled dataset has %d perfect types, want 53", got)
	}
}
