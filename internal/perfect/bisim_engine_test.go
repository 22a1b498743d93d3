package perfect

import (
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/typing"
)

// TestBisimulationEngineMatchesGFP: on DBG (and the worked examples) the
// bisimulation Stage 1 yields the same classes and the same program as the
// GFP extent quotient.
func TestBisimulationEngineMatchesGFP(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	gfp, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := minimal(db, Options{UseBisimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if gfp.Program.Len() != bi.Program.Len() {
		t.Fatalf("gfp %d classes vs bisim %d", gfp.Program.Len(), bi.Program.Len())
	}
	// Same partition: objects share a class in one iff in the other.
	objs := db.ComplexObjects()
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			a := gfp.Home[objs[i]] == gfp.Home[objs[j]]
			b := bi.Home[objs[i]] == bi.Home[objs[j]]
			if a != b {
				t.Fatalf("%s/%s: gfp same=%v bisim same=%v",
					db.Name(objs[i]), db.Name(objs[j]), a, b)
			}
		}
	}
	// Same rules, compared structurally through the class correspondence
	// (auto-generated names differ between the two engines, so textual
	// comparison does not apply).
	toGFP := make([]int, bi.Program.Len())
	for bc, members := range bi.Classes {
		toGFP[bc] = gfp.Home[members[0]]
	}
	for bc, bt := range bi.Program.Types {
		gt := gfp.Program.Types[toGFP[bc]]
		mapped := bt.Clone()
		for li, l := range mapped.Links {
			if l.Target != typing.AtomicTarget {
				mapped.Links[li].Target = toGFP[l.Target]
			}
		}
		mapped.Canonicalize()
		if len(mapped.Links) != len(gt.Links) {
			t.Fatalf("class %d: rule sizes differ (%d vs %d)", bc, len(mapped.Links), len(gt.Links))
		}
		for li := range mapped.Links {
			if mapped.Links[li] != gt.Links[li] {
				t.Fatalf("class %d: rules differ at link %d: %v vs %v",
					bc, li, mapped.Links[li], gt.Links[li])
			}
		}
	}
	// The bisim result is also perfect: every object in its home extent.
	for o, h := range bi.Home {
		if !bi.Extent.Has(h, o) {
			t.Fatalf("%s not in its home extent", db.Name(o))
		}
	}
}

func TestBisimulationEngineFigure4(t *testing.T) {
	db := figure4DB()
	res, err := minimal(db, Options{UseBisimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 3 {
		t.Fatalf("classes = %d, want 3", res.Program.Len())
	}
}

func TestBisimulationRejectsRefinements(t *testing.T) {
	db := figure4DB()
	if _, err := minimal(db, Options{UseBisimulation: true, UseSorts: true}); err == nil {
		t.Fatal("bisim + sorts accepted")
	}
	if _, err := minimal(db, Options{UseBisimulation: true, ValueLabels: []string{"x"}}); err == nil {
		t.Fatal("bisim + value labels accepted")
	}
}
