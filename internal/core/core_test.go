package core

import (
	"context"
	"testing"

	"schemex/internal/cluster"
	"schemex/internal/graph"
	"schemex/internal/synth"
)

// recordsDB builds two clean record families plus some irregular members.
func recordsDB() *graph.DB {
	db := graph.New()
	mk := func(name string, attrs ...string) {
		for _, a := range attrs {
			db.LinkAtom(name, a, name+"."+a, "v")
		}
	}
	for i := 0; i < 6; i++ {
		mk("emp"+string(rune('0'+i)), "name", "salary", "dept")
	}
	mk("emp9", "name", "salary") // missing dept
	for i := 0; i < 5; i++ {
		mk("book"+string(rune('0'+i)), "title", "isbn")
	}
	mk("book9", "title", "isbn", "edition") // extra attribute
	return db
}

func TestExtractRecords(t *testing.T) {
	db := recordsDB()
	res, err := Extract(db, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 2 {
		t.Fatalf("final program has %d types, want 2:\n%s", res.Program.Len(), res.Program)
	}
	if res.PerfectTypes != 4 {
		t.Fatalf("perfect types = %d, want 4 (emp, emp-partial, book, book-extra)", res.PerfectTypes)
	}
	// The two big families must be separated: emp0 and book0 in different
	// clusters.
	e := res.Assignment.Of(db.Lookup("emp0"))
	b := res.Assignment.Of(db.Lookup("book0"))
	if len(e) == 0 || len(b) == 0 {
		t.Fatal("core objects unassigned")
	}
	same := false
	for _, x := range e {
		for _, y := range b {
			if x == y {
				same = true
			}
		}
	}
	if same {
		t.Fatal("emp and book collapsed into one type at k=2")
	}
	// Irregular members produce a small nonzero defect.
	if res.Defect.Total() == 0 || res.Defect.Total() > 10 {
		t.Fatalf("defect = %d, want small nonzero", res.Defect.Total())
	}
	if res.Unclassified != 0 {
		t.Fatalf("unclassified = %d, want 0", res.Unclassified)
	}
}

func TestExtractNoComplexObjects(t *testing.T) {
	db := graph.New()
	db.Atom("v", "x")
	if _, err := Extract(db, Options{K: 1}); err == nil {
		t.Fatal("extraction over atomic-only data should fail")
	}
	if _, err := Sweep(context.Background(), db, Options{}); err == nil {
		t.Fatal("sweep over atomic-only data should fail")
	}
}

func TestExtractKLargerThanPerfect(t *testing.T) {
	db := recordsDB()
	res, err := Extract(db, Options{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != res.PerfectTypes {
		t.Fatalf("K beyond perfect typing should clamp: got %d, perfect %d",
			res.Program.Len(), res.PerfectTypes)
	}
	if res.Defect.Total() != 0 {
		t.Fatalf("at the perfect typing the defect must be 0, got %d", res.Defect.Total())
	}
}

func TestExtractAutoK(t *testing.T) {
	db := recordsDB()
	res, err := Extract(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoK < 1 || res.AutoK > res.PerfectTypes {
		t.Fatalf("AutoK = %d out of range (perfect %d)", res.AutoK, res.PerfectTypes)
	}
	if res.Program.Len() != res.AutoK {
		t.Fatalf("program size %d != AutoK %d", res.Program.Len(), res.AutoK)
	}
}

func TestExtractMultiRole(t *testing.T) {
	// Soccer/movie-star data: multi-role decomposition removes the
	// conjunction type before clustering.
	db := graph.New()
	mk := func(name string, attrs ...string) {
		for _, a := range attrs {
			db.LinkAtom(name, a, name+"."+a, "v")
		}
	}
	mk("soccer1", "name", "country", "team")
	mk("soccer2", "name", "country", "team")
	mk("both", "name", "country", "team", "movie")
	mk("movie1", "name", "country", "movie")
	mk("movie2", "name", "country", "movie")
	res, err := Extract(db, Options{K: 2, MultiRole: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Roles == nil || len(res.Roles.Removed) != 1 {
		t.Fatalf("expected one conjunction type removed, got %+v", res.Roles)
	}
	// "both" ends with two home clusters.
	if got := len(res.Homes[db.Lookup("both")]); got != 2 {
		t.Fatalf("multi-role object has %d homes, want 2", got)
	}
}

func TestSweepMonotoneDistanceAndEndpoints(t *testing.T) {
	db := recordsDB()
	sw, err := Sweep(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) == 0 {
		t.Fatal("empty sweep")
	}
	first := sw.Points[0]
	if first.K != 4 || first.Defect != 0 {
		t.Fatalf("sweep must start at the perfect typing with defect 0, got %+v", first)
	}
	last := sw.Points[len(sw.Points)-1]
	if last.K != 1 {
		t.Fatalf("sweep must end at one type, got K=%d", last.K)
	}
	for i := 1; i < len(sw.Points); i++ {
		if sw.Points[i].K != sw.Points[i-1].K-1 {
			t.Fatal("sweep points must decrease K by one")
		}
		if sw.Points[i].TotalDistance < sw.Points[i-1].TotalDistance {
			t.Fatal("total distance must be nondecreasing along merges")
		}
	}
	if _, ok := sw.At(2); !ok {
		t.Fatal("At(2) missing")
	}
	if _, ok := sw.At(99); ok {
		t.Fatal("At(99) should miss")
	}
}

func TestKneeOnSyntheticCurve(t *testing.T) {
	// A synthetic elbow: defect flat from K=10 down to K=4, then exploding.
	sw := &SweepResult{}
	for k := 10; k >= 1; k-- {
		d := 10
		if k < 4 {
			d = 10 + (4-k)*300
		}
		sw.Points = append(sw.Points, SweepPoint{K: k, Defect: d})
	}
	knee := sw.Knee()
	if knee != 4 {
		t.Fatalf("knee = %d, want 4", knee)
	}
}

func TestKneeDegenerate(t *testing.T) {
	if (&SweepResult{}).Knee() != 1 {
		t.Error("empty sweep knee should be 1")
	}
	one := &SweepResult{Points: []SweepPoint{{K: 3, Defect: 5}}}
	if one.Knee() != 3 {
		t.Error("single-point sweep should return its K")
	}
}

// TestKneeFullTieKeepsLargerK: K 3 and K 2 lie equally far from the line
// and carry equal defects, so the earlier point, the larger K, wins.
func TestKneeFullTieKeepsLargerK(t *testing.T) {
	sw := &SweepResult{Points: []SweepPoint{
		{K: 4, Defect: 0}, {K: 3, Defect: 5}, {K: 2, Defect: 5}, {K: 1, Defect: 0},
	}}
	if knee := sw.Knee(); knee != 3 {
		t.Fatalf("knee = %d, want 3", knee)
	}
}

func TestExtractWithEmptyType(t *testing.T) {
	db := recordsDB()
	// A handful of alien objects that fit nowhere.
	for i := 0; i < 2; i++ {
		name := "alien" + string(rune('0'+i))
		db.LinkAtom(name, "zz1", name+".a", "v")
		db.LinkAtom(name, "zz2", name+".b", "v")
	}
	res, err := Extract(db, Options{
		K:          2,
		AllowEmpty: true,
		EmptyBias:  0.1,
		Delta:      cluster.Delta2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 2 {
		t.Fatalf("got %d types, want 2", res.Program.Len())
	}
}

func TestExtractOnSynthPreset(t *testing.T) {
	// Integration: DB5 end-to-end. The optimal typing at K = intended
	// separates the intended types with moderate defect.
	p := synth.Presets()[4]
	db, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(db, Options{K: p.Intended()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != p.Intended() {
		t.Fatalf("got %d types, want %d", res.Program.Len(), p.Intended())
	}
	if res.PerfectTypes < 100 {
		t.Fatalf("non-bipartite preset should have a large perfect typing, got %d", res.PerfectTypes)
	}
	if res.Defect.Total() <= 0 || res.Defect.Total() > 1000 {
		t.Fatalf("defect = %d out of plausible range", res.Defect.Total())
	}
}
