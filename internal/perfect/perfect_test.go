package perfect

import (
	"math/rand"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/defect"
	"schemex/internal/graph"
	"schemex/internal/synth"
	"schemex/internal/typing"
)

// snapOf compiles db with the automatic layout on every CPU.
func snapOf(t testing.TB, db *graph.DB) *compile.Snapshot {
	t.Helper()
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// minimal compiles db and runs Stage 1 cold.
func minimal(db *graph.DB, opts Options) (*Result, error) {
	snap, err := compile.Compile(db, 0, opts.Parallelism, opts.Check)
	if err != nil {
		return nil, err
	}
	return Minimal(snap, opts, nil)
}

// figure4DB builds the simple database of Figure 4 / Example 4.2:
// o1 -a-> o2, o3, o4; o2 -b-> o5; o3 -b-> o6; o4 -b-> o7 and -c-> o7'.
func figure4DB() *graph.DB {
	db := graph.New()
	db.Link("o1", "o2", "a")
	db.Link("o1", "o3", "a")
	db.Link("o1", "o4", "a")
	db.Atom("o5", "v5")
	db.Atom("o6", "v6")
	db.Atom("o7", "v7")
	db.Atom("o7c", "v7c")
	db.Link("o2", "o5", "b")
	db.Link("o3", "o6", "b")
	db.Link("o4", "o7", "b")
	db.Link("o4", "o7c", "c")
	return db
}

func TestBuildQD(t *testing.T) {
	db := figure4DB()
	qd, objs, err := BuildQD(snapOf(t, db), typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qd.Types) != 4 || len(objs) != 4 {
		t.Fatalf("Q_D has %d types over %d objects, want 4", len(qd.Types), len(objs))
	}
	// Example 4.2's program: type1 = ->a[2] & ->a[3] & ->a[4]; type2/3 =
	// <-a[1] & ->b[0]; type4 = <-a[1] & ->b[0] & ->c[0].
	find := func(name string) *typing.Type {
		i := qd.IndexOf(name)
		if i < 0 {
			t.Fatalf("no Q_D type for %s", name)
		}
		return qd.Types[i]
	}
	if got := len(find("o1").Links); got != 3 {
		t.Errorf("type(o1) has %d links, want 3", got)
	}
	t2, t3 := find("o2"), find("o3")
	if len(t2.Links) != 2 || len(t3.Links) != 2 {
		t.Errorf("type(o2)/type(o3) link counts = %d/%d, want 2/2", len(t2.Links), len(t3.Links))
	}
	if got := len(find("o4").Links); got != 3 {
		t.Errorf("type(o4) has %d links, want 3", got)
	}
}

// TestExample42 checks the worked example: the minimal perfect typing has
// three classes {o1}, {o2, o3}, {o4}, with the program of Example 4.2.
func TestExample42(t *testing.T) {
	db := figure4DB()
	res, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Program.Len(); got != 3 {
		t.Fatalf("P_D has %d types, want 3\n%s", got, res.Program)
	}
	classOf := func(name string) int { return res.Home[db.Lookup(name)] }
	if classOf("o2") != classOf("o3") {
		t.Error("o2 and o3 should share a home type")
	}
	if classOf("o1") == classOf("o2") || classOf("o4") == classOf("o2") || classOf("o1") == classOf("o4") {
		t.Error("o1, {o2,o3}, o4 should be three distinct classes")
	}
	// The class of o1 must have two a-links after target mapping (to the
	// {o2,o3} class and to the {o4} class).
	t1 := res.Program.Types[classOf("o1")]
	if len(t1.Links) != 2 {
		t.Errorf("class(o1) has links %v, want 2 after dedup", t1.Links)
	}
	// Weights are home-class sizes.
	if res.Program.Types[classOf("o2")].Weight != 2 {
		t.Errorf("weight of {o2,o3} = %d, want 2", res.Program.Types[classOf("o2")].Weight)
	}
	// Per §4.2: the extent of the {o2,o3} class also contains o4 (no
	// negation, o4 has a superset of the links).
	if !res.Extent.Has(classOf("o2"), db.Lookup("o4")) {
		t.Error("extent of {o2,o3} class should contain o4 (overlap)")
	}
}

func TestRemark41(t *testing.T) {
	snap := snapOf(t, figure4DB())
	qd, objs, err := BuildQD(snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := typing.EvalGFP(qd, snap, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRemark41(ext, objs); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalNaiveAgrees(t *testing.T) {
	db := figure4DB()
	a, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := minimal(db, Options{UseNaiveGFP: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Program.String() != b.Program.String() {
		t.Fatalf("naive and support-count Stage 1 differ:\n%s\nvs\n%s", a.Program, b.Program)
	}
}

// TestPerfectTypingHasZeroDefect is the defining property of Stage 1: the
// minimal perfect typing classifies the data with no excess and no deficit.
// It is checked on random shape-quotient instances.
func TestPerfectTypingHasZeroDefect(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		spec := randomShapeSpec(rand.New(rand.NewSource(seed)))
		db, _, err := spec.GenerateShapes()
		if err != nil {
			t.Fatal(err)
		}
		res, err := minimal(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Excess against the fixpoint extent.
		if x := defect.Excess(res.Program, db, res.Extent.Member); x != 0 {
			t.Errorf("seed %d: perfect typing has excess %d, want 0", seed, x)
		}
		// Deficit of the home assignment.
		a := typing.NewAssignment(res.Program, db)
		for o, h := range res.Home {
			a.Assign(o, h)
		}
		if d := defect.Deficit(a); d != 0 {
			t.Errorf("seed %d: perfect typing has deficit %d, want 0", seed, d)
		}
		// Every object is in its home type's extent.
		for o, h := range res.Home {
			if !res.Extent.Has(h, o) {
				t.Errorf("seed %d: %s not in extent of its home type", seed, db.Name(o))
			}
		}
	}
}

// TestShapeQuotientBoundsClasses: data generated from a shape quotient has
// at most one perfect type per shape.
func TestShapeQuotientBoundsClasses(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		spec := randomShapeSpec(rand.New(rand.NewSource(seed)))
		db, _, err := spec.GenerateShapes()
		if err != nil {
			t.Fatal(err)
		}
		res, err := minimal(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Program.Len() > len(spec.Shapes) {
			t.Errorf("seed %d: %d perfect types exceed %d shapes", seed, res.Program.Len(), len(spec.Shapes))
		}
	}
}

// randomShapeSpec builds a small random shape quotient: a few "record"
// shapes with random attribute subsets and a few cross links.
func randomShapeSpec(rng *rand.Rand) *synth.ShapeSpec {
	attrs := []string{"name", "addr", "phone", "mail"}
	spec := &synth.ShapeSpec{Name: "rand", Seed: rng.Int63()}
	nShapes := 3 + rng.Intn(4)
	for i := 0; i < nShapes; i++ {
		sh := synth.Shape{
			Name:  "s" + string(rune('0'+i)),
			Role:  "r" + string(rune('0'+i%2)),
			Count: 2 + rng.Intn(3),
		}
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				sh.Atoms = append(sh.Atoms, a)
			}
		}
		if i > 0 && rng.Intn(2) == 0 {
			sh.Links = append(sh.Links, synth.ShapeLink{
				Label:  "ref",
				Target: "s" + string(rune('0'+rng.Intn(i))),
			})
		}
		spec.Shapes = append(spec.Shapes, sh)
	}
	return spec
}

func TestFigure2Classes(t *testing.T) {
	db := graph.New()
	db.Link("g", "m", "is-manager-of")
	db.Link("j", "a", "is-manager-of")
	db.Link("m", "g", "is-managed-by")
	db.Link("a", "j", "is-managed-by")
	db.LinkAtom("g", "name", "gn", "Gates")
	db.LinkAtom("j", "name", "jn", "Jobs")
	db.LinkAtom("m", "name", "mn", "Microsoft")
	db.LinkAtom("a", "name", "an", "Apple")
	res, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 2 {
		t.Fatalf("Figure 2 data should yield 2 classes (person, firm), got %d:\n%s",
			res.Program.Len(), res.Program)
	}
	if res.Home[db.Lookup("g")] != res.Home[db.Lookup("j")] {
		t.Error("g and j should share a class")
	}
	if res.Home[db.Lookup("m")] != res.Home[db.Lookup("a")] {
		t.Error("m and a should share a class")
	}
	if res.Home[db.Lookup("g")] == res.Home[db.Lookup("m")] {
		t.Error("persons and firms should be distinct classes")
	}
}

func TestDefaultClassName(t *testing.T) {
	db := graph.New()
	db.Link("root", "p1", "person")
	db.Link("root", "p2", "person")
	name := DefaultClassName(db, []graph.ObjectID{db.Lookup("p1"), db.Lookup("p2")}, 0)
	if name != "person" {
		t.Fatalf("DefaultClassName = %q, want person", name)
	}
	// No incoming edges: falls back to classN.
	if got := DefaultClassName(db, []graph.ObjectID{db.Lookup("root")}, 7); got != "class7" {
		t.Fatalf("fallback name = %q, want class7", got)
	}
}

func TestNameCollisionsDisambiguated(t *testing.T) {
	// Two classes whose members share the dominant incoming label must not
	// produce duplicate type names.
	db := graph.New()
	db.Link("root", "x1", "item")
	db.Link("root", "x2", "item")
	db.LinkAtom("x2", "extra", "e1", "v")
	res, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Program.Validate(); err != nil {
		t.Fatalf("program with colliding names invalid: %v", err)
	}
}

func TestRelationalDataOneTypePerRelation(t *testing.T) {
	// §2's first justification: relational data represented with link and
	// atomic yields one type per relation (assuming distinct attribute
	// sets).
	db := graph.New()
	for i := 0; i < 5; i++ {
		row := "emp" + string(rune('0'+i))
		db.LinkAtom(row, "ename", row+".n", "name")
		db.LinkAtom(row, "salary", row+".s", "100")
	}
	for i := 0; i < 4; i++ {
		row := "dept" + string(rune('0'+i))
		db.LinkAtom(row, "dname", row+".n", "name")
		db.LinkAtom(row, "budget", row+".b", "1000")
	}
	res, err := minimal(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() != 2 {
		t.Fatalf("relational data should give one type per relation (2), got %d", res.Program.Len())
	}
}
