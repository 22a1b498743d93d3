package query

import (
	"math/rand"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/synth"
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

func TestParsePath(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"a.b.c", "a.b.c"},
		{"a.*.c", "a.*.c"},
		{"#.c", "#.c"},
		{`"dotted.label".x`, `"dotted.label".x`},
		{" a . b ", "a.b"},
	}
	for _, c := range cases {
		p, err := ParsePath(c.src)
		if err != nil {
			t.Errorf("ParsePath(%q): %v", c.src, err)
			continue
		}
		if p.String() != c.want {
			t.Errorf("ParsePath(%q) = %q, want %q", c.src, p, c.want)
		}
	}
	for _, bad := range []string{"", "a..b", `a."unterminated`, "."} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", bad)
		}
	}
}

func queryDB() *graph.DB {
	db := graph.New()
	db.Link("group", "alice", "member")
	db.Link("group", "bob", "member")
	db.Link("alice", "p1", "publication")
	db.Link("bob", "p2", "publication")
	db.LinkAtom("p1", "conference", "p1.c", "SIGMOD")
	db.LinkAtom("p2", "title", "p2.t", "Untitled")
	db.LinkAtom("alice", "name", "alice.n", "Alice")
	db.LinkAtom("bob", "name", "bob.n", "Bob")
	return db
}

func TestMatchAndFind(t *testing.T) {
	db := queryDB()
	cases := []struct {
		path string
		want []string
	}{
		{"member.publication.conference", []string{"group"}},
		{"publication.conference", []string{"alice"}},
		{"publication.*", []string{"alice", "bob"}},
		{"#.conference", []string{"group", "alice", "p1"}}, // ID (creation) order
		{"name", []string{"alice", "bob"}},
		{"#.nothing", nil},
	}
	for _, c := range cases {
		got := Find(db, MustParsePath(c.path))
		names := make([]string, len(got))
		for i, o := range got {
			names[i] = db.Name(o)
		}
		if !equalStrings(names, c.want) {
			t.Errorf("Find(%s) = %v, want %v", c.path, names, c.want)
		}
	}
}

func TestTargetsAndValues(t *testing.T) {
	db := queryDB()
	root := []graph.ObjectID{db.Lookup("group")}
	vals := Values(db, root, MustParsePath("member.name"))
	if !equalStrings(vals, []string{"Alice", "Bob"}) {
		t.Fatalf("Values = %v", vals)
	}
	// Closure targets include the frontier itself.
	ts := Targets(db, root, MustParsePath("#"))
	if len(ts) != db.NumObjects() {
		t.Fatalf("closure from root reached %d of %d objects", len(ts), db.NumObjects())
	}
	vals = Values(db, root, MustParsePath("#.conference"))
	if !equalStrings(vals, []string{"SIGMOD"}) {
		t.Fatalf("Values(#.conference) = %v", vals)
	}
}

func TestMatchHandlesCycles(t *testing.T) {
	db := graph.New()
	db.Link("a", "b", "next")
	db.Link("b", "a", "next")
	if !Match(db, db.Lookup("a"), MustParsePath("next.next.next")) {
		t.Fatal("cycle traversal failed")
	}
	if Match(db, db.Lookup("a"), MustParsePath("#.nothing")) {
		t.Fatal("matched nonexistent label through cycle")
	}
}

// guideFor builds a Guide from the minimal perfect typing of db.
func guideFor(t *testing.T, db *graph.DB) *Guide {
	t.Helper()
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewGuide(db, res.Program, res.Extent.Member)
}

// TestGuidedEqualsNaiveOnPerfectTyping: with a zero-excess typing the
// schema-guided evaluator returns exactly the naive results.
func TestGuidedEqualsNaiveOnPerfectTyping(t *testing.T) {
	db := queryDB()
	g := guideFor(t, db)
	for _, path := range []string{
		"member.publication.conference",
		"publication.*",
		"#.conference",
		"name",
		"member.#.title",
		"#.nothing",
	} {
		p := MustParsePath(path)
		naive := Find(db, p)
		guided := g.Find(p)
		if !equalIDs(naive, guided) {
			t.Errorf("path %s: naive %v != guided %v", path, names(db, naive), names(db, guided))
		}
	}
}

// TestGuidedEqualsNaiveOnDBG is the same property on the full DBG dataset,
// and checks that guidance actually prunes the candidate set.
func TestGuidedEqualsNaiveOnDBG(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	g := guideFor(t, db)
	total := len(db.ComplexObjects())
	pruned := false
	for _, path := range []string{
		"birthday.month",
		"degree.school",
		"project.name",
		"publication.conference",
		"advisor.birthday.year",
		"#.postscript",
	} {
		p := MustParsePath(path)
		naive := Find(db, p)
		guided := g.Find(p)
		if !equalIDs(naive, guided) {
			t.Errorf("path %s: naive %d objects, guided %d", path, len(naive), len(guided))
		}
		if g.CandidateCount(p) < total {
			pruned = true
		}
	}
	if !pruned {
		t.Error("guidance never pruned any candidates on DBG")
	}
}

// TestGuidedSubsetOnApproximateTyping: under a clustered (approximate)
// typing the guided evaluator can miss excess-edge matches but never
// invents results.
func TestGuidedSubsetOnApproximateTyping(t *testing.T) {
	preset := synth.Presets()[6] // non-bipartite, overlapping
	db, err := preset.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuide(db, res.Program, res.Extent.Member)
	for _, path := range []string{"works-on.name", "advisor.name", "#.budget"} {
		p := MustParsePath(path)
		naive := toSet(Find(db, p))
		for _, o := range g.Find(p) {
			if !naive[o] {
				t.Errorf("path %s: guided invented %s", path, db.Name(o))
			}
		}
	}
}

// TestFindTrustedEqualsFindOnExtents: with GFP-extent membership the
// unverified (trusted) evaluator returns exactly the verified results —
// every member of a realizable type witnesses its definition recursively.
func TestFindTrustedEqualsFindOnExtents(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	g := guideFor(t, db)
	for _, path := range []string{
		"birthday.month", "degree.school", "#.postscript",
		"advisor.birthday.year", "project.project-member.name", "*.month",
	} {
		p := MustParsePath(path)
		verified := g.Find(p)
		trusted := g.FindTrusted(p)
		if !equalIDs(verified, trusted) {
			t.Errorf("path %s: verified %d objects, trusted %d", path, len(verified), len(trusted))
		}
		if !equalIDs(verified, Find(db, p)) {
			t.Errorf("path %s: guided differs from naive", path)
		}
	}
}

// TestGuidedRandomShapeProperty: on random shape-quotient data (perfect
// typing, zero excess) guided == naive for random paths.
func TestGuidedRandomShapeProperty(t *testing.T) {
	labels := []string{"ref", "name", "addr", "phone", "mail"}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		spec := randomShapeSpec(rng)
		db, _, err := spec.GenerateShapes()
		if err != nil {
			t.Fatal(err)
		}
		g := guideFor(t, db)
		for q := 0; q < 6; q++ {
			var p Path
			for s := 0; s < 1+rng.Intn(3); s++ {
				switch rng.Intn(4) {
				case 0:
					p = append(p, Step{Closure: true})
				case 1:
					p = append(p, Step{})
				default:
					p = append(p, Step{Label: labels[rng.Intn(len(labels))]})
				}
			}
			naive := Find(db, p)
			guided := g.Find(p)
			if !equalIDs(naive, guided) {
				t.Fatalf("trial %d path %s: naive %d != guided %d",
					trial, p, len(naive), len(guided))
			}
		}
	}
}

func randomShapeSpec(rng *rand.Rand) *synth.ShapeSpec {
	attrs := []string{"name", "addr", "phone", "mail"}
	spec := &synth.ShapeSpec{Name: "rand", Seed: rng.Int63()}
	nShapes := 3 + rng.Intn(4)
	for i := 0; i < nShapes; i++ {
		sh := synth.Shape{
			Name:  "s" + string(rune('0'+i)),
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

func TestCandidateTypes(t *testing.T) {
	db := queryDB()
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGuide(db, res.Program, res.Extent.Member)
	// Only the group class can realize member.publication.conference.
	cands := g.CandidateTypes(MustParsePath("member.publication.conference"))
	if len(cands) != 1 {
		t.Fatalf("candidate types = %v, want exactly the group class", cands)
	}
	if got := res.Program.Types[cands[0]].Name; got == "" {
		t.Fatal("unnamed candidate")
	}
	// Every type realizes '#'.
	if got := len(g.CandidateTypes(MustParsePath("#"))); got != res.Program.Len() {
		t.Fatalf("closure candidates = %d, want all %d", got, res.Program.Len())
	}
}

func toSet(ids []graph.ObjectID) map[graph.ObjectID]bool {
	m := make(map[graph.ObjectID]bool, len(ids))
	for _, o := range ids {
		m[o] = true
	}
	return m
}

func equalIDs(a, b []graph.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func names(db *graph.DB, ids []graph.ObjectID) []string {
	out := make([]string, len(ids))
	for i, o := range ids {
		out[i] = db.Name(o)
	}
	return out
}
