package dataguide

import (
	"testing"

	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/perfect"
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

func sampleDB() *graph.DB {
	db := graph.New()
	db.Link("root", "a", "member")
	db.Link("root", "b", "member")
	db.LinkAtom("a", "name", "a.n", "A")
	db.LinkAtom("a", "mail", "a.m", "@a")
	db.LinkAtom("b", "name", "b.n", "B")
	return db
}

func TestBuildBasics(t *testing.T) {
	db := sampleDB()
	g := Build(db, nil)
	// Root set = {root}; member -> {a, b}; name -> atoms; mail -> atom.
	if !g.Contains([]string{"member"}) {
		t.Fatal("member path missing")
	}
	if !g.Contains([]string{"member", "name"}) || !g.Contains([]string{"member", "mail"}) {
		t.Fatal("two-step paths missing")
	}
	if g.Contains([]string{"mail"}) || g.Contains([]string{"member", "member"}) {
		t.Fatal("nonexistent paths reported")
	}
	ts, ok := g.TargetsOf([]string{"member"})
	if !ok || len(ts) != 2 {
		t.Fatalf("TargetsOf(member) = %v", ts)
	}
	ts, _ = g.TargetsOf([]string{"member", "mail"})
	if len(ts) != 1 || db.Name(ts[0]) != "a.m" {
		t.Fatalf("TargetsOf(member.mail) = %v", ts)
	}
}

// TestStrongDataGuideDeterminism: each label path leads to exactly one
// node, and target sets are exact (the defining property of [10]).
func TestStrongDataGuideDeterminism(t *testing.T) {
	db := sampleDB()
	g := Build(db, nil)
	for _, n := range g.Nodes {
		seen := map[string]bool{}
		for l := range n.Out {
			if seen[l] {
				t.Fatal("duplicate label out of a node")
			}
			seen[l] = true
		}
	}
	// "member.name" targets both name atoms (shared node for the union).
	ts, _ := g.TargetsOf([]string{"member", "name"})
	if len(ts) != 2 {
		t.Fatalf("TargetsOf(member.name) = %v, want both atoms", ts)
	}
}

func TestCycles(t *testing.T) {
	db := graph.New()
	db.Link("r", "a", "next")
	db.Link("a", "r", "next")
	g := Build(db, []graph.ObjectID{db.Lookup("r")})
	// The cycle alternates between {r} and {a}; the second {r} is interned
	// back to the root node, so the guide is finite with 2 nodes.
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2 ({r} and {a})", g.NumNodes())
	}
	if !g.Contains([]string{"next", "next", "next"}) {
		t.Fatal("cyclic path missing")
	}
	paths := g.Paths(4)
	if len(paths) == 0 {
		t.Fatal("no paths enumerated")
	}
}

// TestDataGuideVsTypingOnDBG quantifies the comparison the paper draws with
// prior work: the DataGuide is an exact, outgoing-only, unique-role summary.
// On DBG it is larger than the paper's 53-type minimal perfect typing, and
// both dwarf the 6-type approximate typing.
func TestDataGuideVsTypingOnDBG(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	g := Build(db, nil)
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	perfectTypes := res.Program.Len()
	if perfectTypes != 53 {
		t.Fatalf("setup: perfect typing has %d types", perfectTypes)
	}
	t.Logf("DataGuide: %d nodes, %d edges; minimal perfect typing: %d types",
		g.NumNodes(), g.NumEdges(), perfectTypes)
	if g.NumNodes() <= perfectTypes {
		t.Errorf("expected the DataGuide (%d nodes) to exceed the %d-type perfect typing on irregular data",
			g.NumNodes(), perfectTypes)
	}
	// Both summarize the data exactly; the approximate typing (6 types)
	// trades exactness for size — the paper's thesis.
}

// TestDataGuidePathsMatchData: every enumerated guide path exists in the
// data, and target sets equal a direct traversal.
func TestDataGuidePathsMatchData(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	roots := DefaultRoots(db)
	g := Build(db, roots)
	for _, p := range g.Paths(2) {
		labels := splitPath(p)
		ts, ok := g.TargetsOf(labels)
		if !ok {
			t.Fatalf("enumerated path %q not found", p)
		}
		want := traverse(db, roots, labels)
		if len(ts) != len(want) {
			t.Fatalf("path %q: guide %d targets, data %d", p, len(ts), len(want))
		}
		for i := range ts {
			if ts[i] != want[i] {
				t.Fatalf("path %q: target sets differ", p)
			}
		}
	}
}

func splitPath(p string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '.' {
			out = append(out, p[start:i])
			start = i + 1
		}
	}
	return out
}

func traverse(db *graph.DB, start []graph.ObjectID, labels []string) []graph.ObjectID {
	cur := map[graph.ObjectID]bool{}
	for _, o := range start {
		cur[o] = true
	}
	for _, l := range labels {
		next := map[graph.ObjectID]bool{}
		for o := range cur {
			for _, e := range db.Out(o) {
				if e.Label == l {
					next[e.To] = true
				}
			}
		}
		cur = next
	}
	out := make([]graph.ObjectID, 0, len(cur))
	for o := range cur {
		out = append(out, o)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []graph.ObjectID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
