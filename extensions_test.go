package schemex

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestUseSortsSplitsTypes exercises the Remark 2.1 extension: with sorts on,
// records whose "id" values are integers separate from records whose ids
// are strings, even though the label structure is identical.
func TestUseSortsSplitsTypes(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 3; i++ {
		n := "num" + string(rune('0'+i))
		g.LinkAtom(n, "id", "123") // int-sorted
		g.LinkAtom(n, "name", "numeric record")
	}
	for i := 0; i < 3; i++ {
		n := "str" + string(rune('0'+i))
		g.LinkAtom(n, "id", "abc") // string-sorted
		g.LinkAtom(n, "name", "string record")
	}

	// Without sorts the six records are indistinguishable: one class.
	plain, err := Extract(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.PerfectTypes() != 1 {
		t.Fatalf("without sorts: %d perfect types, want 1", plain.PerfectTypes())
	}

	// With sorts they split into two classes.
	sorted, err := Extract(g, Options{K: 2, UseSorts: true})
	if err != nil {
		t.Fatal(err)
	}
	if sorted.PerfectTypes() != 2 {
		t.Fatalf("with sorts: %d perfect types, want 2\n%s", sorted.PerfectTypes(), sorted.PerfectSchema())
	}
	if !strings.Contains(sorted.PerfectSchema(), "[0:int]") ||
		!strings.Contains(sorted.PerfectSchema(), "[0:string]") {
		t.Fatalf("sorted schema missing sort annotations:\n%s", sorted.PerfectSchema())
	}
	// The types separate num* from str*.
	tn, ts := sorted.TypesOf("num0"), sorted.TypesOf("str0")
	if len(tn) == 0 || len(ts) == 0 || tn[0] == ts[0] {
		t.Fatalf("records not separated by sort: %v vs %v", tn, ts)
	}
	// And the defect stays zero: each record fits its sorted type exactly.
	if sorted.Defect() != 0 {
		t.Fatalf("sorted extraction defect = %d, want 0", sorted.Defect())
	}
}

func TestSortedSchemaRoundtrips(t *testing.T) {
	src := "type person = ->age[0:int] & ->name[0:string] & ->score[0:float] & ->active[0:bool] & ->misc[0]"
	out, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"[0:int]", "[0:string]", "[0:float]", "[0:bool]", "->misc[0]"} {
		if !strings.Contains(out, frag) {
			t.Errorf("canonical form lost %q:\n%s", frag, out)
		}
	}
	if _, err := ParseSchema("type x = ->a[0:frob]"); err == nil {
		t.Error("unknown sort accepted")
	}
}

// TestSeedSchemaPinned exercises the a-priori-knowledge extension: seed
// types always survive clustering and absorb matching discovered types.
func TestSeedSchemaPinned(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 5; i++ {
		n := "p" + string(rune('0'+i))
		g.LinkAtom(n, "name", "x")
		g.LinkAtom(n, "mail", "x")
	}
	g.LinkAtom("q", "name", "x") // partial record

	seed := "type person = ->name[0] & ->mail[0]"
	res, err := Extract(g, Options{K: 1, SeedSchema: seed})
	if err != nil {
		t.Fatal(err)
	}
	// K=1 with one pinned seed: everything collapses into the seed.
	if res.NumTypes() != 1 {
		t.Fatalf("types = %d, want 1:\n%s", res.NumTypes(), res.Schema())
	}
	if res.Types()[0].Name != "person" {
		t.Fatalf("surviving type = %q, want the pinned seed", res.Types()[0].Name)
	}
	// The seed's definition survives verbatim.
	if !strings.Contains(res.Schema(), "->mail[0]") || !strings.Contains(res.Schema(), "->name[0]") {
		t.Fatalf("seed definition altered:\n%s", res.Schema())
	}
	// All records assigned to person.
	if got := res.TypesOf("p0"); len(got) != 1 || got[0] != "person" {
		t.Fatalf("p0 -> %v, want [person]", got)
	}
	if got := res.TypesOf("q"); len(got) != 1 || got[0] != "person" {
		t.Fatalf("q -> %v, want [person] (closest)", got)
	}
}

func TestSeedSchemaInvalid(t *testing.T) {
	g := NewGraph()
	g.LinkAtom("a", "x", "1")
	if _, err := Extract(g, Options{SeedSchema: "type broken = ->x[nowhere]"}); err == nil {
		t.Fatal("invalid seed schema accepted")
	}
}

func TestSeedSchemaNameCollision(t *testing.T) {
	g := NewGraph()
	// DefaultClassName will call the discovered class "attr"; the seed is
	// also named "attr": names must be disambiguated, both kept at K=2.
	g.Link("root", "a1", "attr")
	g.Link("root", "a2", "attr")
	g.LinkAtom("a1", "x", "1")
	g.LinkAtom("a2", "x", "1")
	res, err := Extract(g, Options{K: 3, SeedSchema: "type attr = ->zzz[0]"})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ti := range res.Types() {
		if names[ti.Name] {
			t.Fatalf("duplicate type name %q", ti.Name)
		}
		names[ti.Name] = true
	}
}

func TestClassifyNew(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		n := "emp" + string(rune('0'+i))
		g.LinkAtom(n, "name", "x")
		g.LinkAtom(n, "salary", "100")
	}
	res, err := Extract(g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	typeName := res.Types()[0].Name

	// A full new record satisfies the type exactly.
	g.LinkAtom("emp9", "name", "x")
	g.LinkAtom("emp9", "salary", "200")
	if got := res.ClassifyNew("emp9", -1); len(got) != 1 || got[0] != typeName {
		t.Fatalf("ClassifyNew(full) = %v, want [%s]", got, typeName)
	}
	// A partial record falls back to the closest type.
	g.LinkAtom("emp10", "name", "x")
	if got := res.ClassifyNew("emp10", -1); len(got) != 1 || got[0] != typeName {
		t.Fatalf("ClassifyNew(partial) = %v, want [%s]", got, typeName)
	}
	// With a zero cutoff the partial record stays unclassified.
	g.LinkAtom("emp11", "other", "x")
	if got := res.ClassifyNew("emp11", 0); len(got) != 0 {
		t.Fatalf("ClassifyNew(cutoff) = %v, want none", got)
	}
	// Unknown and atomic names yield nil.
	if res.ClassifyNew("nope", -1) != nil {
		t.Fatal("unknown object classified")
	}
	if res.ClassifyNew("emp9.name", -1) != nil {
		t.Fatal("atomic object classified")
	}
}

func TestCheckConformance(t *testing.T) {
	g := buildQuickstart()
	res, err := Extract(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	report, err := Check(context.Background(), g, res.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Conforms() {
		t.Fatalf("extracted schema should conform to its own data: %+v", report)
	}
	for name, n := range report.Types {
		if n != 2 {
			t.Errorf("type %s extent = %d, want 2", name, n)
		}
	}

	// Break conformance: an alien object and an unjustified edge.
	g.LinkAtom("stray", "hobby", "golf")
	report, err = Check(context.Background(), g, res.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if report.Conforms() {
		t.Fatal("alien object should break conformance")
	}
	if report.Excess == 0 || report.Unclassified != 1 {
		t.Fatalf("report = %+v, want excess > 0 and 1 unclassified", report)
	}

	if _, err := Check(context.Background(), g, "type broken = ->x[nowhere]"); err == nil {
		t.Fatal("broken schema accepted")
	}
}

// TestValueLabelsPublicAPI exercises the value-predicate extension through
// the facade: sex values split types; the value-typed schema round-trips and
// conformance-checks.
func TestValueLabelsPublicAPI(t *testing.T) {
	g := NewGraph()
	for _, p := range []struct{ name, sex string }{
		{"a", "Male"}, {"b", "Male"}, {"c", "Female"},
	} {
		g.LinkAtom(p.name, "name", p.name)
		g.LinkAtom(p.name, "sex", p.sex)
	}
	res, err := Extract(g, Options{K: 2, ValueLabels: []string{"sex"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfectTypes() != 2 {
		t.Fatalf("perfect types = %d, want 2", res.PerfectTypes())
	}
	if !strings.Contains(res.Schema(), `->sex[0="Male"]`) {
		t.Fatalf("schema missing value predicate:\n%s", res.Schema())
	}
	ta, tc := res.TypesOf("a"), res.TypesOf("c")
	if len(ta) == 0 || len(tc) == 0 || ta[0] == tc[0] {
		t.Fatalf("a %v and c %v should differ by sex", ta, tc)
	}
	// The value-typed schema re-parses and the data conforms to it.
	report, err := Check(context.Background(), g, res.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Conforms() {
		t.Fatalf("value-typed schema should conform: %+v", report)
	}
}

// TestCheckNoDeficitUnderGFP documents §2's closing remark: the greatest
// fixpoint semantics may lead to excess but cannot yield deficit — Check
// therefore reports no deficit field at all, and every object in an extent
// satisfies its type.
func TestCheckNoDeficitUnderGFP(t *testing.T) {
	g := NewGraph()
	g.LinkAtom("full", "a", "1")
	g.LinkAtom("full", "b", "2")
	g.LinkAtom("partial", "a", "1")
	report, err := Check(context.Background(), g, "type ab = ->a[0] & ->b[0]")
	if err != nil {
		t.Fatal(err)
	}
	// partial does not satisfy ab, so it is unclassified (never "assigned
	// with missing links" — that is Stage 3 recasting, not GFP).
	if report.Types["ab"] != 1 || report.Unclassified != 1 {
		t.Fatalf("report = %+v, want extent 1 and 1 unclassified", report)
	}
}

// TestClassifyNewSnapshotUnknownLabel pins down late classification over the
// prepared-snapshot path when the new object's picture uses labels that were
// never compiled into the snapshot's label table: the classifier reads the
// live graph, so unknown labels must degrade to "does not satisfy any type"
// rather than panic or misindex.
func TestClassifyNewSnapshotUnknownLabel(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("emp%d", i)
		g.LinkAtom(n, "name", "x")
		g.LinkAtom(n, "salary", "100")
	}
	prep, err := PrepareOptions(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractPreparedContext(context.Background(), prep, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	typeName := res.Types()[0].Name

	// The new object mixes a compiled label with one the snapshot has never
	// seen; the extra link keeps it from satisfying the type, so it must
	// fall back to the closest type.
	g.LinkAtom("emp9", "name", "x")
	g.LinkAtom("emp9", "badge", "7")
	if got := res.ClassifyNew("emp9", -1); len(got) != 1 || got[0] != typeName {
		t.Fatalf("ClassifyNew(mixed labels) = %v, want [%s]", got, typeName)
	}
	// An object carrying only unknown labels is still classifiable by
	// distance but never by satisfaction; with a zero cutoff it stays out.
	g.LinkAtom("emp10", "badge", "8")
	if got := res.ClassifyNew("emp10", 0); len(got) != 0 {
		t.Fatalf("ClassifyNew(unknown-only, cutoff 0) = %v, want none", got)
	}
	if got := res.ClassifyNew("emp10", -1); len(got) != 1 {
		t.Fatalf("ClassifyNew(unknown-only) = %v, want closest type", got)
	}
}

// TestClassifyNewAfterApply classifies objects introduced by a delta session:
// the child's extraction sees labels its parent never compiled, and
// ClassifyNew over the child result must handle yet another layer of
// post-extraction labels.
func TestClassifyNewAfterApply(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("emp%d", i)
		g.LinkAtom(n, "name", "x")
		g.LinkAtom(n, "salary", "100")
	}
	parent, err := PrepareOptions(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractPreparedContext(context.Background(), parent, Options{K: 1}); err != nil {
		t.Fatal(err)
	}
	// The delta introduces a label absent from the parent's label table.
	d := NewDelta().Atom("emp5.name", "x").Atom("emp5.badge", "9").
		Link("emp5", "emp5.name", "name").Link("emp5", "emp5.badge", "badge")
	child, info, err := parent.ApplyContext(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Incremental {
		t.Fatal("new label should force a full recompile")
	}
	res, err := ExtractPreparedContext(context.Background(), child, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	typeName := res.Types()[0].Name
	// A fresh object added after the child's extraction, with one more
	// never-compiled label.
	cg := child.Graph()
	cg.LinkAtom("emp6", "name", "x")
	cg.LinkAtom("emp6", "clearance", "top")
	if got := res.ClassifyNew("emp6", -1); len(got) != 1 || got[0] != typeName {
		t.Fatalf("ClassifyNew(child) = %v, want [%s]", got, typeName)
	}
}
