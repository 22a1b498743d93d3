package schemex

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// buildQuickstart builds the Figure 2 manager/firm graph via the public API.
func buildQuickstart() *Graph {
	g := NewGraph()
	g.Link("gates", "microsoft", "is-manager-of")
	g.Link("jobs", "apple", "is-manager-of")
	g.Link("microsoft", "gates", "is-managed-by")
	g.Link("apple", "jobs", "is-managed-by")
	g.LinkAtom("gates", "name", "Gates")
	g.LinkAtom("jobs", "name", "Jobs")
	g.LinkAtom("microsoft", "name", "Microsoft")
	g.LinkAtom("apple", "name", "Apple")
	return g
}

func TestQuickstartExtraction(t *testing.T) {
	g := buildQuickstart()
	res, err := Extract(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTypes() != 2 || res.PerfectTypes() != 2 {
		t.Fatalf("types = %d (perfect %d), want 2 and 2", res.NumTypes(), res.PerfectTypes())
	}
	if res.Defect() != 0 {
		t.Fatalf("defect = %d, want 0 on regular data", res.Defect())
	}
	// gates and jobs share a type; distinct from the firms'.
	tg, tj := res.TypesOf("gates"), res.TypesOf("jobs")
	if len(tg) == 0 || len(tj) == 0 || tg[0] != tj[0] {
		t.Fatalf("gates %v and jobs %v should share a type", tg, tj)
	}
	tm := res.TypesOf("microsoft")
	if len(tm) == 0 || tm[0] == tg[0] {
		t.Fatal("firms should have their own type")
	}
	// Members are queryable by type name.
	members := res.Members(tg[0])
	if len(members) != 2 || members[0] != "gates" || members[1] != "jobs" {
		t.Fatalf("members of %s = %v", tg[0], members)
	}
	// The schema re-parses.
	if _, err := ParseSchema(res.Schema()); err != nil {
		t.Fatalf("schema does not re-parse: %v\n%s", err, res.Schema())
	}
	// Datalog rendering mentions the EDB predicates.
	dl := res.Datalog()
	if !strings.Contains(dl, "link(") || !strings.Contains(dl, "atomic(") {
		t.Fatalf("datalog rendering suspicious:\n%s", dl)
	}
}

func TestTypeInfo(t *testing.T) {
	res, err := Extract(buildQuickstart(), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	infos := res.Types()
	if len(infos) != 2 {
		t.Fatalf("infos = %d, want 2", len(infos))
	}
	totalWeight := 0
	for _, ti := range infos {
		if ti.Name == "" || ti.Size == 0 || !strings.HasPrefix(ti.Definition, "type ") {
			t.Fatalf("bad TypeInfo: %+v", ti)
		}
		totalWeight += ti.Weight
	}
	if totalWeight != 4 {
		t.Fatalf("total weight = %d, want 4", totalWeight)
	}
}

func TestGraphSerializationRoundtrip(t *testing.T) {
	g := buildQuickstart()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumObjects() != g.NumObjects() || g2.NumLinks() != g.NumLinks() {
		t.Fatal("roundtrip lost data")
	}
}

func TestParseOEMPublicAPI(t *testing.T) {
	g, err := ParseOEMString(`
		&alice { name: "Alice", knows: *bob }
		&bob   { name: "Bob", knows: *alice }
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTypes() != 1 {
		t.Fatalf("types = %d, want 1", res.NumTypes())
	}
	if got := res.TypesOf("alice"); len(got) != 1 {
		t.Fatalf("alice types = %v", got)
	}
}

func TestSweepAnalysisPublicAPI(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		n := "r" + string(rune('0'+i))
		g.LinkAtom(n, "name", "x")
		if i%2 == 0 {
			g.LinkAtom(n, "extra", "y")
		}
	}
	sw, err := SweepAnalysisContext(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("sweep points = %d, want 2 (perfect has 2 types)", len(sw.Points))
	}
	if sw.Suggested < 1 || sw.Suggested > 2 {
		t.Fatalf("suggested = %d", sw.Suggested)
	}
}

func TestLinkAtomNaming(t *testing.T) {
	// Two objects may carry the same attribute label without clashing.
	g := NewGraph()
	g.LinkAtom("a", "name", "A")
	g.LinkAtom("b", "name", "B")
	if g.NumObjects() != 4 || g.NumLinks() != 2 {
		t.Fatalf("objects=%d links=%d, want 4 and 2", g.NumObjects(), g.NumLinks())
	}
	if !g.IsBipartite() {
		t.Fatal("attribute-only graph should be bipartite")
	}
}

func TestOptionsValidation(t *testing.T) {
	g := buildQuickstart()
	if _, err := Extract(g, Options{Delta: "frobnitz"}); err == nil {
		t.Fatal("unknown delta accepted")
	}
	for _, d := range []string{"delta1", "delta2", "delta3", "delta4", "delta5", "weighted-manhattan"} {
		if _, err := Extract(g, Options{K: 2, Delta: d}); err != nil {
			t.Fatalf("delta %s rejected: %v", d, err)
		}
	}
}

func TestParseSchemaErrors(t *testing.T) {
	if _, err := ParseSchema("type broken = ->x[nowhere]"); err == nil {
		t.Fatal("undefined target accepted")
	}
	out, err := ParseSchema("type ok = ->x[0] & <-y[ok]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "type ok") {
		t.Fatalf("canonical rendering = %q", out)
	}
}

func TestAutoKExposed(t *testing.T) {
	res, err := Extract(buildQuickstart(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoK() != res.NumTypes() {
		t.Fatalf("AutoK %d != NumTypes %d", res.AutoK(), res.NumTypes())
	}
}
