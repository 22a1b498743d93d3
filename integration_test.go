package schemex_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"schemex"
)

// TestEndToEndLifecycle walks the whole library surface the way a user
// would: load the checked-in OEM sample, convert it across formats, extract
// a schema, validate conformance, answer queries both ways, absorb new data
// and watch the drift report.
func TestEndToEndLifecycle(t *testing.T) {
	f, err := os.Open("testdata/dbgroup.oem")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := schemex.ParseOEM(f)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the text format.
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := schemex.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumObjects() != g.NumObjects() || g2.NumLinks() != g.NumLinks() {
		t.Fatal("text round trip lost data")
	}
	// And through the OEM writer (structure-preserving).
	buf.Reset()
	if err := g.WriteOEM(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := schemex.ParseOEMString(buf.String()); err != nil {
		t.Fatalf("OEM output does not re-parse: %v", err)
	}

	// Extract, with the size chosen automatically.
	res, err := schemex.Extract(g, schemex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTypes() < 2 || res.NumTypes() > res.PerfectTypes() {
		t.Fatalf("auto-sized schema has %d types (perfect %d)", res.NumTypes(), res.PerfectTypes())
	}
	// The projects share a type; so do the people.
	lore, tsimmis := res.TypesOf("lore"), res.TypesOf("tsimmis")
	if len(lore) == 0 || len(tsimmis) == 0 || lore[0] != tsimmis[0] {
		t.Fatalf("projects not co-typed: %v vs %v", lore, tsimmis)
	}
	widom, mchugh := res.TypesOf("widom"), res.TypesOf("mchugh")
	if len(widom) == 0 || len(mchugh) == 0 || widom[0] != mchugh[0] {
		t.Fatalf("people not co-typed: %v vs %v", widom, mchugh)
	}

	// The perfect schema conforms; the extracted schema re-parses.
	report, err := schemex.Check(context.Background(), g, res.PerfectSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Conforms() {
		t.Fatalf("perfect schema does not conform: %+v", report)
	}
	if _, err := schemex.ParseSchema(res.Schema()); err != nil {
		t.Fatal(err)
	}

	// Queries: naive and schema-guided agree.
	for _, path := range []string{"member.wrote.title", "works-on.title", "#.venue"} {
		naive, err := g.FindPath(path)
		if err != nil {
			t.Fatal(err)
		}
		guided, err := res.FindPath(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(naive, ",") != strings.Join(guided, ",") {
			t.Fatalf("path %s: naive %v vs guided %v", path, naive, guided)
		}
	}

	// New members arrive; drift is visible and classification works.
	g.Link("goldman", "lore", "works-on")
	g.LinkAtom("goldman", "name", "R. Goldman")
	g.LinkAtom("goldman", "email", "goldman@db")
	classes := res.ClassifyNew("goldman", -1)
	if len(classes) == 0 {
		t.Fatal("newcomer unclassified")
	}
	d := res.Drift(-1)
	if d.NewObjects != 1 {
		t.Fatalf("drift = %+v", d)
	}
}

// TestSampleFileMatchesExample keeps the checked-in sample aligned with the
// oemimport example's statistics (6 complex objects, 2 paper sub-objects).
func TestSampleFileMatchesExample(t *testing.T) {
	f, err := os.Open("testdata/dbgroup.oem")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := schemex.ParseOEM(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumObjects()-g.NumLinks() > g.NumObjects() { // sanity only
		t.Fatal("impossible")
	}
	res, err := schemex.Extract(g, schemex.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumTypes() != 3 {
		t.Fatalf("types = %d", res.NumTypes())
	}
}
