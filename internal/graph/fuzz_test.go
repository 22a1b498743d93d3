package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseOEM checks the OEM parser never panics and that whatever it
// accepts yields a valid database that survives a text-format round trip.
func FuzzParseOEM(f *testing.F) {
	seeds := []string{
		`&a { b: 1 }`,
		`&a { x: *b } &b { y: "s" }`,
		`{ nested: { deep: true }, arr: 1, arr2: "x" }`,
		`&a { "quoted label": "v", t: 3.5 }`,
		`# comment only`,
		`&a {} &b { r: *a, r2: *a }`,
		`*forward`,
		`&x { a: 1, }`,
		// Adversarial shapes: deep nesting, giant labels, and cyclic or
		// reference-heavy *name documents.
		strings.Repeat("{ a: ", 64) + "1" + strings.Repeat(" }", 64),
		"&a { " + strings.Repeat("x", 1<<12) + ": 1 }",
		`&a { "` + strings.Repeat("y", 1<<10) + `": *a }`,
		`&a { next: *b } &b { next: *c } &c { next: *a, back: *b, self: *c }`,
		"&r {" + strings.Repeat(" m: *r,", 200) + " }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db, err := ParseOEMString(src)
		if err != nil {
			return
		}
		if verr := db.Validate(); verr != nil {
			t.Fatalf("parsed db invalid: %v (input %q)", verr, src)
		}
		var buf bytes.Buffer
		if err := db.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("serialized form does not re-read: %v", err)
		}
	})
}

// FuzzReadText checks the line-format reader never panics and its accepted
// output is valid and round-trips.
func FuzzReadText(f *testing.F) {
	seeds := []string{
		"link a b l\natomic c string v\n",
		"obj lonely\n# comment\nlink a \"b c\" \"l l\"\n",
		"atomic x int 42\natomic y bool true\n",
		"link a b l\nlink a b l2\nlink b c l\n",
		// Adversarial shapes: giant field values and duplicate records.
		"link " + strings.Repeat("a", 1<<12) + " b " + strings.Repeat("l", 1<<12) + "\n",
		"atomic huge string \"" + strings.Repeat("v", 1<<10) + "\"\n",
		"link a a self\nlink a a self\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := db.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.NumLinks() != db.NumLinks() || back.NumObjects() != db.NumObjects() {
			t.Fatalf("round trip changed counts")
		}
		if o, ok := sameIDs(db, back); !ok {
			t.Fatalf("round trip renumbered object %d", o)
		}
	})
}

// FuzzFromJSON checks the JSON loader never panics on arbitrary documents
// and always produces valid databases.
func FuzzFromJSON(f *testing.F) {
	seeds := []string{
		`{"a": 1}`,
		`{"a": [1, "x", true, null], "b": {"c": 2.5}}`,
		`[[1, 2], [3]]`,
		`"bare string"`,
		`{"deep": {"deeper": {"deepest": [{"x": 1}]}}}`,
		// Adversarial shapes: deep nesting and giant keys/values.
		strings.Repeat(`{"a":`, 64) + `1` + strings.Repeat(`}`, 64),
		strings.Repeat(`[`, 128) + strings.Repeat(`]`, 128),
		`{"` + strings.Repeat("k", 1<<12) + `": "` + strings.Repeat("v", 1<<12) + `"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db, _, err := FromJSON(strings.NewReader(src), "root")
		if err != nil {
			return
		}
		if verr := db.Validate(); verr != nil {
			t.Fatalf("json-loaded db invalid: %v (input %q)", verr, src)
		}
	})
}

// FuzzParseDelta checks the delta parser behind HTTP mutate bodies: it never
// panics on arbitrary text, and any delta it accepts round-trips — rendering
// it with String and parsing that again yields the same operations.
func FuzzParseDelta(f *testing.F) {
	seeds := []string{
		"link a b l\nunlink a b l\natomic x int 42\nremove a\n",
		"# comment\nlink \"a b\" \"c\\\"d\" \"l l\"\n",
		"atomic v string \"\"\natomic w bool true\n",
		"remove\nlink a b\nfrob x\n",
		"link a b \"unterminated\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDeltaString(src)
		if err != nil {
			return
		}
		text := d.String()
		back, err := ParseDeltaString(text)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", text, err)
		}
		if !reflect.DeepEqual(back.ops, d.ops) {
			t.Fatalf("round trip changed the delta:\n%q\n%q", text, back.String())
		}
	})
}

// Coalesce fuzz inputs are read as delta ops over the randomDeltas universe,
// fuzzOpLen bytes per op: a kind byte (a deltaKind, or fuzzCut to start the
// next delta), then from/to/label indices for a link op, or name/value
// indices for an atomic or remove op, each taken modulo its universe.
// Cuts past the third are ignored, so an input makes 1–4 deltas; ops past
// fuzzMaxOps are dropped to keep each run small.
const (
	fuzzOpLen  = 4
	fuzzCut    = 4
	fuzzMaxOps = 64
)

func decodeDeltas(data []byte) []*Delta {
	if len(data) > fuzzMaxOps*fuzzOpLen {
		data = data[:fuzzMaxOps*fuzzOpLen]
	}
	name := func(b byte) string { return deltaNames[int(b)%len(deltaNames)] }
	ds := []*Delta{new(Delta)}
	for ; len(data) >= fuzzOpLen; data = data[fuzzOpLen:] {
		d := ds[len(ds)-1]
		switch deltaKind(data[0] % (fuzzCut + 1)) {
		case opAddLink:
			d.AddLink(name(data[1]), name(data[2]), deltaLabels[int(data[3])%len(deltaLabels)])
		case opRemoveLink:
			d.RemoveLink(name(data[1]), name(data[2]), deltaLabels[int(data[3])%len(deltaLabels)])
		case opAddAtomic:
			d.AddAtomic(name(data[1]), deltaValues[int(data[2])%len(deltaValues)])
		case opRemoveObject:
			d.RemoveObject(name(data[1]))
		default:
			if len(ds) < 4 {
				ds = append(ds, new(Delta))
			}
		}
	}
	return ds
}

// encodeDeltas is the inverse of decodeDeltas. rename first maps names,
// labels and value texts outside the universe onto ones inside it.
func encodeDeltas(tb testing.TB, ds []*Delta, rename map[string]string) []byte {
	tb.Helper()
	index := func(universe []string, s string) byte {
		if r, ok := rename[s]; ok {
			s = r
		}
		for i, u := range universe {
			if u == s {
				return byte(i)
			}
		}
		tb.Fatalf("%q is outside the fuzz universe %q", s, universe)
		return 0
	}
	var valueTexts []string
	for _, v := range deltaValues {
		valueTexts = append(valueTexts, v.Text)
	}
	var out []byte
	for di, d := range ds {
		if di > 0 {
			out = append(out, fuzzCut, 0, 0, 0)
		}
		for _, op := range d.ops {
			switch op.kind {
			case opAddLink, opRemoveLink:
				out = append(out, byte(op.kind), index(deltaNames, op.from), index(deltaNames, op.to), index(deltaLabels, op.label))
			case opAddAtomic:
				out = append(out, byte(op.kind), index(deltaNames, op.name), index(valueTexts, op.value.Text), 0)
			default:
				out = append(out, byte(op.kind), index(deltaNames, op.name), 0, 0)
			}
		}
	}
	return out
}

// FuzzCoalesce checks batch coalescing against sequential apply on
// coalesceBase: Coalesce must bail exactly when applying the deltas one at a
// time fails, and otherwise land on a bit-identical database (checkCoalesce).
// The corpus starts from the directed cases, with their fresh names, labels
// and values renamed onto fresh ones of the universe.
func FuzzCoalesce(f *testing.F) {
	rename := map[string]string{
		"fresh": "n1", "lone2": "n2", "lone3": "n3", // objects absent from the base
		"tmp": "l1", "x": "l1", "y": "l2", "extra": "l1", "only": "l1", // labels absent from the base
		"v": "v1",
	}
	for _, tc := range directedCoalesceCases() {
		seed := encodeDeltas(f, tc.ds, rename)
		if got, want := MergeDeltas(decodeDeltas(seed)...).Len(), MergeDeltas(tc.ds...).Len(); got != want {
			f.Fatalf("%s: seed decodes to %d ops, want %d", tc.name, got, want)
		}
		f.Add(seed)
	}
	base := coalesceBase()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCoalesce(t, base, decodeDeltas(data))
	})
}
