package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundtrip(t *testing.T) {
	db := figure2DB(t)
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDB(db, back) {
		t.Fatal("roundtrip changed the database")
	}
	if o, ok := sameIDs(db, back); !ok {
		t.Fatalf("roundtrip renumbered object %d (%q)", o, db.Name(o))
	}
}

func TestRoundtripQuoting(t *testing.T) {
	db := New()
	db.Link("an object", "other \"thing\"", "label with spaces")
	db.Atom("v v", "multi word value\twith tab")
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reading %q: %v", buf.String(), err)
	}
	if !sameDB(db, back) {
		t.Fatal("quoted roundtrip changed the database")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"unknown record", "frob a b c\n"},
		{"short link", "link a b\n"},
		{"long link", "link a b c d\n"},
		{"bad sort", "atomic a frobsort v\n"},
		{"unterminated quote", "link \"a b c\n"},
		{"atomic with outgoing", "link a b l\natomic a string v\n"},
		{"conflicting atomic value", "atomic a string v1\natomic a string v2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(c.input)); err == nil {
				t.Fatalf("Read(%q) succeeded, want error", c.input)
			}
		})
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\nlink a b l\n  \natomic c int 42\n"
	db, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumLinks() != 1 || db.NumAtomic() != 1 {
		t.Fatalf("got %d links, %d atomic; want 1, 1", db.NumLinks(), db.NumAtomic())
	}
	v, _ := db.AtomicValue(db.Lookup("c"))
	if v.Sort != SortInt || v.Text != "42" {
		t.Fatalf("atomic value = %+v", v)
	}
}

func TestInferSort(t *testing.T) {
	cases := []struct {
		in   string
		want Sort
	}{
		{"42", SortInt},
		{"-17", SortInt},
		{"3.14", SortFloat},
		{"true", SortBool},
		{"false", SortBool},
		{"hello", SortString},
		{"", SortString},
		{"12abc", SortString},
	}
	for _, c := range cases {
		if got := InferSort(c.in); got != c.want {
			t.Errorf("InferSort(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRoundtripRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		db := randomTestDB(rand.New(rand.NewSource(seed)), 20, 40)
		var buf bytes.Buffer
		if err := db.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return sameDB(db, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// randomTestDB builds a random valid database: some complex objects with
// random edges among themselves, plus atomic leaves.
func randomTestDB(rng *rand.Rand, nComplex, nEdges int) *DB {
	db := New()
	labels := []string{"a", "b", "c", "d e", "f"}
	names := make([]string, nComplex)
	for i := range names {
		names[i] = "o" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		db.Intern(names[i])
	}
	for i := 0; i < nEdges; i++ {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		if from == to {
			continue
		}
		db.Link(from, to, labels[rng.Intn(len(labels))])
	}
	for i := 0; i < nComplex/2; i++ {
		owner := names[rng.Intn(len(names))]
		atom := "atom" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		if db.Lookup(atom) != NoObject {
			continue
		}
		db.Atom(atom, "value-"+atom)
		db.Link(owner, atom, labels[rng.Intn(len(labels))])
	}
	return db
}

// sameDB compares two databases by fact content (names, links, atomics).
// sameIDs reports whether every ObjectID names the same object in a and b,
// returning the first ID that does not.
func sameIDs(a, b *DB) (ObjectID, bool) {
	if a.NumObjects() != b.NumObjects() {
		return NoObject, false
	}
	for id := 0; id < a.NumObjects(); id++ {
		if o := ObjectID(id); a.Name(o) != b.Name(o) {
			return o, false
		}
	}
	return NoObject, true
}

func sameDB(a, b *DB) bool {
	if a.NumObjects() != b.NumObjects() || a.NumLinks() != b.NumLinks() || a.NumAtomic() != b.NumAtomic() {
		return false
	}
	same := true
	a.Links(func(e Edge) {
		bf, bt := b.Lookup(a.Name(e.From)), b.Lookup(a.Name(e.To))
		if bf == NoObject || bt == NoObject || !b.HasEdge(bf, bt, e.Label) {
			same = false
		}
	})
	for _, o := range a.AtomicObjects() {
		bo := b.Lookup(a.Name(o))
		if bo == NoObject {
			return false
		}
		av, _ := a.AtomicValue(o)
		bv, ok := b.AtomicValue(bo)
		if !ok || av != bv {
			return false
		}
	}
	return same
}
