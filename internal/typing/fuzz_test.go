package typing

import (
	"fmt"
	"strings"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/graph"
)

// FuzzParse checks the arrow-notation parser never panics, and that every
// accepted program validates and survives a print/parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"type a = ->x[0]",
		"type a = <-x[b] & ->y[0]\ntype b = ->z[a]",
		"type a = ->x[0:int] & ->s[0=\"Male\"]",
		"a = ->x[0], ->y[0]",
		"type \"weird name\" = ->\"weird label\"[0]",
		"# comment\ntype a = ->x[0] // trailing",
		"type t = ->x[0:string=\"v\"]",
		// Adversarial shapes: giant names, wide conjunctions, recursion.
		"type " + strings.Repeat("n", 1<<10) + " = ->" + strings.Repeat("l", 1<<10) + "[0]",
		"type a = " + strings.Repeat("->x[a] & ", 200) + "->y[0]",
		"type a = ->x[b]\ntype b = ->x[a]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted program invalid: %v (input %q)", verr, src)
		}
		rendered := p.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, rendered)
		}
		if p2.String() != rendered {
			t.Fatalf("print/parse not stable:\n%s\nvs\n%s", rendered, p2.String())
		}
	})
}

// gfpValues are the atomic values a fuzzed graph draws from: every sort,
// with texts shared across sorts ("7", "true") so value and sort constraints
// have to be told apart.
var gfpValues = []graph.Value{
	{Sort: graph.SortString, Text: "Male"},
	{Sort: graph.SortString, Text: "Female"},
	{Sort: graph.SortString, Text: "7"},
	{Sort: graph.SortInt, Text: "7"},
	{Sort: graph.SortInt, Text: "30"},
	{Sort: graph.SortFloat, Text: "1.5"},
	{Sort: graph.SortBool, Text: "true"},
	{Sort: graph.SortString, Text: "true"},
}

// gfpLabels is a fuzzed case's label alphabet; gfpAbsent never labels an
// edge of a fuzzed graph.
var gfpLabels = []string{"a", "b", "c", "d", "e"}

const gfpAbsent = "absent"

// Link kinds of a fuzzed program.
const (
	gfpOutClass = iota
	gfpInClass
	gfpAtomic
	gfpAtomicSort
	gfpAtomicValue
	gfpAbsentLabel
	gfpKinds
)

// gfpReader hands out fuzz bytes, then zeros once they run out.
type gfpReader struct {
	b []byte
}

func (r *gfpReader) next(mod int) int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0])
	r.b = r.b[1:]
	return v % mod
}

// decodeGFPCase turns fuzz bytes into a graph of at most 24 objects over at
// most five labels and a program of at most four types. The graph is: the
// object count, the count of atomic objects (the highest IDs) and one value
// index each, then an edge count and (from complex, to any, label) triples.
// The program is: a type count, then per type a link count and per link
// (kind, label, target, sort, value). Every kind of link occurs: class
// targets in both directions, plain, sort- and value-constrained atomic
// targets, and a label absent from the data; a link count of zero gives a
// type with no links.
func decodeGFPCase(data []byte) (*graph.DB, *Program) {
	r := &gfpReader{b: data}
	n := 2 + r.next(23)
	nAtomic := r.next(n - 1) // at least one complex object
	nComplex := n - nAtomic
	db := graph.New()
	for i := 0; i < n; i++ {
		db.Intern(fmt.Sprintf("o%d", i))
	}
	for i := nComplex; i < n; i++ {
		if err := db.SetAtomic(graph.ObjectID(i), gfpValues[r.next(len(gfpValues))]); err != nil {
			panic(err)
		}
	}
	for e := r.next(64); e > 0; e-- {
		from, to, lab := graph.ObjectID(r.next(nComplex)), graph.ObjectID(r.next(n)), gfpLabels[r.next(len(gfpLabels))]
		_ = db.AddLink(from, to, lab) // duplicates are refused; skip them
	}
	p := NewProgram()
	nT := 1 + r.next(4)
	for ti := 0; ti < nT; ti++ {
		ty := &Type{Name: fmt.Sprintf("t%d", ti)}
		for li := r.next(5); li > 0; li-- {
			kind, lab, target := r.next(gfpKinds), gfpLabels[r.next(len(gfpLabels))], r.next(nT)
			sort, value := SortConstraint(r.next(int(SortBool)+1)), gfpValues[r.next(len(gfpValues))].Text
			l := TypedLink{Dir: Out, Label: lab, Target: AtomicTarget}
			switch kind {
			case gfpOutClass:
				l.Target = target
			case gfpInClass:
				l.Dir, l.Target = In, target
			case gfpAtomicSort:
				l.Sort = max(sort, SortString)
			case gfpAtomicValue:
				l.Sort, l.Value, l.HasValue = sort, value, true
			case gfpAbsentLabel:
				l.Label, l.Target = gfpAbsent, target
			}
			ty.Links = append(ty.Links, l)
		}
		p.Add(ty)
	}
	return db, p
}

// gfpCase is a readable fuzz seed: the inverse of decodeGFPCase.
type gfpCase struct {
	n      int
	values []int    // value indexes of the atomic objects, the highest IDs
	edges  [][3]int // (from, to, label index)
	types  [][][5]int
}

func (c gfpCase) encode() []byte {
	b := []byte{byte(c.n - 2), byte(len(c.values))}
	for _, v := range c.values {
		b = append(b, byte(v))
	}
	b = append(b, byte(len(c.edges)))
	for _, e := range c.edges {
		b = append(b, byte(e[0]), byte(e[1]), byte(e[2]))
	}
	b = append(b, byte(len(c.types)-1))
	for _, links := range c.types {
		b = append(b, byte(len(links)))
		for _, l := range links {
			b = append(b, byte(l[0]), byte(l[1]), byte(l[2]), byte(l[3]), byte(l[4]))
		}
	}
	return b
}

// FuzzEvalGFP is a differential fuzzer for the fixpoint: on a small fuzzed
// graph and program, EvalGFP serial and on every CPU must equal the
// reference EvalGFPNaive. It is the only comparison of the sort- and
// value-constrained witness keys with the reference evaluator.
func FuzzEvalGFP(f *testing.F) {
	// Figure 2: a manager and a firm with names; the graph adds a nameless
	// firm, whose manager the cascade must drop.
	f.Add(gfpCase{n: 8, values: []int{0, 1, 2}, edges: [][3]int{
		{0, 1, 0}, {1, 0, 1}, {0, 5, 2}, {1, 6, 2},
		{2, 3, 0}, {3, 2, 1}, {2, 7, 2},
	}, types: [][][5]int{
		{{gfpOutClass, 0, 1, 0, 0}, {gfpAtomic, 2, 0, 0, 0}},
		{{gfpInClass, 0, 0, 0, 0}, {gfpOutClass, 1, 0, 0, 0}, {gfpAtomic, 2, 0, 0, 0}},
	}}.encode())
	// The people database: persons split by the value of their sex.
	f.Add(gfpCase{n: 8, values: []int{0, 0, 1, 1}, edges: [][3]int{
		{0, 4, 3}, {1, 5, 3}, {2, 6, 3}, {3, 7, 3},
	}, types: [][][5]int{
		{{gfpAtomicValue, 3, 0, 0, 0}},
		{{gfpAtomicValue, 3, 0, 1, 1}},
		{},
	}}.encode())
	// A session's sort change: four members of a root, one with an int age
	// and three whose ages became strings, typed with sort constraints.
	f.Add(gfpCase{n: 9, values: []int{4, 2, 0, 7}, edges: [][3]int{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0},
		{1, 5, 1}, {2, 6, 1}, {3, 7, 1}, {4, 8, 1},
	}, types: [][][5]int{
		{{gfpOutClass, 0, 1, 0, 0}, {gfpOutClass, 0, 2, 0, 0}},
		{{gfpInClass, 0, 0, 0, 0}, {gfpAtomicSort, 1, 0, 2, 0}},
		{{gfpInClass, 0, 0, 0, 0}, {gfpAtomicSort, 1, 0, 1, 0}},
		{{gfpAbsentLabel, 4, 3, 0, 0}},
	}}.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		db, p := decodeGFPCase(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded an invalid program: %v", err)
		}
		want := EvalGFPNaive(p, db)
		snap, err := compile.Compile(db, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			got, err := EvalGFP(p, snap, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("workers=%d: EvalGFP differs from EvalGFPNaive\nprogram:\n%s", workers, p)
			}
		}
	})
}
