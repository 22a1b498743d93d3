package schemex_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"schemex"
)

// Example reproduces Figure 2 of the paper end to end: the manager/firm
// database is typed into two recursive classes under greatest-fixpoint
// semantics.
func Example() {
	g := schemex.NewGraph()
	g.Link("gates", "microsoft", "is-manager-of")
	g.Link("jobs", "apple", "is-manager-of")
	g.Link("microsoft", "gates", "is-managed-by")
	g.Link("apple", "jobs", "is-managed-by")
	g.LinkAtom("gates", "name", "Gates")
	g.LinkAtom("jobs", "name", "Jobs")
	g.LinkAtom("microsoft", "name", "Microsoft")
	g.LinkAtom("apple", "name", "Apple")

	res, err := schemex.Extract(g, schemex.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("types:", res.NumTypes(), "defect:", res.Defect())
	fmt.Println("gates is a", strings.Join(res.TypesOf("gates"), ", "))
	// Output:
	// types: 2 defect: 0
	// gates is a is-managed-by
}

// ExampleParseJSON infers a schema from a JSON document — arrays become
// repeated edges, scalars become sorted atomic values.
func ExampleParseJSON() {
	g, err := schemex.ParseJSON(strings.NewReader(
		`{"title": "Lore", "year": 1997, "authors": ["Widom", "McHugh"]}`), "paper")
	if err != nil {
		log.Fatal(err)
	}
	res, err := schemex.Extract(g, schemex.Options{K: 1, UseSorts: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Schema())
	// Output:
	// type class0 = ->authors[0:string] & ->title[0:string] & ->year[0:int]
}

// ExampleCheck validates data against a schema: under greatest-fixpoint
// semantics there can be excess but never deficit (§2 of the paper).
func ExampleCheck() {
	g := schemex.NewGraph()
	g.LinkAtom("rec1", "name", "x")
	g.LinkAtom("rec1", "mail", "y")
	g.LinkAtom("rec2", "name", "z") // mail missing: rec2 satisfies nothing

	report, err := schemex.Check(context.Background(), g, "type person = ->name[0] & ->mail[0]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("conforms:", report.Conforms())
	fmt.Println("|person| =", report.Types["person"], "unclassified:", report.Unclassified)
	// Output:
	// conforms: false
	// |person| = 1 unclassified: 1
}

// ExampleParseSchema canonicalizes a hand-written schema in arrow notation.
func ExampleParseSchema() {
	out, err := schemex.ParseSchema(`
		type firm   = ->employs[person] , ->name[0]
		type person = <-employs[firm] & ->age[0:int]
	`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
	// Output:
	// type firm = ->employs[person] & ->name[0]
	// type person = <-employs[firm] & ->age[0:int]
}

// ExampleResult_ClassifyNew types an object that arrives after extraction
// (§6 of the paper).
func ExampleResult_ClassifyNew() {
	g := schemex.NewGraph()
	for _, n := range []string{"a", "b", "c"} {
		g.LinkAtom(n, "name", n)
		g.LinkAtom(n, "mail", n+"@x")
	}
	res, err := schemex.Extract(g, schemex.Options{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	g.LinkAtom("late", "name", "late")
	g.LinkAtom("late", "mail", "late@x")
	fmt.Println(res.ClassifyNew("late", -1))
	// Output:
	// [class0]
}

// ExampleGraph_FindPath answers a path query naively; Result.FindPath
// answers it schema-guided.
func ExampleGraph_FindPath() {
	g := schemex.NewGraph()
	g.Link("group", "ada", "member")
	g.LinkAtom("ada", "name", "Ada")
	matches, err := g.FindPath("member.name")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(matches)
	// Output:
	// [group]
}

// ExampleSweepAnalysisContext explores the defect/size trade-off of §7.2 and
// picks the elbow.
func ExampleSweepAnalysisContext() {
	g := schemex.NewGraph()
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("r%d", i)
		g.LinkAtom(n, "name", "x")
		if i%2 == 0 {
			g.LinkAtom(n, "extra", "y")
		}
	}
	sw, err := schemex.SweepAnalysisContext(context.Background(), g, schemex.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range sw.Points {
		fmt.Printf("k=%d defect=%d\n", p.K, p.Defect)
	}
	// Output:
	// k=2 defect=0
	// k=1 defect=2
}
