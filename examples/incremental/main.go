// Incremental demonstrates §6's treatment of objects that arrive after the
// typing has been extracted: new objects are assigned every type they
// satisfy completely, fall back to the closest type, or stay unclassified
// past a distance cutoff. It also shows schema conformance checking — under
// greatest-fixpoint semantics a perfect schema admits excess but never
// deficit, so drift shows up as excess facts and unclassified objects.
//
//	go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	"schemex"
)

func main() {
	g := schemex.NewGraph()
	for i := 0; i < 8; i++ {
		page := fmt.Sprintf("member%d", i)
		g.LinkAtom(page, "name", fmt.Sprintf("Member %d", i))
		g.LinkAtom(page, "email", fmt.Sprintf("m%d@db", i))
		if i%2 == 0 {
			g.LinkAtom(page, "photo", "photo.gif")
		}
	}

	res, err := schemex.Extract(g, schemex.Options{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	schema := res.Schema()
	fmt.Println("schema extracted from the first crawl:")
	fmt.Print(schema)

	// The next crawl discovers new pages of varying fidelity.
	g.LinkAtom("newcomer", "name", "Newcomer")
	g.LinkAtom("newcomer", "email", "new@db")
	g.LinkAtom("newcomer", "photo", "photo.gif")

	g.LinkAtom("minimal", "name", "Minimal Page")

	g.LinkAtom("spam", "buy-now", "$$$")
	g.LinkAtom("spam", "click-here", "link")

	fmt.Println("\nclassifying the newly crawled pages (§6):")
	for _, page := range []string{"newcomer", "minimal", "spam"} {
		exact := res.ClassifyNew(page, -1)
		strict := res.ClassifyNew(page, 1) // allow at most one missing/extra link
		fmt.Printf("  %-9s -> %v   (with cutoff 1: %v)\n", page, exact, strict)
	}

	// Conformance report for the grown graph against the old schema.
	report, err := schemex.Check(context.Background(), g, schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconformance of the grown data against the old schema:")
	for name, n := range report.Types {
		fmt.Printf("  |%s| = %d\n", name, n)
	}
	fmt.Printf("  excess facts: %d, unclassified objects: %d, conforms: %v\n",
		report.Excess, report.Unclassified, report.Conforms())
	fmt.Println("\nWhen too many new objects fit poorly, re-run extraction —")
	fmt.Println("the paper leaves 'how many is too many' open (§6).")
}
