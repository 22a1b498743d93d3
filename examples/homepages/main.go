// Homepages plays out the motivating scenario from the paper's
// introduction: the home pages of members of a group contain similar
// information (name, email, address, photo), but fields are missing from
// some pages and extra information appears on others. The example generates
// such irregular pages, runs the sensitivity analysis to pick a natural
// number of types, and prints the resulting approximate schema with its
// defect.
//
//	go run ./examples/homepages
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"schemex"
)

func main() {
	g := schemex.NewGraph()
	rng := rand.New(rand.NewSource(2026))

	// 60 member pages. Everyone has a name; email, address, photo and the
	// rest appear with varying regularity — some fields are rare extras.
	optional := []struct {
		label string
		prob  float64
	}{
		{"email", 0.95},
		{"address", 0.8},
		{"photo", 0.75},
		{"phone", 0.5},
		{"hobbies", 0.2},
		{"quote-of-the-day", 0.08},
	}
	for i := 0; i < 60; i++ {
		page := fmt.Sprintf("member%02d", i)
		g.LinkAtom(page, "name", fmt.Sprintf("Member %d", i))
		for _, f := range optional {
			if rng.Float64() < f.prob {
				g.LinkAtom(page, f.label, f.label+" of "+page)
			}
		}
	}
	// A few seminar pages with a different shape.
	for i := 0; i < 8; i++ {
		page := fmt.Sprintf("seminar%d", i)
		g.LinkAtom(page, "title", fmt.Sprintf("Seminar %d", i))
		g.LinkAtom(page, "speaker", fmt.Sprintf("Speaker %d", i))
		if rng.Float64() < 0.5 {
			g.LinkAtom(page, "slides", "slides.ps")
		}
	}

	fmt.Println("data:", g.Stats())

	// Sensitivity analysis (§7.2): defect and clustering distance as
	// functions of the number of types.
	sw, err := schemex.SweepAnalysisContext(context.Background(), g, schemex.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntypes  defect  distance")
	for i := len(sw.Points) - 1; i >= 0; i-- {
		p := sw.Points[i]
		fmt.Printf("%5d  %6d  %8.1f\n", p.K, p.Defect, p.TotalDistance)
	}
	fmt.Printf("\nsuggested number of types: %d\n\n", sw.Suggested)

	res, err := schemex.Extract(g, schemex.Options{K: sw.Suggested})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schema with %d types (perfect typing had %d):\n", res.NumTypes(), res.PerfectTypes())
	fmt.Print(res.Schema())
	fmt.Printf("\ndefect: %d (excess %d, deficit %d)\n", res.Defect(), res.Excess(), res.Deficit())
	for _, ti := range res.Types() {
		fmt.Printf("  %-12s %3d home objects, %d typed links\n", ti.Name, ti.Weight, ti.Size)
	}
}
