// Property tests for the prepared-extraction path: Prepare + ExtractPrepared
// must be observationally identical to Extract — byte-identical schemas and
// identical per-object assignments — across the Table 1 synthetic shapes,
// generator seeds, serial and parallel execution, and repeated extractions
// over one Prepared (which exercises the Stage 1 memo).
package schemex

import (
	"context"
	"fmt"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/synth"
)

func assertSameExtraction(t *testing.T, db *graph.DB, cold, warm *Result, label string) {
	t.Helper()
	if cold.Schema() != warm.Schema() {
		t.Fatalf("%s: schemas differ:\ncold:\n%s\nwarm:\n%s", label, cold.Schema(), warm.Schema())
	}
	if cold.Defect() != warm.Defect() || cold.Unclassified() != warm.Unclassified() {
		t.Fatalf("%s: defect %d/%d vs %d/%d", label,
			cold.Defect(), cold.Unclassified(), warm.Defect(), warm.Unclassified())
	}
	ca, wa := cold.Internal().Assignment, warm.Internal().Assignment
	for _, o := range db.ComplexObjects() {
		if fmt.Sprint(ca.Of(o)) != fmt.Sprint(wa.Of(o)) {
			t.Fatalf("%s: assignment of %s differs: %v vs %v",
				label, db.Name(o), ca.Of(o), wa.Of(o))
		}
	}
}

func TestPrepareExtractEquivalence(t *testing.T) {
	type tc struct {
		name string
		db   *graph.DB
		k    int
	}
	var cases []tc
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("DB%d", p.DBNo), db, p.Intended()})
	}
	for _, seed := range []int64{0, 3} {
		db, _ := dbg.Generate(dbg.Options{Seed: seed})
		cases = append(cases, tc{fmt.Sprintf("dbg-seed%d", seed), db, 6})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g := &Graph{db: c.db}
			prep, err := PrepareOptions(context.Background(), g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var reference *Result
			for _, par := range []int{1, 0} {
				opts := Options{K: c.k, Parallelism: par}
				label := fmt.Sprintf("parallelism=%d", par)
				cold, err := Extract(g, opts)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				warm, err := ExtractPreparedContext(context.Background(), prep, opts)
				if err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				assertSameExtraction(t, c.db, cold, warm, label)
				// A second prepared run replays the memoized Stage 1; it
				// must change nothing.
				again, err := ExtractPreparedContext(context.Background(), prep, opts)
				if err != nil {
					t.Fatalf("%s: warm repeat: %v", label, err)
				}
				assertSameExtraction(t, c.db, warm, again, label+" repeat")
				if reference == nil {
					reference = cold
				} else if reference.Schema() != cold.Schema() {
					t.Fatalf("%s: schema differs across parallelism settings", label)
				}
			}
			// A K ladder over the same Prepared: every rung reads its typing
			// off the merge run the first K left behind, and must match a
			// fresh extraction at that K. Auto-K rides along on one bipartite
			// and one graph-shaped case.
			n := reference.PerfectTypes()
			ladder := []int{c.k + 2, n + 5, 1, c.k, n}
			if c.name == "DB1" || c.name == "dbg-seed0" {
				ladder = append(ladder, 0)
			}
			for _, k := range ladder {
				opts := Options{K: k}
				label := fmt.Sprintf("ladder K=%d", k)
				warm, err := ExtractPreparedContext(context.Background(), prep, opts)
				if err != nil {
					t.Fatalf("%s: warm: %v", label, err)
				}
				if in := warm.Incremental(); !in.Stage2Warm && !in.FastPath {
					t.Fatalf("%s: Stage 2 did not adopt the retained run: %+v", label, in)
				}
				cold, err := Extract(g, opts)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				assertSameExtraction(t, c.db, cold, warm, label)
				if cold.Internal().TotalDistance != warm.Internal().TotalDistance || cold.AutoK() != warm.AutoK() {
					t.Fatalf("%s: total distance %v vs %v, AutoK %d vs %d", label,
						cold.Internal().TotalDistance, warm.Internal().TotalDistance, cold.AutoK(), warm.AutoK())
				}
			}
			// Changing a Stage-1-relevant option over the same Prepared must
			// recompute, not replay, the memo.
			sorted, err := ExtractPreparedContext(context.Background(), prep, Options{K: c.k, UseSorts: true})
			if err != nil {
				t.Fatal(err)
			}
			coldSorted, err := Extract(g, Options{K: c.k, UseSorts: true})
			if err != nil {
				t.Fatal(err)
			}
			assertSameExtraction(t, c.db, coldSorted, sorted, "useSorts")
		})
	}
}

func TestPrepareSweepEquivalence(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	g := &Graph{db: db}
	prep, err := PrepareOptions(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 0} {
		opts := Options{Parallelism: par}
		cold, err := SweepAnalysisContext(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := SweepPreparedContext(context.Background(), prep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(cold.Points) != fmt.Sprint(warm.Points) || cold.Suggested != warm.Suggested {
			t.Fatalf("parallelism=%d: sweep curves differ", par)
		}
	}
}
