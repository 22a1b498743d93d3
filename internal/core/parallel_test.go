package core

import (
	"context"
	"reflect"
	"testing"

	"schemex/internal/cluster"
	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/synth"
)

// snapOf compiles db with the automatic layout on every CPU.
func snapOf(tb testing.TB, db *graph.DB) *compile.Snapshot {
	tb.Helper()
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// parallelFixtures returns the datasets the determinism regression runs on:
// a bipartite preset, a recursive overlapping preset, and two DBG seeds.
func parallelFixtures(t *testing.T) map[string]*graph.DB {
	t.Helper()
	out := make(map[string]*graph.DB)
	presets := synth.Presets()
	for _, i := range []int{0, 6} { // DB1 (bipartite) and DB7 (graph, overlap)
		db, err := presets[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		out[presets[i].Spec.Name] = db
	}
	for _, seed := range []int64{0, 9} {
		db, _ := dbg.Generate(dbg.Options{Seed: seed})
		out["dbg"+string(rune('0'+seed))] = db
	}
	return out
}

// TestExtractParallelismDeterminism asserts the acceptance property of
// Options.Parallelism: the Stage 2 merge trace, the final program, the
// mapping, and the recast defect are bit-identical for worker counts 1, 2,
// and 8 on every fixture.
func TestExtractParallelismDeterminism(t *testing.T) {
	for name, db := range parallelFixtures(t) {
		type outcome struct {
			program string
			mapping []int
			defect  int
			excess  int
			deficit int
			uncl    int
			dist    float64
		}
		run := func(p int) (outcome, []cluster.Step) {
			res, err := Extract(db, Options{K: 5, Parallelism: p})
			if err != nil {
				t.Fatalf("%s (p=%d): %v", name, p, err)
			}
			// Re-run the greedy engine alone to compare full traces: Extract
			// does not expose its engine, but the trace is a pure function of
			// (program, config), both of which Extract derives
			// deterministically.
			g := cluster.NewGreedy(res.Stage1.Program.Clone(), nil, cluster.Config{Parallelism: p}, nil)
			g.RunTo(5)
			return outcome{
				program: res.Program.String(),
				mapping: res.Mapping,
				defect:  res.Defect.Total(),
				excess:  res.Defect.Excess,
				deficit: res.Defect.Deficit,
				uncl:    res.Unclassified,
				dist:    res.TotalDistance,
			}, g.Trace()
		}
		ref, refTrace := run(1)
		for _, p := range []int{2, 8} {
			got, trace := run(p)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: result diverges at Parallelism=%d:\nserial:   %+v\nparallel: %+v",
					name, p, ref, got)
			}
			if !reflect.DeepEqual(trace, refTrace) {
				t.Errorf("%s: Stage 2 trace diverges at Parallelism=%d", name, p)
			}
		}
	}
}

// TestStage1ParallelismDeterminism: the minimal perfect typing is identical
// at any worker count (program text, homes, and extent).
func TestStage1ParallelismDeterminism(t *testing.T) {
	for name, db := range parallelFixtures(t) {
		ref, err := perfect.Minimal(snapOf(t, db), perfect.Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 8} {
			got, err := perfect.Minimal(snapOf(t, db), perfect.Options{Parallelism: p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Program.String() != ref.Program.String() {
				t.Errorf("%s: Stage 1 program diverges at Parallelism=%d", name, p)
			}
			if !reflect.DeepEqual(got.Home, ref.Home) {
				t.Errorf("%s: Stage 1 homes diverge at Parallelism=%d", name, p)
			}
			if !got.Extent.Equal(ref.Extent) {
				t.Errorf("%s: Stage 1 extent diverges at Parallelism=%d", name, p)
			}
		}
	}
}

// TestSweepParallelismDeterminism: the full sensitivity curve is identical
// at any worker count.
func TestSweepParallelismDeterminism(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{Seed: 3})
	ref, err := Sweep(context.Background(), db, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		got, err := Sweep(context.Background(), db, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, ref.Points) {
			t.Errorf("sweep curve diverges at Parallelism=%d", p)
		}
	}
}
