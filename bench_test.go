// Benchmarks regenerating the paper's evaluation (§7): one benchmark per
// table/figure plus the ablations called out in DESIGN.md. Custom metrics
// (defect, perfect-types, …) are reported alongside timing so the shape of
// each result is visible in `go test -bench . -benchmem` output; the
// experiment tables themselves are printed by cmd/experiments.
package schemex

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"schemex/internal/bisim"
	"schemex/internal/cluster"
	"schemex/internal/compile"
	"schemex/internal/core"
	"schemex/internal/dataguide"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/query"
	"schemex/internal/recast"
	"schemex/internal/synth"
	"schemex/internal/typing"
)

// evalGFP compiles db and evaluates p's greatest fixpoint serially: the whole
// cost of a one-off conformance check.
func evalGFP(tb testing.TB, p *typing.Program, db *graph.DB) *typing.Extent {
	tb.Helper()
	snap, err := compile.Compile(db, 0, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ext, err := typing.EvalGFP(p, snap, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return ext
}

// snapOf compiles db with the automatic layout on every CPU.
func snapOf(tb testing.TB, db *graph.DB) *compile.Snapshot {
	tb.Helper()
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// BenchmarkTable1 runs the full three-stage pipeline on each of the eight
// synthetic datasets of Table 1, reporting the measured perfect-type count
// and defect next to the timing.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for _, p := range synth.Presets() {
		p := p
		b.Run(fmt.Sprintf("DB%d", p.DBNo), func(b *testing.B) {
			b.ReportAllocs()
			db, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = core.Extract(db, core.Options{K: p.Intended()})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PerfectTypes), "perfect-types")
			b.ReportMetric(float64(res.Defect.Total()), "defect")
		})
	}
}

// BenchmarkFigure1DBG extracts the 6-type optimal typing of the DBG
// dataset (Figure 1).
func BenchmarkFigure1DBG(b *testing.B) {
	b.ReportAllocs()
	db, roles := dbg.Generate(dbg.Options{})
	var res *core.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = core.Extract(db, core.Options{K: 6, NameFor: roles.NameFor})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PerfectTypes), "perfect-types")
	b.ReportMetric(float64(res.Defect.Total()), "defect")
}

// BenchmarkPrepareOnceExtractMany contrasts serving repeated extraction
// requests cold (parse state rebuilt per call: Extract compiles a snapshot
// each time) against warm (Prepare once, ExtractPrepared per call, sharing
// the compiled snapshot and the Stage 1 memo). The warm path is what the
// HTTP API's snapshot cache exercises on repeat traffic.
func BenchmarkPrepareOnceExtractMany(b *testing.B) {
	for _, p := range synth.Presets() {
		p := p
		db, err := p.Build()
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{K: p.Intended()}
		b.Run(fmt.Sprintf("DB%d/cold", p.DBNo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Extract(db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DB%d/warm", p.DBNo), func(b *testing.B) {
			b.ReportAllocs()
			prep, err := core.Prepare(context.Background(), db, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ExtractPrepared(context.Background(), prep, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6Sweep runs the full sensitivity sweep on DBG (Figure 6):
// clustering from the 53-type perfect typing down to one type, recasting
// and measuring the defect at every size.
func BenchmarkFigure6Sweep(b *testing.B) {
	b.ReportAllocs()
	db, roles := dbg.Generate(dbg.Options{})
	var sw *core.SweepResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err = core.Sweep(context.Background(), db, core.Options{NameFor: roles.NameFor})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sw.Knee()), "suggested-k")
	if p, ok := sw.At(6); ok {
		b.ReportMetric(float64(p.Defect), "defect-at-6")
	}
	if p, ok := sw.At(1); ok {
		b.ReportMetric(float64(p.Defect), "defect-at-1")
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkGFP compares the two specialized greatest-fixpoint evaluators on
// the Stage 1 program Q_D of the DBG dataset: the straightforward downward
// iteration of §4 vs the support-counting propagation.
func BenchmarkGFP(b *testing.B) {
	b.ReportAllocs()
	db, _ := dbg.Generate(dbg.Options{Scale: 2})
	qd, _, err := perfect.BuildQD(snapOf(b, db), typing.PictureOpts{}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			typing.EvalGFPNaive(qd, db)
		}
	})
	b.Run("support-count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evalGFP(b, qd, db)
		}
	})
}

// BenchmarkGFPChain compares the evaluators on their worst-case-separating
// workload: a long next-chain typed by a recursive rule, where the naive
// method needs one full round per removed object (quadratic) while support
// counting propagates each removal in constant work (linear). The DBG
// workload above shows the flip side: on shape-regular data the naive
// method converges in a few rounds and wins.
func BenchmarkGFPChain(b *testing.B) {
	b.ReportAllocs()
	const n = 2000
	db := graphChain(n)
	prog := typing.MustParse(`type cell = ->next[cell] & ->val[0]`)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			typing.EvalGFPNaive(prog, db)
		}
	})
	b.Run("support-count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evalGFP(b, prog, db)
		}
	})
}

// graphChain builds o0 -> o1 -> ... -> o(n-1), each with a val attribute
// except the last, so the recursive cell type unravels from the tail.
func graphChain(n int) *graph.DB {
	db := graph.New()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("o%d", i)
		if i+1 < n {
			db.Link(name, fmt.Sprintf("o%d", i+1), "next")
			db.LinkAtom(name, "val", name+".v", "x")
		}
	}
	return db
}

// BenchmarkStage1 compares the GFP-based minimal perfect typing against the
// bisimulation partition refinement (§4's comparison point).
func BenchmarkStage1(b *testing.B) {
	b.ReportAllocs()
	db, _ := dbg.Generate(dbg.Options{Scale: 2})
	b.Run("gfp-classes", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			res, err := perfect.Minimal(snapOf(b, db), perfect.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			n = res.Program.Len()
		}
		b.ReportMetric(float64(n), "classes")
	})
	b.Run("bisimulation", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			part, err := bisim.Compute(db, nil)
			if err != nil {
				b.Fatal(err)
			}
			n = part.NumBlocks()
		}
		b.ReportMetric(float64(n), "blocks")
	})
}

// BenchmarkDeltaSweep runs the DBG pipeline at k=6 under each of the five
// candidate distance functions of §5.2, reporting the end-to-end defect so
// the functions' quality can be compared, not just their speed.
func BenchmarkDeltaSweep(b *testing.B) {
	b.ReportAllocs()
	db, roles := dbg.Generate(dbg.Options{})
	for _, d := range cluster.Deltas {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Extract(db, core.Options{K: 6, Delta: d, NameFor: roles.NameFor})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Defect.Total()), "defect")
		})
	}
}

// BenchmarkStage2 compares the two Stage 2 engines end to end on DBG at
// k=6: the greedy coalescing the paper uses ("because of its lower time
// complexity and implementation ease") against the local-search k-median
// heuristic of its citation [12]. Defect of the recast assignment is the
// quality metric.
func BenchmarkStage2(b *testing.B) {
	b.ReportAllocs()
	db, roles := dbg.Generate(dbg.Options{})
	stage1, err := perfect.Minimal(snapOf(b, db), perfect.Options{NameFor: roles.NameFor}, nil)
	if err != nil {
		b.Fatal(err)
	}
	homes := func(mapping []int) map[graph.ObjectID][]int {
		out := make(map[graph.ObjectID][]int, len(stage1.Home))
		for o, h := range stage1.Home {
			if c := mapping[h]; c != cluster.EmptySlot {
				out[o] = []int{c}
			}
		}
		return out
	}
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		var d int
		for i := 0; i < b.N; i++ {
			g := cluster.NewGreedy(stage1.Program.Clone(), nil, cluster.Config{}, nil)
			g.RunTo(6)
			prog, mapping := g.Program()
			rc, _, err := recast.Recast(snapOf(b, db), prog, homes(mapping), recast.DefaultOptions(), nil)
			if err != nil {
				b.Fatal(err)
			}
			d = rc.Defect.Total()
		}
		b.ReportMetric(float64(d), "defect")
	})
	b.Run("local-search", func(b *testing.B) {
		b.ReportAllocs()
		var d int
		for i := 0; i < b.N; i++ {
			ls := cluster.LocalSearchKMedian(stage1.Program, 6, 0, 0)
			prog, mapping := ls.Materialize(stage1.Program)
			rc, _, err := recast.Recast(snapOf(b, db), prog, homes(mapping), recast.DefaultOptions(), nil)
			if err != nil {
				b.Fatal(err)
			}
			d = rc.Defect.Total()
		}
		b.ReportMetric(float64(d), "defect")
	})
}

// BenchmarkDatalogVsSpecialized compares the generic datalog GFP engine
// against the specialized typing evaluator on the Figure 1 six-type program
// over DBG — the cost of generality.
func BenchmarkDatalogVsSpecialized(b *testing.B) {
	b.ReportAllocs()
	db, roles := dbg.Generate(dbg.Options{})
	res, err := core.Extract(db, core.Options{K: 6, NameFor: roles.NameFor})
	if err != nil {
		b.Fatal(err)
	}
	prog := res.Program
	b.Run("specialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			evalGFP(b, prog, db)
		}
	})
	b.Run("datalog-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := typing.EvalGFPDatalog(prog, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreedyClustering isolates Stage 2 on the largest synthetic
// dataset (DB7: 303 perfect types), the dominant cost of the pipeline.
func BenchmarkGreedyClustering(b *testing.B) {
	b.ReportAllocs()
	p := synth.Presets()[6]
	db, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	stage1, err := perfect.Minimal(snapOf(b, db), perfect.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := cluster.NewGreedy(stage1.Program.Clone(), nil, cluster.Config{}, nil)
		g.RunTo(p.Intended())
	}
}

// BenchmarkQuery compares naive path-query evaluation (scan every object)
// against schema-guided evaluation (solve the path over the extracted
// typing first, then inspect only objects of realizable types) — the
// paper's §1 motivation that structure speeds up query processing. The
// guide is built once, like an index.
func BenchmarkQuery(b *testing.B) {
	b.ReportAllocs()
	db, _ := dbg.Generate(dbg.Options{Scale: 8})
	stage1, err := perfect.Minimal(snapOf(b, db), perfect.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	guide := query.NewGuide(db, stage1.Program, stage1.Extent.Member)
	paths := map[string]query.Path{
		"degree.school":   query.MustParsePath("degree.school"),
		"closure-ps":      query.MustParsePath("#.postscript"),
		"advisor-2hop":    query.MustParsePath("advisor.birthday.year"),
		"project-members": query.MustParsePath("project.project-member.name"),
	}
	for name, p := range paths {
		p := p
		b.Run("naive/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(query.Find(db, p))
			}
			b.ReportMetric(float64(n), "matches")
		})
		b.Run("guided/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(guide.Find(p))
			}
			b.ReportMetric(float64(n), "matches")
			b.ReportMetric(float64(guide.CandidateCount(p)), "candidates")
		})
		b.Run("trusted/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(guide.FindTrusted(p))
			}
			b.ReportMetric(float64(n), "matches")
		})
	}
}

// BenchmarkScale measures the full pipeline as the DBG dataset grows
// (populations ×1, ×4, ×16; the shape quotient, and therefore the number of
// perfect types, stays fixed at 53).
func BenchmarkScale(b *testing.B) {
	b.ReportAllocs()
	for _, scale := range []int{1, 4, 16} {
		scale := scale
		b.Run(fmt.Sprintf("dbg-x%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			db, roles := dbg.Generate(dbg.Options{Scale: scale})
			b.ReportMetric(float64(db.NumObjects()), "objects")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Extract(db, core.Options{K: 6, NameFor: roles.NameFor}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSummarySizes compares the sizes of competing structure
// summaries on DBG: the strong DataGuide of the related work [10] (exact,
// outgoing-only, unique roles) against the minimal perfect typing and the
// 6-type approximate typing — the paper's argument that exact summaries are
// near data-sized on irregular data.
func BenchmarkSummarySizes(b *testing.B) {
	b.ReportAllocs()
	db, _ := dbg.Generate(dbg.Options{})
	b.Run("dataguide", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n = dataguide.Build(db, nil).NumNodes()
		}
		b.ReportMetric(float64(n), "nodes")
	})
	b.Run("perfect-typing", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			res, err := perfect.Minimal(snapOf(b, db), perfect.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			n = res.Program.Len()
		}
		b.ReportMetric(float64(n), "types")
	})
	b.Run("approximate-typing", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			res, err := core.Extract(db, core.Options{K: 6})
			if err != nil {
				b.Fatal(err)
			}
			n = res.Program.Len()
		}
		b.ReportMetric(float64(n), "types")
	})
}

// BenchmarkMultiRoleDecomposition isolates the §4.2 cover search (Remark
// 4.4: O(n²) in the number of types).
func BenchmarkMultiRoleDecomposition(b *testing.B) {
	b.ReportAllocs()
	db, _ := dbg.Generate(dbg.Options{})
	stage1, err := perfect.Minimal(snapOf(b, db), perfect.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfect.FindCovers(stage1.Program)
	}
}

// --- Parallelism ablations ----------------------------------------------
//
// Each stage's worker pool against the exact serial code path
// (Parallelism: 1). Results are bit-identical by construction (see the
// determinism tests in internal/core); these benchmarks measure only the
// cost/benefit of the fan-out on the current machine.

// stageWorkerCounts returns the ablation points: the serial baseline and
// one worker per CPU (identical on a single-CPU machine, where the pool
// should then cost ~nothing).
func stageWorkerCounts() map[string]int {
	return map[string]int{"serial": 1, "numcpu": runtime.GOMAXPROCS(0)}
}

// BenchmarkStage1Parallelism ablates the Stage 1 worker pool: Q_D candidate
// construction and GFP support seeding, serial vs one worker per CPU.
func BenchmarkStage1Parallelism(b *testing.B) {
	db, _ := dbg.Generate(dbg.Options{Scale: 2})
	db.Freeze()
	for name, workers := range stageWorkerCounts() {
		workers := workers
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := perfect.Minimal(snapOf(b, db), perfect.Options{Parallelism: workers}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStage2Parallelism ablates the Stage 2 worker pool on DB7 (303
// perfect types), serial vs one worker per CPU. The pool only seeds the
// distance matrix; the merge steps after it run inline at either setting.
func BenchmarkStage2Parallelism(b *testing.B) {
	p := synth.Presets()[6]
	db, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	stage1, err := perfect.Minimal(snapOf(b, db), perfect.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for name, workers := range stageWorkerCounts() {
		workers := workers
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := cluster.NewGreedy(stage1.Program.Clone(), nil, cluster.Config{Parallelism: workers}, nil)
				g.RunTo(p.Intended())
			}
		})
	}
}

// BenchmarkStage3Parallelism ablates the Stage 3 worker pool: per-object
// classification over the bitset kernels, serial vs one worker per CPU.
func BenchmarkStage3Parallelism(b *testing.B) {
	db, roles := dbg.Generate(dbg.Options{Scale: 2})
	res, err := core.Extract(db, core.Options{K: 6, NameFor: roles.NameFor})
	if err != nil {
		b.Fatal(err)
	}
	for name, workers := range stageWorkerCounts() {
		workers := workers
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rc := recast.DefaultOptions()
			rc.Parallelism = workers
			for i := 0; i < b.N; i++ {
				snap, err := compile.Compile(db, 0, workers, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := recast.Recast(snap, res.Program, res.Homes, rc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
