package typing_test

import (
	"runtime"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/perfect"
	"schemex/internal/typing"
)

// TestEvalGFPAllocationBound bounds the bytes the Q_D fixpoint allocates on
// DBG ×4 (616 types over 2,780 objects) at Parallelism 1. Counting only the
// class-target links of the witness bound's members keeps it far below the
// dense type × link × complex-object count matrix a descent from M_all
// needs, which allocated 26.6 MB here; the bound is half that.
func TestEvalGFPAllocationBound(t *testing.T) {
	const bound = 13.3e6
	db, _ := dbg.Generate(dbg.Options{Scale: 4})
	snap, err := compile.Compile(db, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	qd, _, err := perfect.BuildQD(snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The least of three runs, so a stray allocation elsewhere in the
	// process cannot fail the bound.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := typing.EvalGFP(qd, snap, 1, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > bound {
		t.Fatalf("EvalGFP allocated %.1f MB on DBG ×4, bound %.1f MB", float64(least)/1e6, bound/1e6)
	}
	t.Logf("EvalGFP allocated %.2f MB on DBG ×4", float64(least)/1e6)
}
