package bisim_test

import (
	"math/rand"
	"testing"

	"schemex/internal/bisim"
	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/perfect"
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

// compute runs the bisimulation with no cancellation check.
func compute(t *testing.T, db *graph.DB) *bisim.Partition {
	t.Helper()
	p, err := bisim.Compute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func figure4DB() *graph.DB {
	db := graph.New()
	db.Link("o1", "o2", "a")
	db.Link("o1", "o3", "a")
	db.Link("o1", "o4", "a")
	db.Atom("o5", "v5")
	db.Atom("o6", "v6")
	db.Atom("o7", "v7")
	db.Atom("o7c", "v7c")
	db.Link("o2", "o5", "b")
	db.Link("o3", "o6", "b")
	db.Link("o4", "o7", "b")
	db.Link("o4", "o7c", "c")
	return db
}

func TestFigure4Partition(t *testing.T) {
	db := figure4DB()
	p := compute(t, db)
	if p.NumBlocks() != 3 {
		t.Fatalf("bisimulation found %d blocks, want 3", p.NumBlocks())
	}
	if !p.Same(db.Lookup("o2"), db.Lookup("o3")) {
		t.Error("o2 and o3 should be bisimilar")
	}
	if p.Same(db.Lookup("o2"), db.Lookup("o4")) {
		t.Error("o2 and o4 should not be bisimilar (o4 has a c edge)")
	}
	if p.Same(db.Lookup("o1"), db.Lookup("o2")) {
		t.Error("o1 and o2 should not be bisimilar")
	}
}

func TestSeparatesByIncomingEdges(t *testing.T) {
	// Two otherwise-identical objects with different incoming labels must
	// be split: bisimulation here is over in- and out-edges (as in §4).
	db := graph.New()
	db.Link("r", "x", "left")
	db.Link("r", "y", "right")
	db.LinkAtom("x", "name", "nx", "v")
	db.LinkAtom("y", "name", "ny", "v")
	p := compute(t, db)
	if p.Same(db.Lookup("x"), db.Lookup("y")) {
		t.Fatal("objects with different incoming labels should be split")
	}
}

func TestCycleBisimulation(t *testing.T) {
	// A uniform cycle is fully bisimilar.
	db := graph.New()
	db.Link("a", "b", "next")
	db.Link("b", "c", "next")
	db.Link("c", "a", "next")
	p := compute(t, db)
	if p.NumBlocks() != 1 {
		t.Fatalf("uniform cycle should be one block, got %d", p.NumBlocks())
	}
}

// TestAgreesWithStage1OnDeterministicData compares bisimulation with the
// GFP-based Stage 1 classes on a case where they coincide (tree-like data).
// In general Stage 1 (mutual simulation containment) can be coarser.
func TestAgreesWithStage1OnDeterministicData(t *testing.T) {
	db := figure4DB()
	bp := compute(t, db)
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumBlocks() != res.Program.Len() {
		t.Fatalf("bisim %d blocks vs stage1 %d classes", bp.NumBlocks(), res.Program.Len())
	}
	// Partition equality: same objects together.
	for _, o1 := range db.ComplexObjects() {
		for _, o2 := range db.ComplexObjects() {
			sameB := bp.Same(o1, o2)
			sameS := res.Home[o1] == res.Home[o2]
			if sameB != sameS {
				t.Fatalf("%s/%s: bisim=%v stage1=%v", db.Name(o1), db.Name(o2), sameB, sameS)
			}
		}
	}
}

// TestBisimRefinesStage1 documents the relationship on random data:
// bisimilar objects always share a Stage 1 class (bisimulation refines the
// mutual-simulation equivalence of the minimal perfect typing).
func TestBisimRefinesStage1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		db := randomDB(rng, 5+rng.Intn(10))
		bp := compute(t, db)
		res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range bp.Blocks {
			for i := 1; i < len(block); i++ {
				if res.Home[block[0]] != res.Home[block[i]] {
					t.Fatalf("trial %d: bisimilar objects %s, %s in different stage1 classes",
						trial, db.Name(block[0]), db.Name(block[i]))
				}
			}
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	db := graph.New()
	p := compute(t, db)
	if p.NumBlocks() != 0 {
		t.Fatalf("empty db: %d blocks", p.NumBlocks())
	}
	db.Intern("only")
	p = compute(t, db)
	if p.NumBlocks() != 1 {
		t.Fatalf("singleton db: %d blocks", p.NumBlocks())
	}
}

func randomDB(rng *rand.Rand, n int) *graph.DB {
	db := graph.New()
	labels := []string{"a", "b"}
	names := make([]string, n)
	for i := range names {
		names[i] = "o" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		db.Intern(names[i])
	}
	for i := 0; i < n*2; i++ {
		f, to := rng.Intn(n), rng.Intn(n)
		if f != to {
			db.Link(names[f], names[to], labels[rng.Intn(len(labels))])
		}
	}
	return db
}
