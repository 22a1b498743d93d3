package compile

import (
	"fmt"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
)

// chainDB builds n complex objects n0..n(n-1) linked in a chain by "next":
// IDs are assigned in creation order, so object n<i> has ID i and shard
// membership is predictable from the shard size.
func chainDB(t testing.TB, n int) *graph.DB {
	t.Helper()
	db := graph.New()
	for i := 0; i+1 < n; i++ {
		if err := db.AddLink(db.Intern(fmt.Sprintf("n%d", i)), db.Intern(fmt.Sprintf("n%d", i+1)), "next"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestShardedCompileMatchesFlat pins the core sharding contract: the same
// graph compiles to bit-identical contents at any shard count, serial or
// parallel, and every shard's ranges and table views are consistent with
// the snapshot's global tables.
func TestShardedCompileMatchesFlat(t *testing.T) {
	dbgDB, _ := dbg.Generate(dbg.Options{})
	for _, tc := range []struct {
		name string
		db   *graph.DB
	}{
		{"dbg", dbgDB},
		{"chain256", chainDB(t, 256)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flat, err := Compile(tc.db, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if flat.NumObjects() > 0 && flat.NumShards() != 1 {
				t.Fatalf("shards=1 produced %d shards", flat.NumShards())
			}
			for _, shards := range []int{0, 2, 4, 7} {
				for _, workers := range []int{1, 0} {
					s, err := Compile(tc.db, shards, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					snapEqual(t, s, flat, fmt.Sprintf("shards=%d workers=%d", shards, workers))
					checkShardInvariants(t, s)
				}
			}
		})
	}
}

// checkShardInvariants verifies the layout every consumer of the sharded
// snapshot relies on: shards tile the ID space, complex-position ranges
// chain, per-shard degrees sum to the shard's edge arrays, and the
// Pos/Complex views alias the snapshot's global tables.
func checkShardInvariants(t *testing.T, s *Snapshot) {
	t.Helper()
	base, posBase := 0, 0
	for si := 0; si < s.NumShards(); si++ {
		sh := s.Shard(si)
		if sh.Base != base {
			t.Fatalf("shard %d: Base = %d, want %d", si, sh.Base, base)
		}
		if sh.PosBase != posBase {
			t.Fatalf("shard %d: PosBase = %d, want %d", si, sh.PosBase, posBase)
		}
		if sh.N <= 0 || sh.N > s.ShardSize() {
			t.Fatalf("shard %d: N = %d outside (0, %d]", si, sh.N, s.ShardSize())
		}
		if int(sh.OutOff[sh.N]) != len(sh.OutTo) || int(sh.InOff[sh.N]) != len(sh.InFrom) {
			t.Fatalf("shard %d: offsets do not cover the edge arrays", si)
		}
		nComplex := 0
		for i := 0; i < sh.N; i++ {
			if sh.Pos[i] != s.Pos[sh.Base+i] {
				t.Fatalf("shard %d: Pos view diverges at %d", si, i)
			}
			if sh.Pos[i] >= 0 {
				nComplex++
			}
		}
		if sh.PosN != nComplex {
			t.Fatalf("shard %d: PosN = %d, want %d", si, sh.PosN, nComplex)
		}
		if sh.N > 0 && &sh.Pos[0] != &s.Pos[sh.Base] {
			t.Fatalf("shard %d: Pos view is a copy, not an alias", si)
		}
		if sh.PosN > 0 && &sh.Complex[0] != &s.Complex[sh.PosBase] {
			t.Fatalf("shard %d: Complex view is a copy, not an alias", si)
		}
		base += sh.N
		posBase += sh.PosN
	}
	if base != s.NumObjects() || posBase != s.NumComplex() {
		t.Fatalf("shards cover %d objects / %d complex, want %d / %d",
			base, posBase, s.NumObjects(), s.NumComplex())
	}
}

// TestShardsEnvOverride checks SCHEMEX_TEST_SHARDS drives the automatic
// layout and only the automatic one — explicit shard counts win.
func TestShardsEnvOverride(t *testing.T) {
	db := chainDB(t, 256)
	t.Setenv(TestShardsEnv, "4")
	auto := compileDB(t, db)
	if auto.NumShards() != 4 {
		t.Fatalf("auto shards under env override = %d, want 4", auto.NumShards())
	}
	explicit, err := Compile(db, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if explicit.NumShards() != 1 {
		t.Fatalf("explicit shards=1 under env override = %d, want 1", explicit.NumShards())
	}
}

// applyBoundary applies d to a 4-shard (64 objects each) compile of db and
// checks the result against a scratch compile of the mutated graph.
func applyBoundary(t *testing.T, db *graph.DB, d *graph.Delta, wantShared bool) (parent, got *Snapshot) {
	t.Helper()
	parent, err := Compile(db, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.ShardSize() != 64 || parent.NumShards() != 4 {
		t.Fatalf("fixture layout = %d shards of %d, want 4 of 64", parent.NumShards(), parent.ShardSize())
	}
	got, info, err := Apply(parent, d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shared != wantShared {
		t.Fatalf("Shared = %v, want %v", info.Shared, wantShared)
	}
	scratch, err := Compile(got.DB().Clone(), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, got, scratch, "apply vs scratch compile")
	return parent, got
}

// TestShardBoundaryCrossLink applies a link whose endpoints live in the
// first and last shard: both endpoint shards rebuild, the middle two are
// aliased pointer-identically (no objects were created).
func TestShardBoundaryCrossLink(t *testing.T) {
	var d graph.Delta
	d.AddLink("n10", "n200", "next")
	parent, got := applyBoundary(t, chainDB(t, 256), &d, true)
	for si, wantAliased := range []bool{false, true, true, false} {
		if aliased := got.Shard(si) == parent.Shard(si); aliased != wantAliased {
			t.Errorf("shard %d: aliased = %v, want %v", si, aliased, wantAliased)
		}
	}
}

// TestShardBoundaryEmptyShard removes every object of shard 1: the shard's
// CSR block drains to zero edges but the layout (and the result) stays
// identical to a scratch compile.
func TestShardBoundaryEmptyShard(t *testing.T) {
	var d graph.Delta
	for i := 64; i < 128; i++ {
		d.RemoveObject(fmt.Sprintf("n%d", i))
	}
	parent, got := applyBoundary(t, chainDB(t, 256), &d, true)
	if sh := got.Shard(1); len(sh.OutTo) != 0 || len(sh.InFrom) != 0 {
		t.Fatalf("shard 1 still holds %d out / %d in edges", len(sh.OutTo), len(sh.InFrom))
	}
	// Shards 0 and 2 are dirty only at their boundary objects (n63, n128);
	// shard 3 is untouched and must stay shared.
	if got.Shard(3) != parent.Shard(3) {
		t.Fatal("untouched shard 3 not shared with parent")
	}
}

// TestShardBoundaryGrowth adds enough new objects past the last shard to
// grow the snapshot by two shards. Untouched interior shards keep their CSR
// arrays (rebound views, same backing), and the result matches scratch.
func TestShardBoundaryGrowth(t *testing.T) {
	var d graph.Delta
	for i := 0; i < 71; i++ {
		d.AddLink("n255", fmt.Sprintf("m%d", i), "next")
	}
	parent, got := applyBoundary(t, chainDB(t, 256), &d, true)
	if want := 6; got.NumShards() != want { // 327 objects / 64 per shard
		t.Fatalf("NumShards = %d, want %d", got.NumShards(), want)
	}
	for _, si := range []int{0, 1, 2} {
		g, p := got.Shard(si), parent.Shard(si)
		if g == p {
			t.Fatalf("shard %d: pointer-aliased despite new global tables", si)
		}
		if len(g.OutTo) > 0 && &g.OutTo[0] != &p.OutTo[0] {
			t.Fatalf("shard %d: CSR arrays copied, want shared with parent", si)
		}
	}
}

// TestApplyAliasesUntouchedShards pins the per-shard sharing contract: a
// delta confined to one shard leaves every other shard pointer-identical to
// the parent's when no objects were created.
func TestApplyAliasesUntouchedShards(t *testing.T) {
	var d graph.Delta
	d.AddLink("n1", "n3", "next")
	parent, got := applyBoundary(t, chainDB(t, 256), &d, true)
	if got.Shard(0) == parent.Shard(0) {
		t.Fatal("touched shard 0 was not rebuilt")
	}
	for si := 1; si < 4; si++ {
		if got.Shard(si) != parent.Shard(si) {
			t.Fatalf("untouched shard %d not shared with parent", si)
		}
	}
}

// TestEmptyDBSharded: an empty graph compiles to zero shards at any count.
func TestEmptyDBSharded(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		s, err := Compile(graph.New(), shards, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumShards() != 0 || s.NumObjects() != 0 {
			t.Fatalf("shards=%d: non-empty snapshot from empty graph", shards)
		}
	}
}
