package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/synth"
)

// budgets exercised by the out-of-core acceptance tests: a few KiB forces
// roughly a two-shard residency on the Table 1 presets (shards are floored
// at 64 objects), so extraction pages constantly; the larger value covers a
// budget that evicts only occasionally.
var testBudgets = []int64{4096, 1 << 20}

// TestExtractBudgetDeterminism asserts the out-of-core acceptance property:
// extraction under a memory budget that spills shards to disk is
// bit-identical to the fully resident run, across shard counts {1, 4, auto}
// x Parallelism {1, 0} on every Table 1 preset.
func TestExtractBudgetDeterminism(t *testing.T) {
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := extractLayout(t, db, 1, 1, 0)
		for _, budget := range testBudgets {
			for _, cfg := range shardConfigs {
				if got := extractLayout(t, db, cfg.shards, cfg.par, budget); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: budgeted result diverges at Shards=%d Parallelism=%d MemBudget=%d:\nref: %+v\ngot: %+v",
						p.Spec.Name, cfg.shards, cfg.par, budget, want, got)
				}
			}
		}
	}
	if compile.ResidencyStats().Faults == 0 {
		t.Error("budgeted extraction matrix never faulted a shard; budgets too large to exercise paging")
	}
}

// TestApplyStreamBudgetDeterminism replays the randomized cross-shard delta
// stream through budgeted sessions and asserts the extraction outcome after
// every hop matches the flat fully-resident reference bit for bit. The
// stream covers cross-shard links, growth past the last shard, link
// removal, label-universe fallbacks, and atomic/complex flips, so structural
// sharing, fallback recompiles, and spill-file lineage all run under paging.
func TestApplyStreamBudgetDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[6].Build() // DB7: graph-shaped, overlapping classes
	if err != nil {
		t.Fatal(err)
	}
	const hops = 10
	deltas, refs := buildShardStream(t, db, 23, hops)

	ctx := context.Background()
	for _, cfg := range shardConfigs {
		cur, err := Prepare(ctx, db, cfg.par, cfg.shards, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for h, d := range deltas {
			next, _, err := cur.Apply(ctx, d, cfg.par)
			if err != nil {
				t.Fatalf("shards=%d p=%d hop %d: %v", cfg.shards, cfg.par, h, err)
			}
			cur = next
			res, err := ExtractPrepared(ctx, cur, Options{K: 5, Parallelism: cfg.par})
			if err != nil {
				t.Fatalf("shards=%d p=%d hop %d extract: %v", cfg.shards, cfg.par, h, err)
			}
			if got := outcomeOf(res); !reflect.DeepEqual(got, refs[h]) {
				t.Fatalf("shards=%d p=%d budget=4096: outcome diverges at hop %d:\nref: %+v\ngot: %+v",
					cfg.shards, cfg.par, h, refs[h], got)
			}
		}
	}
}

// TestSpillRoundTripBudgetDeterminism: encode-core + per-shard spill, then
// reload through PrepareSpilled at several budgets — the reloaded
// session must extract bit-identically to the original, and a reloaded
// session must keep accepting deltas on the incremental path.
func TestSpillRoundTripBudgetDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[2].Build() // DB3: deep nesting
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	orig, err := Prepare(ctx, db, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ExtractPrepared(ctx, orig, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(refRes)

	core := orig.EncodeSnapshotCore()
	dir := t.TempDir()
	files := make([]string, orig.NumShards())
	for si := range files {
		files[si] = writeTempShard(t, dir, si, orig.EncodeShard(si))
	}
	for _, budget := range []int64{0, 4096, 1 << 20} {
		re, err := PrepareSpilled(ctx, db, core, files, budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		res, err := ExtractPrepared(ctx, re, Options{K: 5})
		if err != nil {
			t.Fatalf("budget %d extract: %v", budget, err)
		}
		if got := outcomeOf(res); !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: reloaded extraction diverges:\nref: %+v\ngot: %+v", budget, want, got)
		}
	}
}

// writeTempShard persists one encoded shard for the spill round-trip test.
func writeTempShard(t *testing.T, dir string, si int, blob []byte) string {
	t.Helper()
	p := filepath.Join(dir, fmt.Sprintf("s%d.shard", si))
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}
