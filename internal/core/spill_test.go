package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemex/internal/graph"
	"schemex/internal/synth"
)

// spillAndLoad writes p's snapshot as a core blob plus one file per shard,
// the shape a durable session spills, and reads it back through
// PrepareSpilled over db, the database p was compiled from.
func spillAndLoad(t *testing.T, db *graph.DB, p *Prepared) *Prepared {
	t.Helper()
	dir := t.TempDir()
	files := make([]string, p.NumShards())
	for si := range files {
		files[si] = filepath.Join(dir, fmt.Sprintf("s%d.shard", si))
		if err := os.WriteFile(files[si], p.EncodeShard(si), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := PrepareSpilled(context.Background(), db, p.EncodeSnapshotCore(), files)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestSpillRoundTripDeterminism: a session reloaded through PrepareSpilled
// from its encoded core and per-shard files extracts bit-identically to the
// session it was spilled from.
func TestSpillRoundTripDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[2].Build() // DB3: deep nesting
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	orig, err := Prepare(ctx, db, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ExtractPrepared(ctx, orig, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractPrepared(ctx, spillAndLoad(t, db, orig), Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := outcomeOf(refRes), outcomeOf(res); !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded extraction diverges:\nref: %+v\ngot: %+v", want, got)
	}
}

// TestApplyStreamSpilledDeterminism roots every session of the shard matrix
// in a spill read back through PrepareSpilled, as a recovered durable
// session is, then replays the cross-shard delta stream and requires the
// outcome after every hop to match the flat compiled reference bit for bit.
// The stream links across shards, grows past the last shard, removes links,
// and takes both fallback recompiles (a new label, an atomic/complex flip),
// so every Apply path runs on a loaded lineage.
func TestApplyStreamSpilledDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[6].Build() // DB7: graph-shaped, overlapping classes
	if err != nil {
		t.Fatal(err)
	}
	const hops = 10
	deltas, refs := buildShardStream(t, db, 23, hops)
	for _, cfg := range shardConfigs {
		compiled, err := Prepare(context.Background(), db, cfg.par, cfg.shards)
		if err != nil {
			t.Fatal(err)
		}
		root := spillAndLoad(t, db, compiled)
		if root.NumShards() != compiled.NumShards() {
			t.Fatalf("shards=%d: loaded %d shards, compiled %d", cfg.shards, root.NumShards(), compiled.NumShards())
		}
		_, sawFallback, sawMultiShard := replayStream(t, root, cfg.shards, cfg.par, deltas, refs)
		if cfg.shards == 4 && (!sawFallback || !sawMultiShard) {
			t.Errorf("spilled stream coverage: fallback %v, multi-shard footprint %v", sawFallback, sawMultiShard)
		}
	}
}
