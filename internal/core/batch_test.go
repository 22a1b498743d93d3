package core

import (
	"context"
	"reflect"
	"testing"

	"schemex/internal/graph"
	"schemex/internal/synth"
)

// TestApplyBatchShardDeterminism is the batch acceptance property: replaying
// a delta stream through ApplyBatch (4 deltas per pass) lands on the same
// extraction outcome, bit for bit, as the sequential flat-serial reference,
// at every batch boundary, across Shards {1,4,0} x Parallelism {1,0}. The
// stream covers cross-shard deltas, new-object growth, link removal,
// label-universe fallbacks, and RemoveObject detachment.
func TestApplyBatchShardDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[6].Build() // DB7: graph-shaped, overlapping classes
	if err != nil {
		t.Fatal(err)
	}
	const hops = 12
	deltas, refs := buildShardStream(t, db, 31, hops)

	ctx := context.Background()
	const batch = 4
	for _, cfg := range shardConfigs {
		cur, err := Prepare(ctx, db, cfg.par, cfg.shards)
		if err != nil {
			t.Fatal(err)
		}
		batches := 0
		for i := 0; i < len(deltas); i += batch {
			end := min(i+batch, len(deltas))
			next, _, err := cur.ApplyBatch(ctx, deltas[i:end], cfg.par)
			if err != nil {
				t.Fatalf("shards=%d p=%d batch [%d,%d): %v", cfg.shards, cfg.par, i, end, err)
			}
			cur = next
			batches++
			if got, want := cur.Version(), uint64(end); got != want {
				t.Fatalf("shards=%d p=%d: version %d after %d deltas", cfg.shards, cfg.par, got, want)
			}
			res, err := ExtractPrepared(ctx, cur, Options{K: 5, Parallelism: cfg.par})
			if err != nil {
				t.Fatalf("shards=%d p=%d extract after %d: %v", cfg.shards, cfg.par, end, err)
			}
			if got := outcomeOf(res); !reflect.DeepEqual(got, refs[end-1]) {
				t.Fatalf("shards=%d p=%d: outcome diverges after delta %d:\nref: %+v\ngot: %+v",
					cfg.shards, cfg.par, end-1, refs[end-1], got)
			}
		}
		s := cur.Stats()
		if s.Batches < uint64(batches) || s.BatchedDeltas < uint64(len(deltas)) {
			t.Fatalf("shards=%d p=%d: stats batches=%d batchedDeltas=%d, want >= %d/%d",
				cfg.shards, cfg.par, s.Batches, s.BatchedDeltas, batches, len(deltas))
		}
	}
}

// TestApplyBatchCoalesces pins that a cancelling burst actually coalesces
// (the counter moves) and still advances the version by the full batch size.
func TestApplyBatchCoalesces(t *testing.T) {
	db := graph.New()
	db.Link("root", "a", "child")
	db.Link("root", "b", "child")
	db.Freeze()
	p, err := Prepare(context.Background(), db, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := []*graph.Delta{
		new(graph.Delta).AddLink("a", "b", "tmp"),
		new(graph.Delta).RemoveLink("a", "b", "tmp"),
		new(graph.Delta).AddLink("a", "b", "peer"),
	}
	child, _, err := p.ApplyBatch(context.Background(), ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := child.Version(); got != 3 {
		t.Fatalf("version=%d want 3", got)
	}
	if got := child.DB().NumLinks(); got != db.NumLinks()+1 {
		t.Fatalf("links=%d want %d", got, db.NumLinks()+1)
	}
	s := child.Stats()
	if s.CoalescedOps < 2 {
		t.Fatalf("coalescedOps=%d want >= 2 (cancelled add/remove pair)", s.CoalescedOps)
	}
}

// TestApplyBatchFailureLeavesParent asserts batch atomicity: a batch with a
// failing delta commits nothing, and the parent session stays fully usable.
func TestApplyBatchFailureLeavesParent(t *testing.T) {
	db := graph.New()
	db.Link("root", "a", "child")
	db.Freeze()
	p, err := Prepare(context.Background(), db, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds := []*graph.Delta{
		new(graph.Delta).AddLink("a", "fresh", "x"),
		new(graph.Delta).RemoveLink("a", "ghost", "nope"), // fails sequentially
	}
	if _, _, err := p.ApplyBatch(context.Background(), ds, 1); err == nil {
		t.Fatal("expected batch failure")
	}
	if got := p.Version(); got != 0 {
		t.Fatalf("parent version moved to %d", got)
	}
	// The parent is untouched and the good delta still applies on its own.
	child, _, err := p.Apply(context.Background(), ds[0], 1)
	if err != nil {
		t.Fatalf("parent unusable after failed batch: %v", err)
	}
	if got := child.Version(); got != 1 {
		t.Fatalf("version=%d want 1", got)
	}
}
