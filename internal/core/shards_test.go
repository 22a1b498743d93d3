package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"schemex/internal/graph"
	"schemex/internal/synth"
)

// shardOutcome captures everything an extraction run decides, for
// bit-identity comparison across snapshot layouts.
type shardOutcome struct {
	program string
	mapping []int
	defect  int
	excess  int
	deficit int
	uncl    int
	dist    float64
}

func outcomeOf(res *Result) shardOutcome {
	return shardOutcome{
		program: res.Program.String(),
		mapping: res.Mapping,
		defect:  res.Defect.Total(),
		excess:  res.Defect.Excess,
		deficit: res.Defect.Deficit,
		uncl:    res.Unclassified,
		dist:    res.TotalDistance,
	}
}

// extractLayout extracts db at K 5 from a snapshot compiled with the given
// shard count and parallelism.
func extractLayout(t *testing.T, db *graph.DB, shards, par int) shardOutcome {
	t.Helper()
	ctx := context.Background()
	prep, err := Prepare(ctx, db, par, shards)
	if err != nil {
		t.Fatalf("prepare (shards=%d, p=%d): %v", shards, par, err)
	}
	res, err := ExtractPrepared(ctx, prep, Options{K: 5, Parallelism: par})
	if err != nil {
		t.Fatalf("extract (shards=%d, p=%d): %v", shards, par, err)
	}
	return outcomeOf(res)
}

// shardConfigs is the acceptance matrix: flat, explicit multi-shard, and
// automatic layout, each serial and fully parallel.
var shardConfigs = []struct{ shards, par int }{
	{1, 1}, {1, 0}, {4, 1}, {4, 0}, {0, 1}, {0, 0},
}

// TestExtractShardDeterminism asserts the tentpole acceptance property on
// whole-graph extraction: the final program, mapping, and recast defect are
// bit-identical at shard counts {1, 4, auto} x Parallelism {1, 0} on every
// Table 1 preset.
func TestExtractShardDeterminism(t *testing.T) {
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		ref := extractLayout(t, db, 1, 1)
		for _, cfg := range shardConfigs[1:] {
			got := extractLayout(t, db, cfg.shards, cfg.par)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: result diverges at Shards=%d Parallelism=%d:\nref: %+v\ngot: %+v",
					p.Spec.Name, cfg.shards, cfg.par, ref, got)
			}
		}
	}
}

// buildShardStream generates a deterministic delta stream against db that
// deliberately crosses shard boundaries and forces fallback recompiles:
// links between the low and high halves of the ID space, new-object growth
// past the last shard, link removals, label-universe growth, and object
// detachment (including atomic objects, whose removal flips them complex).
// It returns the deltas and the reference extraction outcome after each hop,
// computed on a flat serial session.
func buildShardStream(t *testing.T, db *graph.DB, seed int64, hops int) ([]*graph.Delta, []shardOutcome) {
	t.Helper()
	ctx := context.Background()
	cur, err := Prepare(ctx, db, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	labels := db.Labels()
	deltas := make([]*graph.Delta, 0, hops)
	refs := make([]shardOutcome, 0, hops)
	for h := 0; h < hops; h++ {
		g := cur.DB()
		complexIDs := g.ComplexObjects()
		pick := func() graph.ObjectID { return complexIDs[rng.Intn(len(complexIDs))] }
		d := &graph.Delta{}
		switch h % 5 {
		case 0: // links between the low and high halves of the ID space
			lab := labels[rng.Intn(len(labels))]
			half := len(complexIDs) / 2
			seen := map[string]bool{}
			for i := 0; i < 3; i++ {
				a := complexIDs[rng.Intn(half)]
				b := complexIDs[half+rng.Intn(len(complexIDs)-half)]
				key := fmt.Sprintf("%d|%d|%s", a, b, lab)
				if a == b || seen[key] || g.HasEdge(a, b, lab) {
					continue
				}
				seen[key] = true
				d.AddLink(g.Name(a), g.Name(b), lab)
			}
		case 1: // growth: links to brand-new objects past the last shard
			lab := labels[rng.Intn(len(labels))]
			for i := 0; i < 4; i++ {
				d.AddLink(g.Name(pick()), fmt.Sprintf("shardnew-%d-%d", h, i), lab)
			}
		case 2: // removal of existing links
			seen := map[string]bool{}
			for i := 0; i < 3; i++ {
				o := pick()
				edges := g.Out(o)
				if len(edges) == 0 {
					continue
				}
				e := edges[rng.Intn(len(edges))]
				key := fmt.Sprintf("%d|%d|%s", o, e.To, e.Label)
				if seen[key] {
					continue
				}
				seen[key] = true
				d.RemoveLink(g.Name(o), g.Name(e.To), e.Label)
			}
		case 3: // label-universe growth: forces a fallback recompile
			a, b := pick(), pick()
			if a == b {
				b = complexIDs[(rng.Intn(len(complexIDs)-1)+int(a)+1)%len(complexIDs)]
			}
			d.AddLink(g.Name(a), g.Name(b), fmt.Sprintf("streamlabel-%d", h))
		case 4: // detachment; an atomic object flips complex, another fallback
			if ao := g.AtomicObjects(); len(ao) > 0 && h%2 == 0 {
				d.RemoveObject(g.Name(ao[rng.Intn(len(ao))]))
			} else {
				d.RemoveObject(g.Name(pick()))
			}
		}
		if d.Len() == 0 {
			d.AddLink(g.Name(pick()), fmt.Sprintf("shardfill-%d", h), labels[0])
		}
		next, _, err := cur.Apply(ctx, d, 1)
		if err != nil {
			t.Fatalf("hop %d: %v", h, err)
		}
		cur = next
		res, err := ExtractPrepared(ctx, cur, Options{K: 5, Parallelism: 1})
		if err != nil {
			t.Fatalf("hop %d extract: %v", h, err)
		}
		deltas = append(deltas, d)
		refs = append(refs, outcomeOf(res))
	}
	return deltas, refs
}

// TestApplyStreamShardDeterminism replays one random delta stream through
// every shard/parallelism configuration and asserts the extraction outcome
// after every hop matches the flat serial reference bit for bit. The stream
// is built to cover cross-shard deltas, shard growth, and both fallback
// paths (new labels and atomic/complex flips); the multi-shard replay
// asserts that coverage actually happened.
func TestApplyStreamShardDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[6].Build() // DB7: graph-shaped, overlapping classes
	if err != nil {
		t.Fatal(err)
	}
	const hops = 10
	deltas, refs := buildShardStream(t, db, 23, hops)

	for _, cfg := range shardConfigs {
		cur, err := Prepare(context.Background(), db, cfg.par, cfg.shards)
		if err != nil {
			t.Fatal(err)
		}
		cur, sawFallback, sawMultiShard := replayStream(t, cur, cfg.shards, cfg.par, deltas, refs)
		if cfg.shards == 4 {
			if cur.NumShards() < 2 {
				t.Fatalf("shards=4 session ended with %d shards; stream never exercised a multi-shard layout", cur.NumShards())
			}
			if !sawFallback {
				t.Error("stream never took the fallback recompile path")
			}
			if !sawMultiShard {
				t.Error("stream never produced a multi-shard delta footprint")
			}
		}
	}
}

// replayStream applies deltas to cur one hop at a time at parallelism par
// and requires the extraction outcome after every hop to equal refs. It
// returns the last session and reports whether the stream took a fallback
// recompile and produced a multi-shard delta footprint. shards only labels
// failures.
func replayStream(t *testing.T, cur *Prepared, shards, par int, deltas []*graph.Delta, refs []shardOutcome) (last *Prepared, sawFallback, sawMultiShard bool) {
	t.Helper()
	ctx := context.Background()
	for h, d := range deltas {
		next, info, err := cur.Apply(ctx, d, par)
		if err != nil {
			t.Fatalf("shards=%d p=%d hop %d: %v", shards, par, h, err)
		}
		for _, o := range info.Touched {
			if next.Snapshot().ShardOf(o) != next.Snapshot().ShardOf(info.Touched[0]) {
				sawMultiShard = true
			}
		}
		if !info.Shared {
			sawFallback = true
		}
		cur = next
		res, err := ExtractPrepared(ctx, cur, Options{K: 5, Parallelism: par})
		if err != nil {
			t.Fatalf("shards=%d p=%d hop %d extract: %v", shards, par, h, err)
		}
		if got := outcomeOf(res); !reflect.DeepEqual(got, refs[h]) {
			t.Fatalf("shards=%d p=%d: outcome diverges at hop %d:\nref: %+v\ngot: %+v",
				shards, par, h, refs[h], got)
		}
	}
	return cur, sawFallback, sawMultiShard
}
