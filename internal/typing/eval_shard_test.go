package typing

import (
	"math/rand"
	"testing"

	"schemex/internal/compile"
)

// TestGFPShardParallelMatchesSerial pins the frontier-exchange propagation:
// the GFP over a multi-shard snapshot, at any worker count, is bit-identical
// to the serial single-shard evaluation on random databases and programs.
// Databases are sized well past the 64-object shard floor so an explicit
// shard count really produces multiple shards and the parallel path runs.
func TestGFPShardParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		db := randomDB(rng, 80+rng.Intn(240))
		p := randomProgram(rng, 1+rng.Intn(5))
		flat, err := compile.Compile(db, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalGFP(p, flat, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			snap, err := compile.Compile(db, shards, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if snap.NumShards() < 2 {
				t.Fatalf("trial %d: shards=%d produced %d shards", trial, shards, snap.NumShards())
			}
			for _, workers := range []int{1, 0, 8} {
				got, err := EvalGFP(p, snap, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d: shards=%d workers=%d extent differs from serial flat", trial, shards, workers)
				}
			}
		}
	}
}
