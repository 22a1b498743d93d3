package bisim

import (
	"math/rand"
	"testing"

	"schemex/internal/graph"
)

// TestPartitionIsStable: within a block, all objects have the same signature
// under the final partition (the definition of the fixpoint). Uses the
// unexported signature helper, so it lives in the package.
func TestPartitionIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		db := randomTestDB(rng, 6+rng.Intn(14))
		p, err := Compute(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range p.Blocks {
			if len(block) < 2 {
				continue
			}
			first := signature(db, block[0], p.BlockOf)
			for _, o := range block[1:] {
				if signature(db, o, p.BlockOf) != first {
					t.Fatalf("trial %d: block not signature-stable", trial)
				}
			}
		}
	}
}

func randomTestDB(rng *rand.Rand, n int) *graph.DB {
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
