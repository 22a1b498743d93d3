package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestNewGreedyAllocations pins the flat-triangle representation: seeding the
// engine performs a small constant number of allocations regardless of the
// program size (the old [][]int32 matrix allocated one row slice per type).
func TestNewGreedyAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := randomClusterProgram(rng, 20)
	large := randomClusterProgram(rng, 120)
	const bound = 40 // struct fields + interning map; far below one-per-type
	countFor := func(p func() *Greedy) float64 {
		return testing.AllocsPerRun(10, func() { _ = p() })
	}
	smallAllocs := countFor(func() *Greedy { return NewGreedy(small, nil, Config{Parallelism: 1}, nil) })
	largeAllocs := countFor(func() *Greedy { return NewGreedy(large, nil, Config{Parallelism: 1}, nil) })
	if smallAllocs > bound {
		t.Fatalf("NewGreedy(n=20) allocates %.0f times, want <= %d", smallAllocs, bound)
	}
	if largeAllocs > bound {
		t.Fatalf("NewGreedy(n=120) allocates %.0f times, want <= %d", largeAllocs, bound)
	}
	// 6x the types must not mean more allocations (no per-row slices).
	if largeAllocs > smallAllocs+4 {
		t.Fatalf("allocations grow with program size: n=20 -> %.0f, n=120 -> %.0f",
			smallAllocs, largeAllocs)
	}
}

// TestGreedyParallelismDeterminism: the full merge trace, every materialized
// program, and the final mapping are bit-identical at any worker count.
func TestGreedyParallelismDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(30)
		p := randomClusterProgram(rng, n)
		cfg := Config{Delta: Deltas[trial%len(Deltas)]}
		if trial%2 == 1 {
			cfg.AllowEmpty = true
			cfg.EmptyBias = 0.4
		}
		run := func(workers int) ([]Step, string, []int) {
			c := cfg
			c.Parallelism = workers
			g := NewGreedy(p.Clone(), nil, c, nil)
			g.RunTo(2)
			prog, mapping := g.Program()
			return g.Trace(), prog.String(), mapping
		}
		refTrace, refProg, refMap := run(1)
		for _, workers := range []int{2, 3, 8} {
			trace, prog, mapping := run(workers)
			if !reflect.DeepEqual(trace, refTrace) {
				t.Fatalf("trial %d: trace diverges at %d workers:\nserial:   %+v\nparallel: %+v",
					trial, workers, refTrace, trace)
			}
			if prog != refProg {
				t.Fatalf("trial %d: program diverges at %d workers", trial, workers)
			}
			if !reflect.DeepEqual(mapping, refMap) {
				t.Fatalf("trial %d: mapping diverges at %d workers", trial, workers)
			}
		}
	}
}
