package cluster

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/perfect"
	"schemex/internal/synth"
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

// TestNewGreedyCartographicAllocation pins the hypercube at the links that
// occur. The paper's §1 cartographic scenario (synth.Cartographic, defaults,
// seed 1) is wide and sparse: 1,653 perfect types over 258 typed links, all
// atomic. One bit per (base, target column) would make each definition
// 426,732 bits wide, 88 MB in all; one bit per link keeps serial seeding
// within twice the distance triangle's bytes.
func TestNewGreedyCartographicAllocation(t *testing.T) {
	db, _, err := synth.Cartographic(synth.CartographicOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := compile.Compile(db, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	stage1, err := perfect.Minimal(snap, perfect.Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := stage1.Program
	n := p.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGreedy(p, snap, Config{Parallelism: 1}, nil)
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	triangle := uint64(4 * n * (n - 1) / 2)
	t.Logf("n=%d L=%d: NewGreedy allocated %.1f MB, triangle %.1f MB", n, g.L, float64(allocated)/1e6, float64(triangle)/1e6)
	if allocated > 2*triangle {
		t.Fatalf("NewGreedy allocated %d bytes on %d types, want <= %d (twice the distance triangle)", allocated, n, 2*triangle)
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
