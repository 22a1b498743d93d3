package cluster

import (
	"math/rand"
	"testing"

	"schemex/internal/typing"
)

// randomClusterProgram builds a random program whose link targets are valid
// self-referencing indices, with random weights — fuel for the invariant
// tests below.
func randomClusterProgram(rng *rand.Rand, n int) *typing.Program {
	labels := []string{"a", "b", "c", "d"}
	p := typing.NewProgram()
	for i := 0; i < n; i++ {
		ty := &typing.Type{Name: "t" + itoa(i), Weight: 1 + rng.Intn(20)}
		for j := 0; j < 1+rng.Intn(4); j++ {
			l := typing.TypedLink{Label: labels[rng.Intn(len(labels))]}
			switch rng.Intn(3) {
			case 0:
				l.Dir, l.Target = typing.Out, typing.AtomicTarget
			case 1:
				l.Dir, l.Target = typing.Out, rng.Intn(n)
			default:
				l.Dir, l.Target = typing.In, rng.Intn(n)
			}
			ty.Links = append(ty.Links, l)
		}
		p.Add(ty)
	}
	return p
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// TestGreedyInvariants checks, across random programs and every intermediate
// k of a full run: total weight is conserved, the materialized program
// validates, the mapping covers every original type, and per-cluster weights
// equal the mapped weight sums.
func TestGreedyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(10)
		orig := randomClusterProgram(rng, n)
		totalWeight := 0
		origWeights := make([]int, n)
		for i, ty := range orig.Types {
			totalWeight += ty.Weight
			origWeights[i] = ty.Weight
		}
		allowEmpty := trial%3 == 0
		g := NewGreedy(orig.Clone(), nil, Config{Delta: Deltas[trial%len(Deltas)], AllowEmpty: allowEmpty, EmptyBias: 0.5}, nil)
		for {
			prog, mapping := g.Program()
			if err := prog.Validate(); err != nil {
				t.Fatalf("trial %d at k=%d: invalid program: %v\n%s", trial, g.NumActive(), err, prog)
			}
			if prog.Len() != g.NumActive() {
				t.Fatalf("trial %d: program size %d != active %d", trial, prog.Len(), g.NumActive())
			}
			if len(mapping) != n {
				t.Fatalf("trial %d: mapping covers %d of %d types", trial, len(mapping), n)
			}
			// Weight accounting: each cluster's weight is the sum of the
			// original weights mapped to it; retired weight is excluded.
			sums := make([]int, prog.Len())
			retired := 0
			for i, c := range mapping {
				if c == EmptySlot {
					retired += origWeights[i]
					continue
				}
				if c < 0 || c >= prog.Len() {
					t.Fatalf("trial %d: mapping[%d]=%d out of range", trial, i, c)
				}
				sums[c] += origWeights[i]
			}
			for ci, ty := range prog.Types {
				if ty.Weight != sums[ci] {
					t.Fatalf("trial %d at k=%d: cluster %d weight %d != mapped sum %d",
						trial, g.NumActive(), ci, ty.Weight, sums[ci])
				}
			}
			clusterTotal := 0
			for _, ty := range prog.Types {
				clusterTotal += ty.Weight
			}
			if clusterTotal+retired != totalWeight {
				t.Fatalf("trial %d: weight not conserved: %d + %d retired != %d",
					trial, clusterTotal, retired, totalWeight)
			}
			if _, ok := g.Step(); !ok {
				break
			}
		}
	}
}

// TestGreedyTraceAccounting: the number of steps equals the number of
// retired types, and NumTypes in the trace decreases by one per step.
func TestGreedyTraceAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomClusterProgram(rng, 9)
	g := NewGreedy(p, nil, Config{}, nil)
	g.RunTo(1)
	trace := g.Trace()
	if len(trace) != 8 {
		t.Fatalf("trace has %d steps, want 8", len(trace))
	}
	for i, st := range trace {
		if st.NumTypes != 9-(i+1) {
			t.Fatalf("step %d: NumTypes=%d, want %d", i, st.NumTypes, 9-(i+1))
		}
		if st.Cost < 0 || st.D < 0 {
			t.Fatalf("step %d has negative cost/distance: %+v", i, st)
		}
	}
}

// TestPinnedSurviveToOne: with pinned slots, RunTo(1) stops when only
// pinned types remain (they can never be retired).
func TestPinnedSurviveToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomClusterProgram(rng, 6)
	pinned := make([]bool, 6)
	pinned[2], pinned[4] = true, true
	g := NewGreedy(p, nil, Config{Pinned: pinned}, nil)
	got := g.RunTo(1)
	if got != 2 {
		t.Fatalf("RunTo(1) left %d types, want the 2 pinned", got)
	}
	prog, mapping := g.Program()
	if prog.Len() != 2 {
		t.Fatalf("program has %d types", prog.Len())
	}
	// The pinned slots map to themselves (never moved).
	if mapping[2] == mapping[4] {
		t.Fatal("pinned slots merged")
	}
}
