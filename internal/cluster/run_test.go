package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"schemex/internal/typing"
)

// decodeProgram is the reference materializer Run.At is checked against: it
// decodes the engine's live bitset definitions of the active slots into a
// compact program, and maps every original type through slotOf (original
// type index -> current slot, or EmptySlot), which the caller maintains by
// replaying each step forward.
func decodeProgram(t *testing.T, g *Greedy, slotOf []int) (*typing.Program, []int) {
	t.Helper()
	compact := make(map[int]int)
	p := typing.NewProgram()
	for slot := 0; slot < g.n; slot++ {
		if !g.active[slot] {
			continue
		}
		compact[slot] = len(p.Types)
		ty := &typing.Type{Name: g.prog.Types[slot].Name, Weight: g.weight[slot]}
		g.set[slot].ForEach(func(id int) {
			key := g.links[id]
			l := g.bases[key.base]
			l.Target = int(key.target)
			ty.Links = append(ty.Links, l)
		})
		p.Add(ty)
	}
	for _, ty := range p.Types {
		for li, l := range ty.Links {
			if l.Target == typing.AtomicTarget {
				continue
			}
			ci, ok := compact[l.Target]
			if !ok {
				t.Fatalf("decoded link targets inactive slot %d", l.Target)
			}
			ty.Links[li].Target = ci
		}
		ty.Canonicalize()
	}
	mapping := make([]int, len(slotOf))
	for orig, slot := range slotOf {
		if slot == EmptySlot {
			mapping[orig] = EmptySlot
		} else {
			mapping[orig] = compact[slot]
		}
	}
	return p, mapping
}

// TestRunAtMatchesDecode: over random programs, under every distance
// function, with the empty type, pinned slots, zero weights and value- and
// sort-constrained links mixed in, Run.At(k) rebuilds exactly the typing the
// engine's own definitions decode to after the same prefix of steps, with a
// bit-equal total distance, at every k: above the program size, at every
// size the run passed, and below the size it stopped at (the pinned count,
// or one).
func TestRunAtMatchesDecode(t *testing.T) {
	type point struct {
		prog    *typing.Program
		mapping []int
		total   float64
	}
	rng := rand.New(rand.NewSource(17))
	pinnedTrials, emptyMoves := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(14)
		p := randomClusterProgram(rng, n)
		for _, ty := range p.Types {
			if rng.Intn(4) == 0 {
				ty.Weight = 0
			}
			if rng.Intn(4) == 0 {
				ty.Links = append(ty.Links, typing.TypedLink{Dir: typing.Out, Label: "v", Target: typing.AtomicTarget, HasValue: true, Value: "x"})
			}
			if rng.Intn(4) == 0 {
				ty.Links = append(ty.Links, typing.TypedLink{Dir: typing.Out, Label: "s", Target: typing.AtomicTarget, Sort: typing.SortConstraint(1 + rng.Intn(2))})
			}
			ty.Canonicalize()
		}
		cfg := Config{Delta: Deltas[trial%len(Deltas)], Parallelism: 1}
		if trial%3 == 0 {
			cfg.AllowEmpty = true
			cfg.EmptyBias = 0.2 + rng.Float64()
		}
		nPinned := 0
		if trial%4 == 1 {
			cfg.Pinned = make([]bool, n)
			for i := range cfg.Pinned {
				if rng.Intn(3) == 0 {
					cfg.Pinned[i] = true
					nPinned++
				}
			}
			if nPinned > 0 {
				pinnedTrials++
			}
		}

		g := NewGreedy(p.Clone(), nil, cfg, nil)
		slotOf := make([]int, n)
		for i := range slotOf {
			slotOf[i] = i
		}
		var points []point
		for {
			prog, mapping := decodeProgram(t, g, slotOf)
			points = append(points, point{prog, mapping, g.TotalDistance()})
			gp, gm := g.Program()
			if !reflect.DeepEqual(gp, prog) || !reflect.DeepEqual(gm, mapping) {
				t.Fatalf("trial %d at %d types: Program() differs from the decode:\n%s\nvs\n%s", trial, g.NumActive(), gp, prog)
			}
			st, ok := g.Step()
			if !ok {
				break
			}
			if st.To == EmptySlot {
				emptyMoves++
			}
			for orig, slot := range slotOf {
				if slot == st.From {
					slotOf[orig] = st.To
				}
			}
		}

		run := g.Run()
		if len(run.Steps()) != len(points)-1 || run.Program() != g.prog {
			t.Fatalf("trial %d: run has %d steps over %p, engine made %d over %p",
				trial, len(run.Steps()), run.Program(), len(points)-1, g.prog)
		}
		for k := 0; k <= n+5; k++ {
			want := points[max(0, min(n-k, len(points)-1))]
			prog, mapping, total := run.At(k)
			if !reflect.DeepEqual(prog, want.prog) {
				t.Fatalf("trial %d: At(%d) program:\n%s\nwant:\n%s", trial, k, prog, want.prog)
			}
			if !reflect.DeepEqual(mapping, want.mapping) {
				t.Fatalf("trial %d: At(%d) mapping %v, want %v", trial, k, mapping, want.mapping)
			}
			if total != want.total {
				t.Fatalf("trial %d: At(%d) total distance %v, want %v", trial, k, total, want.total)
			}
		}
	}
	if pinnedTrials == 0 || emptyMoves == 0 {
		t.Fatalf("trials covered %d pinned programs and %d empty moves; want both > 0", pinnedTrials, emptyMoves)
	}
	t.Logf("%d pinned programs, %d empty moves", pinnedTrials, emptyMoves)
}
