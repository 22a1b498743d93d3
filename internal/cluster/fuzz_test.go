package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"schemex/internal/typing"
)

// Link kinds of a fuzzed program.
const (
	fzOutClass = iota
	fzInClass
	fzAtomic
	fzAtomicSort
	fzAtomicValue
	fzKinds
)

// fzLabels is a fuzzed program's label alphabet.
var fzLabels = []string{"a", "b", "c", "d"}

// fzReader hands out fuzz bytes, then zeros once they run out.
type fzReader struct {
	b []byte
}

func (r *fzReader) next(mod int) int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0])
	r.b = r.b[1:]
	return v % mod
}

// decodeGreedyCase turns fuzz bytes into a program of at most 16 types over
// at most four labels and an engine configuration. The bytes are: a config
// byte (bits 0-2 pick δ, bit 3 sets AllowEmpty, bits 4-7 pin slot value-1,
// none at 0), an EmptyBias byte when AllowEmpty is set, the type count, then
// per type a weight (0 allowed), a link count and per link (kind, label,
// target, extra). Class targets go in both directions and may reference the
// type itself; atomic targets may carry a sort (extra picks it) or a value
// (extra picks it and a sort).
func decodeGreedyCase(data []byte) (*typing.Program, Config) {
	r := &fzReader{b: data}
	c := r.next(256)
	cfg := Config{Delta: Deltas[(c&7)%len(Deltas)], AllowEmpty: c&8 != 0, Parallelism: 1}
	if cfg.AllowEmpty {
		cfg.EmptyBias = float64(1+r.next(16)) / 8
	}
	n := 1 + r.next(16)
	if pin := c>>4 - 1; pin >= 0 && pin < n {
		cfg.Pinned = make([]bool, n)
		cfg.Pinned[pin] = true
	}
	p := typing.NewProgram()
	for i := 0; i < n; i++ {
		ty := &typing.Type{Name: fmt.Sprintf("t%d", i), Weight: r.next(256)}
		for li := r.next(8); li > 0; li-- {
			kind, lab, target, extra := r.next(fzKinds), fzLabels[r.next(len(fzLabels))], r.next(n), r.next(256)
			l := typing.TypedLink{Dir: typing.Out, Label: lab, Target: typing.AtomicTarget}
			switch kind {
			case fzOutClass:
				l.Target = target
			case fzInClass:
				l.Dir, l.Target = typing.In, target
			case fzAtomicSort:
				l.Sort = typing.SortConstraint(1 + extra%int(typing.SortBool))
			case fzAtomicValue:
				l.Value, l.HasValue = []string{"x", "y"}[extra%2], true
				l.Sort = typing.SortConstraint(extra / 2 % int(typing.SortBool+1))
			}
			ty.Links = append(ty.Links, l)
		}
		ty.Canonicalize()
		p.Add(ty)
	}
	return p, cfg
}

// greedyCase is a readable fuzz seed: the inverse of decodeGreedyCase.
type greedyCase struct {
	config, bias byte
	weights      []int
	types        [][][4]int // per type, per link: (kind, label, target, extra)
}

func (c greedyCase) encode() []byte {
	b := []byte{c.config}
	if c.config&8 != 0 {
		b = append(b, c.bias)
	}
	b = append(b, byte(len(c.types)-1))
	for i, links := range c.types {
		b = append(b, byte(c.weights[i]), byte(len(links)))
		for _, l := range links {
			b = append(b, byte(l[0]), byte(l[1]), byte(l[2]), byte(l[3]))
		}
	}
	return b
}

// Label indexes of the seeds below.
const (
	fzA = iota
	fzB
	fzC
	fzD
)

// FuzzGreedyMatchesBruteForce is a differential fuzzer for the greedy
// engine: it runs a fuzzed program to the last move and checks, before every
// step, that the cached selection takes the move a full scan over the
// definitions would (bruteForceBest); after every step, that every distance
// cell, size and link-table entry matches the definitions (checkCells); and
// at the end, that Run.At(k) rebuilds the typing the engine's definitions
// decoded to at every k the run passed.
func FuzzGreedyMatchesBruteForce(f *testing.F) {
	const delta2 = 1 // config bits 0-2 that pick Delta2
	// Example 5.1: merging t1 into t0 collapses ->b[t1] into ->b[t0], which
	// makes t2 and t3 identical.
	f.Add(greedyCase{config: delta2, weights: []int{10, 10, 10, 10}, types: [][][4]int{
		{{fzAtomic, fzA, 0, 0}, {fzOutClass, fzB, 2, 0}},
		{{fzAtomic, fzA, 0, 0}, {fzOutClass, fzB, 3, 0}},
		{{fzAtomic, fzA, 0, 0}, {fzOutClass, fzB, 0, 0}},
		{{fzAtomic, fzA, 0, 0}, {fzOutClass, fzB, 1, 0}},
	}}.encode())
	// Example 5.3 in this alphabet: a small type two links from a large
	// one is retired to the empty type (bias 2/8) before any merge.
	f.Add(greedyCase{config: delta2 | 8, bias: 1, weights: []int{250, 25, 2}, types: [][][4]int{
		{{fzAtomic, fzA, 0, 0}, {fzAtomic, fzB, 0, 0}},
		{{fzAtomic, fzA, 0, 0}, {fzAtomic, fzB, 0, 0}, {fzAtomic, fzC, 0, 0}, {fzAtomic, fzD, 0, 0}, {fzAtomicSort, fzC, 0, 1}},
		{{fzAtomic, fzA, 0, 0}, {fzAtomic, fzB, 0, 0}, {fzAtomic, fzC, 0, 0}},
	}}.encode())
	// The first merge (t1 into t0) renames ->a[t1] to ->a[t0]: no type
	// holds ->a[t0] yet.
	f.Add(greedyCase{config: delta2, weights: []int{9, 1, 9}, types: [][][4]int{
		{{fzAtomic, fzB, 0, 0}},
		{{fzAtomic, fzB, 0, 0}, {fzAtomic, fzC, 0, 0}},
		{{fzOutClass, fzA, 1, 0}, {fzInClass, fzD, 1, 0}},
	}}.encode())
	// The first merge (t1 into t0) collapses ->a[t1] into ->a[t0], which t3
	// already holds, so t2 and t3 become identical.
	f.Add(greedyCase{config: delta2, weights: []int{9, 1, 9, 9}, types: [][][4]int{
		{{fzAtomic, fzB, 0, 0}},
		{{fzAtomic, fzB, 0, 0}, {fzAtomic, fzC, 0, 0}},
		{{fzOutClass, fzA, 1, 0}, {fzAtomicValue, fzD, 0, 3}},
		{{fzOutClass, fzA, 0, 0}, {fzAtomicValue, fzD, 0, 3}},
	}}.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, cfg := decodeGreedyCase(data)
		n := len(p.Types)
		type point struct {
			prog    *typing.Program
			mapping []int
			total   float64
		}
		g := NewGreedy(p.Clone(), nil, cfg, nil)
		checkCells(t, g, 0, -1)
		slotOf := identityMap(n)
		var points []point
		for step := 0; ; step++ {
			prog, mapping := decodeProgram(t, g, slotOf)
			points = append(points, point{prog, mapping, g.TotalDistance()})
			if g.NumActive() < 2 {
				if _, ok := g.Step(); ok {
					t.Fatalf("Step moved with %d active types", g.NumActive())
				}
				break
			}
			wantFrom, wantTo, wantCost, wantOK := bruteForceBest(g)
			st, ok := g.Step()
			if ok != wantOK {
				t.Fatalf("step %d: ok=%v, brute force %v\n%s", step, ok, wantOK, p)
			}
			if !ok {
				break
			}
			if st.From != wantFrom || st.To != wantTo || st.Cost != wantCost {
				t.Fatalf("step %d: cached picked (%d->%d, %v), brute force (%d->%d, %v)\n%s",
					step, st.From, st.To, st.Cost, wantFrom, wantTo, wantCost, p)
			}
			checkCells(t, g, 0, step)
			for orig, slot := range slotOf {
				if slot == st.From {
					slotOf[orig] = st.To
				}
			}
		}
		run := g.Run()
		for k := 0; k <= n+1; k++ {
			want := points[max(0, min(n-k, len(points)-1))]
			prog, mapping, total := run.At(k)
			if !reflect.DeepEqual(prog, want.prog) || !reflect.DeepEqual(mapping, want.mapping) || total != want.total {
				t.Fatalf("At(%d) = %v, %v:\n%s\nwant %v, %v:\n%s", k, mapping, total, prog, want.mapping, want.total, want.prog)
			}
		}
	})
}
