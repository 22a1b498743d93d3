package cluster

import (
	"testing"

	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/synth"
	"schemex/internal/typing"
)

// snapOf compiles db with the automatic layout on every CPU.
func snapOf(tb testing.TB, db *graph.DB) *compile.Snapshot {
	tb.Helper()
	snap, err := compile.Compile(db, 0, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

func TestIsBipartiteProgram(t *testing.T) {
	bip := typing.MustParse(`
		type a = ->x[0] & ->y[0]
		type b = ->z[0]
	`)
	if !IsBipartiteProgram(bip) {
		t.Fatal("atomic-only program not recognized as bipartite")
	}
	gen := typing.MustParse(`
		type a = ->x[0] & ->ref[b]
		type b = ->z[0]
	`)
	if IsBipartiteProgram(gen) {
		t.Fatal("program with a complex target reported bipartite")
	}
}

func TestAttributeSets(t *testing.T) {
	bip := typing.MustParse(`
		type a = ->y[0] & ->x[0]
		type b = ->z[0] & ->z[0]
	`)
	sets, ok := AttributeSets(bip)
	if !ok || len(sets) != 2 {
		t.Fatalf("sets = %v ok=%v", sets, ok)
	}
	if len(sets[0]) != 2 || sets[0][0] != "x" || sets[0][1] != "y" {
		t.Fatalf("sets[0] = %v, want [x y]", sets[0])
	}
	if len(sets[1]) != 1 || sets[1][0] != "z" {
		t.Fatalf("sets[1] = %v, want [z]", sets[1])
	}
	if _, ok := AttributeSets(typing.MustParse(`type a = ->r[a]`)); ok {
		t.Fatal("AttributeSets accepted a non-bipartite program")
	}
}

// TestBipartiteStage1ProducesBipartiteProgram: bipartite data yields a
// bipartite Stage 1 program (the §5.2 special case arises automatically),
// and the greedy run never projects (distances between untouched clusters
// are stable).
func TestBipartiteStage1ProducesBipartiteProgram(t *testing.T) {
	preset := synth.Presets()[0] // DB1: bipartite
	db, err := preset.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfect.Minimal(snapOf(t, db), perfect.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBipartiteProgram(res.Program) {
		t.Fatal("Stage 1 of bipartite data must be bipartite")
	}
	g := NewGreedy(res.Program.Clone(), nil, Config{}, nil)
	before := int(g.distAt(0, 1))
	g.RunTo(res.Program.Len() - 3)
	// Neither 0 nor 1 was merged away? Find two still-active original slots
	// and confirm their distance is unchanged (no projection can occur).
	var a, b = -1, -1
	for i := 0; i < g.n; i++ {
		if g.active[i] && g.members[i] == 1 {
			if a < 0 {
				a = i
			} else if b < 0 {
				b = i
				break
			}
		}
	}
	if a == 0 && b == 1 && int(g.distAt(0, 1)) != before {
		t.Fatal("distance between untouched bipartite clusters changed (spurious projection)")
	}
}
