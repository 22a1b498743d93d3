package perfect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/synth"
	"schemex/internal/typing"
)

// TestExtentIsPDFixpoint: on the GFP route Minimal takes P_D's extent from
// the Q_D fixpoint instead of evaluating P_D. The evaluation it replaces is
// the oracle: at serial and full parallelism, the extent equals EvalGFP(P_D)
// cold and after a random position-stable delta, where the warm result must
// equal a cold run on the child. Random graphs carry atomic values of two
// sorts and run under every picture option. Table 1's graph presets and
// DBG ×1/×2, plain and perturbed, are the fixed cases; their values have
// one sort, and they run under the plain picture.
func TestExtentIsPDFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(name string, db *graph.DB, pictures []Options) {
		for _, pic := range pictures {
			for _, p := range []int{1, 0} {
				opts := pic
				opts.Parallelism = p
				label := fmt.Sprintf("%s sorts=%v values=%v p=%d", name, opts.UseSorts, opts.ValueLabels, p)
				checkExtentWarmAndCold(t, label, db, opts, randomDelta(rng, db))
			}
		}
	}
	for no := 5; no <= 8; no++ {
		db, err := synth.Presets()[no-1].Build()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("DB%d", no), db, []Options{{}})
	}
	for _, scale := range []int{1, 2} {
		db, _ := dbg.Generate(dbg.Options{Scale: scale})
		check(fmt.Sprintf("DBG×%d", scale), db, []Options{{}})
		check(fmt.Sprintf("DBG×%d perturbed", scale), synth.Perturb(db, 10, 10, int64(scale)), []Options{{}})
	}
	values := []string{"x"} // randomValuedDB's valued attribute
	for i := 0; i < 200; i++ {
		check(fmt.Sprintf("random graph %d", i), randomValuedDB(rng), []Options{
			{},
			{UseSorts: true},
			{ValueLabels: values},
			{UseSorts: true, ValueLabels: values},
		})
	}
}

// checkExtentWarmAndCold runs Stage 1 cold on db, then warm and cold on the
// snapshot delta derives from it. The warm result must equal the cold one,
// and both cold extents the P_D fixpoint.
func checkExtentWarmAndCold(t *testing.T, name string, db *graph.DB, opts Options, delta *graph.Delta) {
	t.Helper()
	coldOn := func(snap *compile.Snapshot) *Result {
		t.Helper()
		res, err := Minimal(snap, opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := typing.EvalGFP(res.Program, snap, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Extent.Equal(want) {
			t.Fatalf("%s: extent differs from the P_D fixpoint", name)
		}
		return res
	}
	snap, err := compile.Compile(db, 0, opts.Parallelism, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent := coldOn(snap)
	child, info, err := compile.Apply(snap, delta, opts.Parallelism, nil)
	if err != nil {
		t.Fatalf("%s: apply: %v", name, err)
	}
	if !info.PosStable {
		t.Fatalf("%s: delta moved complex positions", name)
	}
	warm, err := Minimal(child, opts, &Warm{Parent: parent, Touched: info.Touched})
	if err != nil {
		t.Fatalf("%s: warm: %v", name, err)
	}
	fresh, err := compile.Compile(child.DB(), 0, opts.Parallelism, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldOn(fresh)
	if warm.Program.String() != cold.Program.String() ||
		!reflect.DeepEqual(warm.Home, cold.Home) || !warm.Extent.Equal(cold.Extent) {
		t.Fatalf("%s: warm Stage 1 differs from cold", name)
	}
}

// twoSorts is the atomic value pool of the random graphs: two texts each of
// two sorts, so sort and value refinements both split classes.
var twoSorts = []graph.Value{
	{Sort: graph.SortInt, Text: "1"},
	{Sort: graph.SortInt, Text: "2"},
	{Sort: graph.SortString, Text: "p"},
	{Sort: graph.SortString, Text: "q"},
}

// randomValuedDB builds a small random graph: complex objects linked by
// labels a and b, each with optional atomic attributes x and y drawn from
// twoSorts. The alphabets are small so that classes have several members.
func randomValuedDB(rng *rand.Rand) *graph.DB {
	db := graph.New()
	n := 3 + rng.Intn(10)
	for i := 0; i < n; i++ {
		o := fmt.Sprintf("o%d", i)
		db.Intern(o)
		for _, attr := range []string{"x", "y"} {
			if rng.Intn(3) > 0 {
				a := o + "." + attr
				if err := db.SetAtomic(db.Intern(a), twoSorts[rng.Intn(len(twoSorts))]); err != nil {
					panic(err)
				}
				db.Link(o, a, attr)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(5) == 0 {
				db.Link(fmt.Sprintf("o%d", i), fmt.Sprintf("o%d", j), []string{"a", "b"}[rng.Intn(2)])
			}
		}
	}
	return db
}

// randomDelta draws a delta that keeps every complex position: at most one
// link removal, one to three additions (a link between complex objects, a
// fresh atomic attribute, or a fresh complex object), and sometimes the
// detachment of a complex object, which stays complex.
func randomDelta(rng *rand.Rand, db *graph.DB) *graph.Delta {
	d := &graph.Delta{}
	cx := db.ComplexObjects()
	labels := db.Labels()
	pick := func() string { return db.Name(cx[rng.Intn(len(cx))]) }
	label := func() string { return labels[rng.Intn(len(labels))] }
	var edges []graph.Edge
	db.Links(func(e graph.Edge) { edges = append(edges, e) })
	if len(edges) > 0 && rng.Intn(2) == 0 {
		e := edges[rng.Intn(len(edges))]
		d.RemoveLink(db.Name(e.From), db.Name(e.To), e.Label)
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		switch rng.Intn(3) {
		case 0:
			d.AddLink(pick(), pick(), label())
		case 1:
			a := fmt.Sprintf("new.%d", k)
			d.AddAtomic(a, twoSorts[rng.Intn(len(twoSorts))])
			d.AddLink(pick(), a, label())
		default:
			d.AddLink(pick(), fmt.Sprintf("newc.%d", k), label())
		}
	}
	if rng.Intn(4) == 0 {
		d.RemoveObject(pick())
	}
	return d
}
