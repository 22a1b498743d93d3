package typing

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"schemex/internal/compile"
	"schemex/internal/graph"
)

// evalGFP compiles db and evaluates p's greatest fixpoint serially.
func evalGFP(t testing.TB, p *Program, db *graph.DB) *Extent {
	t.Helper()
	snap, err := compile.Compile(db, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := EvalGFP(p, snap, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

// figure2DB builds the manager/firm database of Figure 2.
func figure2DB() *graph.DB {
	db := graph.New()
	db.Link("g", "m", "is-manager-of")
	db.Link("j", "a", "is-manager-of")
	db.Link("m", "g", "is-managed-by")
	db.Link("a", "j", "is-managed-by")
	db.LinkAtom("g", "name", "gn", "Gates")
	db.LinkAtom("j", "name", "jn", "Jobs")
	db.LinkAtom("m", "name", "mn", "Microsoft")
	db.LinkAtom("a", "name", "an", "Apple")
	return db
}

// figure2Program is P0: person manages a firm and has a name; a firm is
// managed by a person and has a name.
func figure2Program() *Program {
	return MustParse(`
		type person = ->is-manager-of[firm] & ->name[0]
		type firm   = ->is-managed-by[person] & ->name[0]
	`)
}

func TestCanonicalize(t *testing.T) {
	ty := &Type{Name: "t", Links: []TypedLink{
		{Dir: Out, Label: "b", Target: AtomicTarget},
		{Dir: In, Label: "a", Target: 0},
		{Dir: Out, Label: "b", Target: AtomicTarget}, // duplicate
		{Dir: Out, Label: "a", Target: 1},
	}}
	ty.Canonicalize()
	if len(ty.Links) != 3 {
		t.Fatalf("canonicalize kept %d links, want 3 (dedup)", len(ty.Links))
	}
	for i := 1; i < len(ty.Links); i++ {
		if ty.Links[i-1].Compare(ty.Links[i]) >= 0 {
			t.Fatalf("links not strictly sorted: %v", ty.Links)
		}
	}
	if !ty.HasLink(TypedLink{Dir: In, Label: "a", Target: 0}) {
		t.Fatal("HasLink missed a present link")
	}
	if ty.HasLink(TypedLink{Dir: In, Label: "zz", Target: 0}) {
		t.Fatal("HasLink found an absent link")
	}
}

func TestValidateRejects(t *testing.T) {
	p := NewProgram()
	p.Add(&Type{Name: "x", Links: []TypedLink{{Dir: In, Label: "l", Target: AtomicTarget}}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "atomic") {
		t.Fatalf("incoming-from-atomic link should be rejected, got %v", err)
	}
	p2 := NewProgram()
	p2.Add(&Type{Name: "x", Links: []TypedLink{{Dir: Out, Label: "l", Target: 5}}})
	if err := p2.Validate(); err == nil {
		t.Fatal("out-of-range target should be rejected")
	}
	p3 := NewProgram()
	p3.Add(&Type{Name: "dup"})
	p3.Add(&Type{Name: "dup"})
	if err := p3.Validate(); err == nil {
		t.Fatal("duplicate type names should be rejected")
	}
}

func TestNotationRoundtrip(t *testing.T) {
	p := figure2Program()
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse: %v\nprogram:\n%s", err, p)
	}
	if p.String() != p2.String() {
		t.Fatalf("roundtrip changed program:\n%svs\n%s", p, p2)
	}
}

func TestNotationQuotedLabels(t *testing.T) {
	p := NewProgram()
	p.Add(&Type{Name: "weird type", Links: []TypedLink{{Dir: Out, Label: "label with space", Target: AtomicTarget}}})
	s := p.String()
	p2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse of %q: %v", s, err)
	}
	if p2.Types[0].Name != "weird type" || p2.Types[0].Links[0].Label != "label with space" {
		t.Fatalf("quoting lost data: %q -> %+v", s, p2.Types[0])
	}
}

func TestParseForwardReference(t *testing.T) {
	p := MustParse(`
		type a = ->next[b]
		type b = ->prev[a]
	`)
	if p.Types[0].Links[0].Target != 1 || p.Types[1].Links[0].Target != 0 {
		t.Fatalf("forward reference mis-resolved: %+v", p.Types)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"type a = ->x[undefined-type]",
		"type a = x[0]",                     // missing arrow
		"type a = ->x 0",                    // missing bracket
		"type a ->x[0]",                     // missing =
		"type a = ->x[0]\n type a = ->y[0]", // duplicate
		"type a = <-x[0]",                   // incoming from atomic
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestFigure2GFP(t *testing.T) {
	db := figure2DB()
	p := figure2Program()
	for name, eval := range map[string]func(*Program, *graph.DB) *Extent{
		"naive":   EvalGFPNaive,
		"support": func(p *Program, db *graph.DB) *Extent { return evalGFP(t, p, db) },
	} {
		e := eval(p, db)
		person, firm := p.IndexOf("person"), p.IndexOf("firm")
		if got := e.Count(person); got != 2 {
			t.Errorf("%s: |person| = %d, want 2", name, got)
		}
		if got := e.Count(firm); got != 2 {
			t.Errorf("%s: |firm| = %d, want 2", name, got)
		}
		if !e.Has(person, db.Lookup("g")) || !e.Has(person, db.Lookup("j")) {
			t.Errorf("%s: person extent wrong", name)
		}
		if !e.Has(firm, db.Lookup("m")) || !e.Has(firm, db.Lookup("a")) {
			t.Errorf("%s: firm extent wrong", name)
		}
		if !e.IsFixpoint() {
			t.Errorf("%s: extent is not a fixpoint", name)
		}
	}
}

func TestGFPDropsUnsupported(t *testing.T) {
	db := figure2DB()
	// Remove Microsoft's name: m no longer satisfies firm, so g loses
	// person (its only is-manager-of target leaves firm).
	db.RemoveLink(db.Lookup("m"), db.Lookup("mn"), "name")
	p := figure2Program()
	e := evalGFP(t, p, db)
	person, firm := p.IndexOf("person"), p.IndexOf("firm")
	if e.Has(firm, db.Lookup("m")) {
		t.Fatal("m kept firm without a name link")
	}
	if e.Has(person, db.Lookup("g")) {
		t.Fatal("g kept person after its firm witness vanished (no cascade)")
	}
	if !e.Has(person, db.Lookup("j")) || !e.Has(firm, db.Lookup("a")) {
		t.Fatal("unrelated objects lost their types")
	}
}

// randomDB and randomProgram drive the cross-evaluator property tests.
func randomDB(rng *rand.Rand, n int) *graph.DB {
	db := graph.New()
	labels := []string{"a", "b", "c"}
	names := make([]string, n)
	for i := range names {
		names[i] = "o" + itoa(i)
		db.Intern(names[i])
	}
	for i := 0; i < n*2; i++ {
		f, to := rng.Intn(n), rng.Intn(n)
		if f != to {
			db.Link(names[f], names[to], labels[rng.Intn(len(labels))])
		}
	}
	for i := 0; i < n/2; i++ {
		owner := names[rng.Intn(n)]
		atom := "v" + itoa(i)
		db.Atom(atom, atom)
		db.Link(owner, atom, labels[rng.Intn(len(labels))])
	}
	return db
}

func randomProgram(rng *rand.Rand, nTypes int) *Program {
	labels := []string{"a", "b", "c"}
	p := NewProgram()
	for i := 0; i < nTypes; i++ {
		ty := &Type{Name: "t" + itoa(i)}
		for j := 0; j < 1+rng.Intn(3); j++ {
			l := TypedLink{Label: labels[rng.Intn(len(labels))]}
			switch rng.Intn(3) {
			case 0:
				l.Dir, l.Target = Out, AtomicTarget
			case 1:
				l.Dir, l.Target = Out, rng.Intn(nTypes)
			default:
				l.Dir, l.Target = In, rng.Intn(nTypes)
			}
			ty.Links = append(ty.Links, l)
		}
		p.Add(ty)
	}
	return p
}

func itoa(i int) string {
	digits := "0123456789"
	if i < 10 {
		return digits[i : i+1]
	}
	return itoa(i/10) + digits[i%10:i%10+1]
}

// TestEvaluatorsAgreeProperty cross-checks the three GFP implementations —
// naive downward iteration, support counting, and the generic datalog
// engine — on random databases and programs.
func TestEvaluatorsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, 4+rng.Intn(10))
		p := randomProgram(rng, 1+rng.Intn(4))
		e1 := EvalGFPNaive(p, db)
		e2 := evalGFP(t, p, db)
		if !e1.Equal(e2) {
			t.Logf("seed %d: naive and support-count disagree", seed)
			return false
		}
		e3, err := EvalGFPDatalog(p, db)
		if err != nil {
			t.Logf("seed %d: datalog eval failed: %v", seed, err)
			return false
		}
		if !e1.Equal(e3) {
			t.Logf("seed %d: naive and datalog disagree", seed)
			return false
		}
		return e1.IsFixpoint()
	}
	// Fixed quick seed: the default time-seeded generator occasionally
	// draws a program whose datalog grounding is combinatorially slow,
	// timing the suite out. Determinism keeps the gate reproducible.
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLocalLinks(t *testing.T) {
	db := figure2DB()
	p := figure2Program()
	e := evalGFP(t, p, db)
	local := LocalLinks(db, db.Lookup("g"), func(x graph.ObjectID) []int { return e.TypesOf(x) }, PictureOpts{})
	firm := p.IndexOf("firm")
	wantOut := TypedLink{Dir: Out, Label: "is-manager-of", Target: firm}
	found := false
	for _, l := range local {
		if l == wantOut {
			found = true
		}
	}
	if !found {
		t.Fatalf("local picture of g = %v missing %v", local, wantOut)
	}
	// g's name edge must appear as ->name[0].
	if !NewLinkSet(local)[TypedLink{Dir: Out, Label: "name", Target: AtomicTarget}] {
		t.Fatalf("local picture of g = %v missing ->name[0]", local)
	}
	// g is managed-by? No: g has incoming is-managed-by from m.
	if !NewLinkSet(local)[TypedLink{Dir: In, Label: "is-managed-by", Target: firm}] {
		t.Fatalf("local picture of g = %v missing <-is-managed-by[firm]", local)
	}
}

func TestAssignment(t *testing.T) {
	db := figure2DB()
	p := figure2Program()
	a := NewAssignment(p, db)
	g := db.Lookup("g")
	a.Assign(g, 0)
	a.Assign(g, 0) // idempotent
	a.Assign(g, 1)
	if got := a.Of(g); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Of(g) = %v, want [0 1]", got)
	}
	if !a.Has(g, 1) || a.Has(db.Lookup("m"), 0) {
		t.Fatal("Has wrong")
	}
	if got := len(a.Unclassified()); got != 3 {
		t.Fatalf("unclassified = %d, want 3 (j, m, a)", got)
	}
	member := a.Membership()
	if !member[0].Test(int(g)) || !member[1].Test(int(g)) {
		t.Fatal("membership bitsets wrong")
	}
}

func TestFromExtent(t *testing.T) {
	db := figure2DB()
	p := figure2Program()
	e := evalGFP(t, p, db)
	a := FromExtent(e)
	for ti := range p.Types {
		for _, o := range e.Objects(ti) {
			if !a.Has(o, ti) {
				t.Fatalf("assignment missing (%s, %s)", db.Name(o), p.Types[ti].Name)
			}
		}
	}
}

func TestCompileDatalogForm(t *testing.T) {
	p := figure2Program()
	dp := CompileDatalog(p)
	if len(dp.Rules) != 2 {
		t.Fatalf("compiled %d rules, want 2", len(dp.Rules))
	}
	if err := dp.Validate(); err != nil {
		t.Fatal(err)
	}
	if !dp.IsMonadicIDB() {
		t.Fatal("compiled program must have monadic IDBs")
	}
	s := dp.String()
	for _, frag := range []string{"t0(X)", "link(X, Y0, ", "atomic("} {
		if !strings.Contains(s, frag) {
			t.Errorf("compiled program missing %q:\n%s", frag, s)
		}
	}
}

func TestDistinctLinksAndSize(t *testing.T) {
	p := MustParse(`
		type a = ->x[0] & ->y[b]
		type b = ->x[0] & <-y[a]
	`)
	if got := p.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
	// Distinct: ->x[0] shared, ->y[b], <-y[a] => 3.
	if got := p.DistinctLinks(); got != 3 {
		t.Fatalf("DistinctLinks = %d, want 3", got)
	}
}

func TestEmptyTypeViaComplexPredicate(t *testing.T) {
	// A type with no links compiles to a rule over complex/1 and must hold
	// of every complex object under the datalog GFP.
	p := NewProgram()
	p.Add(&Type{Name: "anything"})
	db := figure2DB()
	e, err := EvalGFPDatalog(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Count(0); got != 4 {
		t.Fatalf("|anything| = %d, want 4", got)
	}
	// The specialized evaluators agree: no links means no removal.
	if got := evalGFP(t, p, db).Count(0); got != 4 {
		t.Fatalf("specialized |anything| = %d, want 4", got)
	}
}
