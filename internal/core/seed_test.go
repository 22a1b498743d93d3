package core

import (
	"strings"
	"testing"

	"schemex/internal/typing"
)

func TestWithSeedsNil(t *testing.T) {
	base := typing.MustParse(`type a = ->x[0]`)
	out, pinned, err := withSeeds(base, nil)
	if err != nil || out != base || pinned != nil {
		t.Fatalf("nil seed should be a no-op: %v %v %v", out, pinned, err)
	}
	empty := typing.NewProgram()
	out, pinned, err = withSeeds(base, empty)
	if err != nil || out != base || pinned != nil {
		t.Fatal("empty seed should be a no-op")
	}
}

func TestWithSeedsAppendsAndPins(t *testing.T) {
	base := typing.MustParse(`
		type a = ->x[0]
		type b = ->y[a]
	`)
	seed := typing.MustParse(`
		type s1 = ->p[s2]
		type s2 = ->q[0]
	`)
	out, pinned, err := withSeeds(base, seed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("combined program has %d types, want 4", out.Len())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Seed-internal targets are offset: s1 -> s2 must point at index 3.
	s1 := out.IndexOf("s1")
	if s1 != 2 || out.Types[s1].Links[0].Target != 3 {
		t.Fatalf("seed link mis-offset: %+v", out.Types[s1])
	}
	if len(pinned) != 4 || pinned[0] || pinned[1] || !pinned[2] || !pinned[3] {
		t.Fatalf("pinned = %v", pinned)
	}
	// The base program must not be mutated.
	if base.Len() != 2 {
		t.Fatal("withSeeds mutated the base program")
	}
}

func TestWithSeedsNameCollision(t *testing.T) {
	base := typing.MustParse(`type a = ->x[0]`)
	seed := typing.MustParse(`type a = ->y[0]`)
	out, _, err := withSeeds(base, seed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Types[0].Name == out.Types[1].Name {
		t.Fatalf("collision not resolved: %s", out.Types[1].Name)
	}
	if !strings.HasPrefix(out.Types[1].Name, "a") {
		t.Fatalf("disambiguated name %q lost its base", out.Types[1].Name)
	}
}

func TestWithSeedsInvalidSeed(t *testing.T) {
	base := typing.MustParse(`type a = ->x[0]`)
	bad := typing.NewProgram()
	bad.Add(&typing.Type{Name: "s", Links: []typing.TypedLink{{Dir: typing.Out, Label: "l", Target: 7}}})
	if _, _, err := withSeeds(base, bad); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

func TestExtractSeedKClamp(t *testing.T) {
	// K below the number of pinned seeds clamps up: the seeds survive.
	db := recordsDB()
	seed := typing.MustParse(`
		type s1 = ->zz1[0]
		type s2 = ->zz2[0]
		type s3 = ->zz3[0]
	`)
	res, err := Extract(db, Options{K: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Len() < 3 {
		t.Fatalf("pinned seeds merged away: %d types", res.Program.Len())
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		if res.Program.IndexOf(name) < 0 {
			t.Fatalf("seed %s missing from final program:\n%s", name, res.Program)
		}
	}
}
