package schemex

import "testing"

func TestDriftReport(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 8; i++ {
		n := "p" + string(rune('0'+i))
		g.LinkAtom(n, "name", "x")
		g.LinkAtom(n, "mail", "y")
	}
	res, err := Extract(g, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No drift yet.
	d := res.Drift(1)
	if d.NewObjects != 0 || d.IllFitting != 0 || d.TotalObjects != 8 {
		t.Fatalf("fresh drift = %+v", d)
	}
	if d.ShouldReextract(0.25) {
		t.Fatal("fresh result should not need re-extraction")
	}

	// Two well-fitting newcomers and one alien page.
	g.LinkAtom("new1", "name", "x")
	g.LinkAtom("new1", "mail", "y")
	g.LinkAtom("new2", "name", "x")
	g.LinkAtom("alien", "zzz1", "a")
	g.LinkAtom("alien", "zzz2", "b")
	g.LinkAtom("alien", "zzz3", "c")

	d = res.Drift(1)
	if d.NewObjects != 3 || d.TotalObjects != 11 {
		t.Fatalf("drift = %+v", d)
	}
	if d.IllFitting != 1 {
		t.Fatalf("ill-fitting = %d, want 1 (the alien)", d.IllFitting)
	}
	if !d.ShouldReextract(0.5) {
		t.Fatal("an ill-fitting object should trigger re-extraction")
	}

	// With no cutoff the alien still lands on the closest type: only the
	// new-fraction policy can fire.
	d = res.Drift(-1)
	if d.IllFitting != 0 {
		t.Fatalf("no-cutoff drift = %+v", d)
	}
	if !d.ShouldReextract(0.1) {
		t.Fatal("27%% new objects should exceed a 10%% policy")
	}
	if d.ShouldReextract(0.5) {
		t.Fatal("27%% new objects should pass a 50%% policy")
	}
}

func TestDriftEmptyGraphPolicy(t *testing.T) {
	var d DriftReport
	if d.ShouldReextract(0.1) {
		t.Fatal("empty report should not trigger")
	}
}
