// Property tests for delta sessions: for any delta stream, ApplyContext
// followed by ExtractPreparedContext must be observationally identical to
// loading and extracting the mutated graph from scratch — byte-identical
// schemas, defects, and per-object assignments — at serial and parallel
// execution, across the Table 1 shapes and the DBG dataset, whichever path
// the apply took
// (structural sharing, label-universe recompile, atomic-flip recompile, or
// the incremental-GFP budget fallback).
package schemex

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/synth"
)

// genDelta builds a random, guaranteed-applicable delta against cur: every
// candidate edit is validated in order against a scratch clone, and edits
// the clone rejects are skipped. The stream mixes edge insertions (existing
// and brand-new labels), edge removals, fresh objects with atomic
// attributes, idempotent re-adds, and object detachments (including atomic
// ones, which force the full-recompile path).
func genDelta(r *rand.Rand, cur *graph.DB, step, nOps int, newLabelP, flipP float64) *Delta {
	sim := cur.Clone()
	d := NewDelta()
	labels := cur.Labels()
	var links []graph.Edge
	cur.Links(func(e graph.Edge) { links = append(links, e) })
	var complexObjs, allObjs []graph.ObjectID
	cur.Objects(func(o graph.ObjectID) {
		allObjs = append(allObjs, o)
		if !cur.IsAtomic(o) {
			complexObjs = append(complexObjs, o)
		}
	})
	if len(complexObjs) == 0 {
		return d
	}
	name := func(o graph.ObjectID) string { return cur.Name(o) }

	for i := 0; i < nOps; i++ {
		switch op := r.Intn(10); {
		case op <= 2: // add a link between existing objects
			from := complexObjs[r.Intn(len(complexObjs))]
			to := allObjs[r.Intn(len(allObjs))]
			label := labels[r.Intn(len(labels))]
			if r.Float64() < newLabelP {
				label = fmt.Sprintf("lbl_%d_%d", step, i)
			}
			if sim.IsAtomic(from) {
				continue // detached-then-readded bookkeeping: stay conservative
			}
			if err := sim.AddLink(from, to, label); err == nil {
				d.Link(name(from), name(to), label)
			}
		case op <= 5: // remove an existing link
			if len(links) == 0 {
				continue
			}
			e := links[r.Intn(len(links))]
			if sim.RemoveLink(e.From, e.To, e.Label) {
				d.Unlink(name(e.From), name(e.To), e.Label)
			}
		case op == 6: // fresh object with an atomic attribute, linked in
			parent := complexObjs[r.Intn(len(complexObjs))]
			if sim.IsAtomic(parent) {
				continue
			}
			obj := fmt.Sprintf("new_%d_%d", step, i)
			atom := obj + ".v"
			label := labels[r.Intn(len(labels))]
			if err := sim.SetAtomic(sim.Intern(atom), graph.Value{Sort: graph.SortInt, Text: "17"}); err != nil {
				continue
			}
			if sim.AddLink(parent, sim.Intern(obj), label) != nil {
				continue
			}
			_ = sim.AddLink(sim.Intern(obj), sim.Intern(atom), label)
			d.Atom(atom, "17")
			d.Link(name(parent), obj, label)
			d.Link(obj, atom, label)
		case op == 7: // idempotent re-add of an existing link (must be a no-op)
			if len(links) == 0 {
				continue
			}
			e := links[r.Intn(len(links))]
			if sim.HasEdge(e.From, e.To, e.Label) {
				d.Link(name(e.From), name(e.To), e.Label)
			}
		case op == 8 && r.Float64() < flipP: // detach an atomic object: flips it complex
			atomics := sim.AtomicObjects()
			if len(atomics) == 0 {
				continue
			}
			o := atomics[r.Intn(len(atomics))]
			if int(o) >= cur.NumObjects() {
				continue
			}
			for _, e := range append(append([]graph.Edge(nil), sim.Out(o)...), sim.In(o)...) {
				sim.RemoveLink(e.From, e.To, e.Label)
			}
			d.Remove(name(o))
		case op == 9: // detach a complex object
			o := complexObjs[r.Intn(len(complexObjs))]
			for _, e := range append(append([]graph.Edge(nil), sim.Out(o)...), sim.In(o)...) {
				sim.RemoveLink(e.From, e.To, e.Label)
			}
			d.Remove(name(o))
		}
	}
	return d
}

func applyCases(t *testing.T) []struct {
	name string
	db   *graph.DB
	k    int
} {
	t.Helper()
	var cases []struct {
		name string
		db   *graph.DB
		k    int
	}
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			db   *graph.DB
			k    int
		}{fmt.Sprintf("DB%d", p.DBNo), db, p.Intended()})
	}
	for _, seed := range []int64{0, 3} {
		db, _ := dbg.Generate(dbg.Options{Seed: seed})
		cases = append(cases, struct {
			name string
			db   *graph.DB
			k    int
		}{fmt.Sprintf("dbg-seed%d", seed), db, 6})
	}
	return cases
}

// TestApplyExtractEquivalence drives a random delta stream through a chain
// of sessions and checks each link of the chain against a from-scratch
// extraction of an independent deep copy of the mutated graph.
func TestApplyExtractEquivalence(t *testing.T) {
	for _, c := range applyCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(c.name)) * 1315423911))
			g := &Graph{db: c.db}
			sess, err := PrepareOptions(context.Background(), g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sess.Version() != 0 {
				t.Fatalf("fresh session version = %d, want 0", sess.Version())
			}
			// Seed the Stage 1 memo so the first Apply has warm state.
			if _, err := ExtractPreparedContext(context.Background(), sess, Options{K: c.k}); err != nil {
				t.Fatal(err)
			}
			const steps = 6
			for step := 0; step < steps; step++ {
				cur := sess.Graph().DB()
				nOps := 1 + r.Intn(4)
				newLabelP, flipP := 0.0, 0.0
				switch step {
				case 2:
					newLabelP = 0.5 // label-universe growth: full-recompile path
				case 3:
					flipP = 1.0 // atomic detach: position-shift path
				case 4:
					nOps = cur.NumLinks()/3 + 4 // big delta: GFP budget fallback
				}
				delta := genDelta(r, cur, step, nOps, newLabelP, flipP)
				child, info, err := sess.ApplyContext(context.Background(), delta)
				if err != nil {
					t.Fatalf("step %d: apply: %v\ndelta:\n%s", step, err, delta)
				}
				if child.Version() != uint64(step+1) {
					t.Fatalf("step %d: version = %d, want %d", step, child.Version(), step+1)
				}
				scratch := &Graph{db: child.Graph().DB().Clone()}
				for _, par := range []int{1, 0} {
					opts := Options{K: c.k, Parallelism: par}
					label := fmt.Sprintf("step=%d par=%d incr=%v touched=%d", step, par, info.Incremental, info.TouchedObjects)
					cold, err := Extract(scratch, opts)
					if err != nil {
						t.Fatalf("%s: scratch extract: %v", label, err)
					}
					warm, err := ExtractPreparedContext(context.Background(), child, opts)
					if err != nil {
						t.Fatalf("%s: session extract: %v", label, err)
					}
					assertSameExtraction(t, scratch.db, cold, warm, label)
				}
				// Extract between applies on even steps only, so odd steps
				// exercise warm-hint chaining across un-extracted parents.
				if step%2 == 1 {
					child, _, err = sess.ApplyContext(context.Background(), delta) // re-branch: parent must still be intact
					if err != nil {
						t.Fatalf("step %d: re-apply on parent: %v", step, err)
					}
				}
				sess = child
			}
		})
	}
}

// TestApplyParentUnaffected checks that a session's graph, snapshot, and
// results survive deltas applied to it: branching is copy-on-write all the
// way down.
func TestApplyParentUnaffected(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	g := &Graph{db: db}
	sess, err := PrepareOptions(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := ExtractPreparedContext(context.Background(), sess, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	stats := db.Stats()

	r := rand.New(rand.NewSource(7))
	children := make([]*Prepared, 0, 3)
	for i := 0; i < 3; i++ { // several siblings branched off one parent
		delta := genDelta(r, sess.Graph().DB(), i, 5, 0.2, 0.2)
		child, _, err := sess.ApplyContext(context.Background(), delta)
		if err != nil {
			t.Fatalf("branch %d: %v", i, err)
		}
		children = append(children, child)
	}
	if got := db.Stats(); got != stats {
		t.Fatalf("parent graph changed: %v -> %v", stats, got)
	}
	after, err := ExtractPreparedContext(context.Background(), sess, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertSameExtraction(t, db, before, after, "parent after branching")
	for i, child := range children {
		scratch := &Graph{db: child.Graph().DB().Clone()}
		cold, err := Extract(scratch, Options{K: 6})
		if err != nil {
			t.Fatalf("sibling %d scratch: %v", i, err)
		}
		warm, err := ExtractPreparedContext(context.Background(), child, Options{K: 6})
		if err != nil {
			t.Fatalf("sibling %d: %v", i, err)
		}
		assertSameExtraction(t, scratch.db, cold, warm, fmt.Sprintf("sibling %d", i))
	}
}

// TestDeltaRoundTrip checks the delta text format round-trips through
// String and ParseDelta.
func TestDeltaRoundTrip(t *testing.T) {
	d := NewDelta().
		Link("a", "b c", "label with space").
		Unlink("a", "b c", "label with space").
		Atom("x.v", "42").
		Remove("a")
	text := d.String()
	back, err := ParseDelta(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\ntext:\n%s", err, text)
	}
	if back.String() != text {
		t.Fatalf("round trip changed delta:\nbefore:\n%s\nafter:\n%s", text, back.String())
	}
	if back.Len() != 4 {
		t.Fatalf("len = %d, want 4", back.Len())
	}
}
