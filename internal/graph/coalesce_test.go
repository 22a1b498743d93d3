package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// serialize renders a DB in its canonical text form; bit-identical output is
// the equivalence oracle for the coalescing property tests.
func sval(s string) Value { return Value{Sort: SortString, Text: s} }

func serialize(t *testing.T, db *DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.String()
}

// coalesceBase builds the shared fixture: a small mixed graph with complex
// objects, atomic leaves, and a few parallel labels.
func coalesceBase() *DB {
	db := New()
	db.Link("root", "a", "child")
	db.Link("root", "b", "child")
	db.Link("a", "b", "peer")
	db.Link("b", "a", "peer")
	db.LinkAtom("a", "name", "a-name", "alice")
	db.LinkAtom("b", "name", "b-name", "bob")
	db.Atom("lone", "island")
	db.Freeze()
	return db
}

// applySeq applies deltas one at a time, returning the final DB or the first
// error.
func applySeq(db *DB, ds []*Delta) (*DB, error) {
	cur := db
	for _, d := range ds {
		next, _, err := cur.ApplyDelta(d)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// checkCoalesce is the core property: Coalesce(MergeDeltas(ds)) must succeed
// exactly when sequential application succeeds, and when it does, one
// application of the coalesced delta must land on a bit-identical database.
func checkCoalesce(t *testing.T, base *DB, ds []*Delta) {
	t.Helper()
	merged := MergeDeltas(ds...)
	seqDB, seqErr := applySeq(base, ds)
	co, ok := merged.Coalesce(base)
	if ok != (seqErr == nil) {
		t.Fatalf("Coalesce ok=%v but sequential err=%v\nmerged:\n%s", ok, seqErr, merged.String())
	}
	if !ok {
		// The merged delta must surface an error too, so callers can apply it
		// to learn that the batch fails.
		if _, _, err := base.ApplyDelta(merged); err == nil {
			t.Fatalf("Coalesce bailed but merged delta applied cleanly\nmerged:\n%s", merged.String())
		}
		return
	}
	if co.Len() > merged.Len() {
		t.Fatalf("coalesced delta grew: %d ops from %d", co.Len(), merged.Len())
	}
	coDB, _, err := base.ApplyDelta(co)
	if err != nil {
		t.Fatalf("coalesced delta failed: %v\nmerged:\n%s\ncoalesced:\n%s", err, merged.String(), co.String())
	}
	if got, want := coDB.NumObjects(), seqDB.NumObjects(); got != want {
		t.Fatalf("NumObjects=%d want %d\nmerged:\n%s\ncoalesced:\n%s", got, want, merged.String(), co.String())
	}
	if got, want := coDB.NumLinks(), seqDB.NumLinks(); got != want {
		t.Fatalf("NumLinks=%d want %d\nmerged:\n%s\ncoalesced:\n%s", got, want, merged.String(), co.String())
	}
	if got, want := serialize(t, coDB), serialize(t, seqDB); got != want {
		t.Fatalf("coalesced state diverges\nmerged:\n%s\ncoalesced:\n%s\n--- got ---\n%s\n--- want ---\n%s",
			merged.String(), co.String(), got, want)
	}
}

func TestMergeDeltasConcatenates(t *testing.T) {
	d1 := new(Delta).AddLink("x", "y", "l")
	d2 := new(Delta).RemoveLink("x", "y", "l").AddAtomic("z", sval("1"))
	m := MergeDeltas(d1, nil, d2)
	if m.Len() != 3 {
		t.Fatalf("Len=%d want 3", m.Len())
	}
	if got, want := m.String(), d1.String()+d2.String(); got != want {
		t.Fatalf("merged string %q want %q", got, want)
	}
	if MergeDeltas().Len() != 0 {
		t.Fatal("empty merge should be empty")
	}
}

// coalesceCase is one directed Coalesce scenario over coalesceBase (or, for
// onBase2, over coalesceBase plus a lone3 -only-> lone link).
type coalesceCase struct {
	name string
	ds   []*Delta
	// wantOps, when >= 0, pins the coalesced op count.
	wantOps int
	onBase2 bool
}

// directedCoalesceCases lists the hand-picked cancellation and bail-out
// scenarios; TestCoalesceDirected checks them and FuzzCoalesce seeds from
// them.
func directedCoalesceCases() []coalesceCase {
	v := sval("v")
	return []coalesceCase{
		{
			name:    "add-remove cancels",
			ds:      []*Delta{new(Delta).AddLink("a", "lone", "tmp"), new(Delta).RemoveLink("a", "lone", "tmp")},
			wantOps: 0,
		},
		{
			name:    "remove-readd of base edge cancels",
			ds:      []*Delta{new(Delta).RemoveLink("a", "b", "peer"), new(Delta).AddLink("a", "b", "peer")},
			wantOps: 0,
		},
		{
			name:    "idempotent re-add drops",
			ds:      []*Delta{new(Delta).AddLink("a", "b", "peer")},
			wantOps: 0,
		},
		{
			name:    "idempotent atomic re-declaration drops",
			ds:      []*Delta{new(Delta).AddAtomic("lone", sval("island"))},
			wantOps: 0,
		},
		{
			name: "remove-object subsumes prior ops on fresh object",
			ds: []*Delta{
				new(Delta).AddLink("a", "fresh", "x").AddLink("fresh", "lone", "y"),
				new(Delta).RemoveObject("fresh"),
			},
			// The creating AddLink is pinned (it interns "fresh"), so the
			// RemoveObject must stay; only the second link nets out against
			// the bulk clear.
			wantOps: 2,
		},
		{
			name: "remove-object over base state kept",
			ds: []*Delta{
				new(Delta).AddLink("a", "b", "extra"),
				new(Delta).RemoveObject("b"),
			},
			wantOps: 1,
		},
		{
			name: "no-op remove-object drops",
			ds: []*Delta{
				new(Delta).AddLink("a", "lone2", "x"),
				new(Delta).RemoveLink("a", "lone2", "x"),
				new(Delta).RemoveObject("lone2"),
			},
			// lone2 is created (pinned add) and its only edge is removed
			// before the RemoveObject runs, so the RemoveObject clears
			// nothing and drops; the add/remove pair must stay (the add
			// interns lone2, so it is not cancellable).
			wantOps: 2,
		},
		{
			name: "remove-object between remove and re-add blocks cancellation",
			ds: []*Delta{
				new(Delta).RemoveLink("a", "b", "peer"),
				new(Delta).RemoveObject("a"),
				new(Delta).AddLink("a", "b", "peer"),
			},
			wantOps: -1,
		},
		{
			name: "atomic declaration after removing last out-edge",
			ds: []*Delta{
				new(Delta).RemoveLink("lone3", "lone", "only"),
				new(Delta).AddAtomic("lone3", v),
				new(Delta).AddLink("lone3", "lone", "only"),
			},
			// Sequentially the final AddLink fails: lone3 is atomic.
			wantOps: -1,
			onBase2: true,
		},
	}
}

func TestCoalesceDirected(t *testing.T) {
	base := coalesceBase()
	base2 := base.Clone()
	base2.Link("lone3", "lone", "only")
	base2.Freeze()
	for _, tc := range directedCoalesceCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := base
			if tc.onBase2 {
				b = base2
			}
			checkCoalesce(t, b, tc.ds)
			if tc.wantOps >= 0 {
				co, ok := MergeDeltas(tc.ds...).Coalesce(b)
				if !ok {
					t.Fatalf("expected ok")
				}
				if co.Len() != tc.wantOps {
					t.Fatalf("coalesced to %d ops, want %d:\n%s", co.Len(), tc.wantOps, co.String())
				}
			}
		})
	}
}

// TestCoalesceAtomicGuard pins the subtle hazard: a kept AddAtomic's
// out-degree check must not be invalidated by cancelling an earlier
// RemoveLink against a later re-add.
func TestCoalesceAtomicGuard(t *testing.T) {
	base := New()
	base.Link("x", "y", "l")
	base.Freeze()
	ds := []*Delta{
		new(Delta).RemoveLink("x", "y", "l"),
		new(Delta).AddAtomic("x", sval("v")),
	}
	// Sequentially fine; the coalesced delta must keep the RemoveLink or the
	// AddAtomic would hit x's base out-edge.
	checkCoalesce(t, base, ds)

	// And with a re-add after: sequentially the AddLink fails (x atomic), so
	// Coalesce must bail rather than cancel remove against re-add.
	ds = append(ds, new(Delta).AddLink("x", "y", "l"))
	checkCoalesce(t, base, ds)
}

func TestCoalesceErrors(t *testing.T) {
	base := coalesceBase()
	for _, tc := range []struct {
		name string
		ds   []*Delta
	}{
		{"remove missing link", []*Delta{new(Delta).RemoveLink("a", "b", "nope")}},
		{"remove unknown object", []*Delta{new(Delta).RemoveObject("ghost")}},
		{"link out of atomic", []*Delta{new(Delta).AddLink("a-name", "b", "l")}},
		{"atomic conflict", []*Delta{new(Delta).AddAtomic("lone", sval("other"))}},
		{"atomic on complex", []*Delta{new(Delta).AddAtomic("a", sval("v"))}},
		{"remove after remove-object", []*Delta{
			new(Delta).RemoveObject("lone"),
			new(Delta).AddAtomic("lone", sval("back")),
			new(Delta).RemoveLink("lone", "a", "l"),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCoalesce(t, base, tc.ds) })
	}
}

// The tiny op universe of randomDeltas and FuzzCoalesce: coalesceBase's
// names, labels and values plus fresh ones.
var (
	deltaNames  = []string{"root", "a", "b", "a-name", "lone", "n1", "n2", "n3"}
	deltaLabels = []string{"child", "peer", "name", "l1", "l2"}
	deltaValues = []Value{sval("alice"), sval("island"), sval("v1"), sval("v2")}
)

// randomDeltas generates a random op sequence over a tiny name universe and
// splits it into 1–4 deltas. Ops are intentionally allowed to be invalid so
// the bail-vs-sequential-error property is exercised.
func randomDeltas(rng *rand.Rand) []*Delta {
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	nOps := 1 + rng.Intn(14)
	cuts := rng.Intn(4)
	var ds []*Delta
	d := new(Delta)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			d.AddLink(pick(deltaNames), pick(deltaNames), pick(deltaLabels))
		case 4, 5, 6:
			d.RemoveLink(pick(deltaNames), pick(deltaNames), pick(deltaLabels))
		case 7, 8:
			d.AddAtomic(pick(deltaNames), deltaValues[rng.Intn(len(deltaValues))])
		default:
			d.RemoveObject(pick(deltaNames))
		}
		if cuts > 0 && rng.Intn(nOps) < 2 {
			ds = append(ds, d)
			d = new(Delta)
			cuts--
		}
	}
	ds = append(ds, d)
	return ds
}

func TestCoalesceRandom(t *testing.T) {
	base := coalesceBase()
	okCount, bailCount := 0, 0
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDeltas(rng)
		checkCoalesce(t, base, ds)
		if _, ok := MergeDeltas(ds...).Coalesce(base); ok {
			okCount++
		} else {
			bailCount++
		}
	}
	// Sanity: the generator must exercise both outcomes.
	if okCount == 0 || bailCount == 0 {
		t.Fatalf("degenerate generator: ok=%d bail=%d", okCount, bailCount)
	}
}

// TestCoalesceChainRandom layers random deltas on top of states that were
// themselves produced by coalesced application, catching drift that only
// shows after repeated rounds.
func TestCoalesceChainRandom(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(1_000_000 + seed))
		cur := coalesceBase()
		for round := 0; round < 4; round++ {
			ds := randomDeltas(rng)
			checkCoalesce(t, cur, ds)
			co, ok := MergeDeltas(ds...).Coalesce(cur)
			if !ok {
				continue
			}
			next, _, err := cur.ApplyDelta(co)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			cur = next
		}
	}
}

func TestCoalesceNoDropReturnsSame(t *testing.T) {
	base := coalesceBase()
	d := new(Delta).AddLink("n1", "n2", "l1")
	co, ok := d.Coalesce(base)
	if !ok || co != d {
		t.Fatalf("expected identity return, got %p ok=%v (d=%p)", co, ok, d)
	}
	empty := new(Delta)
	co, ok = empty.Coalesce(base)
	if !ok || co != empty {
		t.Fatal("empty delta must coalesce to itself")
	}
}
