package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"schemex/internal/cluster"
	"schemex/internal/dbg"
	"schemex/internal/graph"
)

// assertSameResult fails unless warm and cold are bit-identical extractions:
// same program, mapping, homes, per-object assignment, defect accounting and
// Stage 2 cost.
func assertSameResult(t *testing.T, db *graph.DB, warm, cold *Result, label string) {
	t.Helper()
	if warm.Program.String() != cold.Program.String() {
		t.Fatalf("%s: programs differ:\nwarm:\n%s\ncold:\n%s", label, warm.Program, cold.Program)
	}
	if !reflect.DeepEqual(warm.Mapping, cold.Mapping) {
		t.Fatalf("%s: mappings differ: %v vs %v", label, warm.Mapping, cold.Mapping)
	}
	if !reflect.DeepEqual(warm.Homes, cold.Homes) {
		t.Fatalf("%s: homes differ", label)
	}
	if warm.TotalDistance != cold.TotalDistance {
		t.Fatalf("%s: total distance %v vs %v", label, warm.TotalDistance, cold.TotalDistance)
	}
	if !reflect.DeepEqual(warm.Defect, cold.Defect) || warm.Unclassified != cold.Unclassified {
		t.Fatalf("%s: defect %+v/%d vs %+v/%d",
			label, warm.Defect, warm.Unclassified, cold.Defect, cold.Unclassified)
	}
	for _, o := range db.ComplexObjects() {
		w, c := warm.Assignment.Of(o), cold.Assignment.Of(o)
		if len(w) == 0 && len(c) == 0 {
			continue
		}
		if !reflect.DeepEqual(w, c) {
			t.Fatalf("%s: assignment of %s differs: %v vs %v", label, db.Name(o), w, c)
		}
	}
}

var atomV = graph.Value{Sort: graph.InferSort("v"), Text: "v"}

// addRecord appends a record object with the given attributes to a delta.
func addRecord(d *graph.Delta, name string, attrs ...string) {
	for _, a := range attrs {
		d.AddAtomic(name+"."+a, atomV)
		d.AddLink(name, name+"."+a, a)
	}
}

// TestWarmExtractFastPathAndStats: repeating an extraction on the same
// Prepared — or across a chain of empty deltas — replays the retained result
// without running any stage, and the lineage counters record it.
func TestWarmExtractFastPathAndStats(t *testing.T) {
	prep, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, Parallelism: 1}
	r1, err := ExtractPrepared(context.Background(), prep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Incr.FastPath || r1.Incr.Stage2Warm || r1.Incr.Stage3Warm {
		t.Fatalf("cold extraction reported incremental flags: %+v", r1.Incr)
	}
	r2, err := ExtractPrepared(context.Background(), prep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Incr.FastPath {
		t.Fatalf("repeat extraction did not take the fast path: %+v", r2.Incr)
	}
	assertSameResult(t, prep.DB(), r2, r1, "repeat")

	// Limits and parallelism are not part of the result identity: changing
	// them alone still replays.
	r3, err := ExtractPrepared(context.Background(), prep, Options{K: 2, Parallelism: 0, Limits: Limits{MaxWallTime: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Incr.FastPath {
		t.Fatalf("parallelism/limits change broke the fast path: %+v", r3.Incr)
	}

	// An empty delta touches nothing; the child replays too.
	child, info, err := prep.Apply(context.Background(), &graph.Delta{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Touched) != 0 {
		t.Fatalf("empty delta touched %d objects", len(info.Touched))
	}
	r4, err := ExtractPrepared(context.Background(), child, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Incr.FastPath {
		t.Fatalf("empty-delta child did not take the fast path: %+v", r4.Incr)
	}
	assertSameResult(t, child.DB(), r4, r1, "empty delta")
	if r4.Timing.Total <= 0 || r4.Timing.Stage1 != 0 {
		t.Fatalf("fast-path timing = %+v, want only Total set", r4.Timing)
	}

	// A K change misses the retained result but is served by the same
	// matrix: no fast path, but Stage 2 warm-seeds.
	r5, err := ExtractPrepared(context.Background(), child, Options{K: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r5.Incr.FastPath || !r5.Incr.Stage2Warm || r5.Incr.Stage3Warm {
		t.Fatalf("K change: Incr = %+v, want matrix reuse only", r5.Incr)
	}
	cold5, err := Extract(child.DB().Clone(), Options{K: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, child.DB(), r5, cold5, "K change")

	s := child.Stats()
	if s.FastPath != 3 {
		t.Fatalf("FastPath counter = %d, want 3", s.FastPath)
	}
	if s.Stage2Full != 1 || s.Stage2Warm != 1 {
		t.Fatalf("Stage2 counters = %d warm / %d full, want 1 / 1", s.Stage2Warm, s.Stage2Full)
	}
	if s.Stage3Full != 2 || s.Stage3Warm != 0 {
		t.Fatalf("Stage3 counters = %d warm / %d full, want 0 / 2", s.Stage3Warm, s.Stage3Full)
	}
}

// TestWarmExtractAfterDelta: after a one-record delta the next extraction
// warm-starts Stages 2 and 3 and stays bit-identical to extracting the
// mutated graph from scratch, at serial and parallel settings.
func TestWarmExtractAfterDelta(t *testing.T) {
	prep, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, Parallelism: 1}
	if _, err := ExtractPrepared(context.Background(), prep, opts); err != nil {
		t.Fatal(err)
	}
	// A new emp record joins an existing class: exactly one Stage 1 class
	// changes membership.
	d := &graph.Delta{}
	addRecord(d, "empA", "name", "salary", "dept")

	for _, par := range []int{1, 0} {
		child, info, err := prep.Apply(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !info.PosStable {
			t.Fatal("record delta was expected to keep complex positions stable")
		}
		o := opts
		o.Parallelism = par
		warm, err := ExtractPrepared(context.Background(), child, o)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Incr.Stage2Warm {
			t.Fatalf("par=%d: Stage 2 did not warm-start: %+v", par, warm.Incr)
		}
		if !warm.Incr.Stage3Warm {
			t.Fatalf("par=%d: Stage 3 did not warm-start: %+v", par, warm.Incr)
		}
		if warm.Incr.DirtyTypes != 1 {
			t.Fatalf("par=%d: DirtyTypes = %d, want 1", par, warm.Incr.DirtyTypes)
		}
		if warm.Incr.DirtyObjects <= 0 || warm.Incr.DirtyObjects >= child.Snapshot().NumComplex() {
			t.Fatalf("par=%d: DirtyObjects = %d, want a strict subset of %d",
				par, warm.Incr.DirtyObjects, child.Snapshot().NumComplex())
		}
		cold, err := Extract(child.DB().Clone(), o)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, child.DB(), warm, cold, fmt.Sprintf("par=%d", par))
	}

	// A delta that leaves the Stage 1 program unchanged (emp0's dept moves
	// to a fresh atomic object): an extraction at a K the parent never used
	// adopts the parent's merge run and reads another prefix of it.
	d = &graph.Delta{}
	d.RemoveLink("emp0", "emp0.dept", "dept")
	d.AddAtomic("emp0.dept2", atomV)
	d.AddLink("emp0", "emp0.dept2", "dept")
	child, _, err := prep.Apply(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{K: 3, Parallelism: 1}
	warm, err := ExtractPrepared(context.Background(), child, o)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Incr.Stage2Warm || warm.Incr.DirtyTypes != 0 {
		t.Fatalf("unchanged program at a new K: Incr = %+v, want the run adopted", warm.Incr)
	}
	cold, err := Extract(child.DB().Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, child.DB(), warm, cold, "unchanged program, new K")
}

// TestWarmExtractClassMigration: a delta that moves a record between
// classes dirties two of the four Stage 1 classes. Warm Stage 2 still keeps
// the cells between the two clean classes, and the extraction equals the
// cold one.
func TestWarmExtractClassMigration(t *testing.T) {
	// book0 gains an edition attribute and migrates between classes.
	d := &graph.Delta{}
	d.AddAtomic("book0.edition", atomV)
	d.AddLink("book0", "book0.edition", "edition")

	prep, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, Parallelism: 1}
	if _, err := ExtractPrepared(context.Background(), prep, opts); err != nil {
		t.Fatal(err)
	}
	child, _, err := prep.Apply(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ExtractPrepared(context.Background(), child, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Incr.Stage2Warm || warm.Incr.DirtyTypes != 2 {
		t.Fatalf("Incr = %+v, want Stage2Warm with DirtyTypes 2", warm.Incr)
	}
	cold, err := Extract(child.DB().Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, child.DB(), warm, cold, "class migration")
	if s := child.Stats(); s.Stage2Warm != 1 || s.Stage2Full != 1 {
		t.Fatalf("Stage2 counters = %d warm / %d full, want 1 / 1", s.Stage2Warm, s.Stage2Full)
	}
}

// TestWarmStateOptionKeying pins the memo keys of the retained Stage 2/3
// state: a stage-defining option change must never reuse state captured
// under different options, and non-memoizable runs must neither store nor
// replay results.
func TestWarmStateOptionKeying(t *testing.T) {
	d := &graph.Delta{}
	addRecord(d, "empA", "name", "salary", "dept")

	// Stage 1 options key the matrix: state captured with UseSorts must not
	// seed a run without it.
	prep, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractPrepared(context.Background(), prep, Options{K: 2, Parallelism: 1, UseSorts: true}); err != nil {
		t.Fatal(err)
	}
	child, _, err := prep.Apply(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractPrepared(context.Background(), child, Options{K: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incr.FastPath || res.Incr.Stage2Warm || res.Incr.Stage3Warm {
		t.Fatalf("UseSorts mismatch still reused state: %+v", res.Incr)
	}
	cold, err := Extract(child.DB().Clone(), Options{K: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, child.DB(), res, cold, "UseSorts mismatch")

	// Same key, same options: the reuse the mismatch above suppressed.
	if _, err := ExtractPrepared(context.Background(), child, Options{K: 2, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	grand, _, err := child.Apply(context.Background(), d2(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err = ExtractPrepared(context.Background(), grand, Options{K: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incr.Stage2Warm {
		t.Fatalf("matched options did not warm-start: %+v", res.Incr)
	}

	// MultiRole reshapes the pre-clustering program: such runs are excluded
	// from capture and replay entirely.
	prep2, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr := Options{K: 2, Parallelism: 1, MultiRole: true}
	if _, err := ExtractPrepared(context.Background(), prep2, mr); err != nil {
		t.Fatal(err)
	}
	again, err := ExtractPrepared(context.Background(), prep2, mr)
	if err != nil {
		t.Fatal(err)
	}
	if again.Incr.FastPath || again.Incr.Stage2Warm || again.Incr.Stage3Warm {
		t.Fatalf("MultiRole run reused state: %+v", again.Incr)
	}
	if s := prep2.Stats(); s.FastPath != 0 || s.Stage2Warm != 0 {
		t.Fatalf("MultiRole lineage counters = %+v, want all-cold", s)
	}

	// Clustering options key the retained merge run: a run made under one
	// distance or empty-type policy must not answer another, even over the
	// same program.
	prep3, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractPrepared(context.Background(), prep3, Options{K: 2, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"empty type", Options{K: 2, Parallelism: 1, AllowEmpty: true, EmptyBias: 0.01}},
		{"delta1", Options{K: 3, Parallelism: 1, Delta: cluster.Delta1}},
	} {
		res, err := ExtractPrepared(context.Background(), prep3, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Extract(recordsDB(), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, prep3.DB(), res, cold, c.name)
	}
}

// d2 is a second small record delta, distinct from the empA one.
func d2() *graph.Delta {
	d := &graph.Delta{}
	addRecord(d, "empB", "name", "salary", "dept")
	return d
}

// TestWarmExtractSortChange: a delta that removes atomic values and re-adds
// them under the same names with another sort creates no object and flips
// nothing, yet under UseSorts it moves their owners to another class. An
// extraction from the applied child equals a cold extraction of the child
// graph written out and read back, whether or not the parent had extracted
// (warm or cold Stage 1).
func TestWarmExtractSortChange(t *testing.T) {
	db := graph.New()
	for i := 0; i < 4; i++ {
		m := fmt.Sprintf("m%d", i)
		db.Link("root", m, "member")
		if err := db.SetAtomic(db.Intern(m+".age"), graph.Value{Sort: graph.SortInt, Text: fmt.Sprint(30 + i)}); err != nil {
			t.Fatal(err)
		}
		db.Link(m, m+".age", "age")
	}
	d := &graph.Delta{}
	for i := 1; i < 4; i++ {
		m := fmt.Sprintf("m%d", i)
		d.RemoveObject(m + ".age")
		d.AddAtomic(m+".age", graph.Value{Sort: graph.SortString, Text: fmt.Sprintf("thirty-%d", i)})
		d.AddLink(m, m+".age", "age")
	}
	opts := Options{K: 2, Parallelism: 1, UseSorts: true}
	for _, warmParent := range []bool{true, false} {
		prep, err := Prepare(context.Background(), db.Clone(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if warmParent {
			if _, err := ExtractPrepared(context.Background(), prep, opts); err != nil {
				t.Fatal(err)
			}
		}
		child, info, err := prep.Apply(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Shared || info.NewObjects != 0 {
			t.Fatalf("warmParent=%v: apply info %+v, want a shared apply creating nothing", warmParent, info)
		}
		got, err := ExtractPrepared(context.Background(), child, opts)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := child.DB().Write(&text); err != nil {
			t.Fatal(err)
		}
		reread, err := graph.Read(&text)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Extract(reread, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, child.DB(), got, cold, fmt.Sprintf("warmParent=%v", warmParent))
	}
}

// TestWarmExtractRandomStream drives a random delta stream through a session
// chain, extracting after every step at alternating parallelism, asserting
// each result bit-identical to a from-scratch extraction of the mutated
// graph.
func TestWarmExtractRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	prep, err := Prepare(context.Background(), recordsDB(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2}
	if _, err := ExtractPrepared(context.Background(), prep, opts); err != nil {
		t.Fatal(err)
	}
	// Optional attributes this stream adds and may later remove; the core
	// name/salary and title/isbn links are never touched, so the two record
	// families stay separable at every step.
	type edge struct{ from, to, label string }
	var removable []edge
	db := prep.DB()
	db.Links(func(e graph.Edge) {
		if e.Label == "dept" || e.Label == "edition" {
			removable = append(removable, edge{db.Name(e.From), db.Name(e.To), e.Label})
		}
	})

	cur := prep
	for step := 0; step < 9; step++ {
		d := &graph.Delta{}
		switch op := rng.Intn(3); {
		case op == 2 && len(removable) > 0:
			i := rng.Intn(len(removable))
			e := removable[i]
			removable = append(removable[:i], removable[i+1:]...)
			d.RemoveLink(e.from, e.to, e.label)
		case op == 1:
			// Grow an existing record by an optional attribute.
			name := fmt.Sprintf("emp%d", rng.Intn(6))
			attr := fmt.Sprintf("%s.x%d", name, step)
			d.AddAtomic(attr, atomV)
			d.AddLink(name, attr, "dept")
			removable = append(removable, edge{name, attr, "dept"})
		default:
			name := fmt.Sprintf("book%c", 'A'+rune(step))
			addRecord(d, name, "title", "isbn")
			removable = append(removable,
				edge{name, name + ".isbn", "isbn"})
		}

		child, _, err := cur.Apply(context.Background(), d, 0)
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		o := opts
		o.Parallelism = 1 - step%2 // alternate 1 and 0
		warm, err := ExtractPrepared(context.Background(), child, o)
		if err != nil {
			t.Fatalf("step %d: warm extract: %v", step, err)
		}
		cold, err := Extract(child.DB().Clone(), o)
		if err != nil {
			t.Fatalf("step %d: cold extract: %v", step, err)
		}
		assertSameResult(t, child.DB(), warm, cold, fmt.Sprintf("step %d", step))
		cur = child
	}

	s := cur.Stats()
	if s.Stage2Warm == 0 || s.Stage3Warm == 0 {
		t.Fatalf("stream never warm-started: %+v", s)
	}
	if total := s.Stage2Warm + s.Stage2Full + s.FastPath; total != 10 {
		t.Fatalf("counters cover %d extractions, want 10", total)
	}
}

// TestPreparedConcurrentUse: goroutines sharing one Prepared extract at
// different K (auto-K included) and sweep at once, so they adopt, replace
// and read each other's retained merge run; every answer equals a fresh
// sequential extraction.
func TestPreparedConcurrentUse(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{Seed: 3})
	ks := []int{6, 0, 8, 3, 6, 0}
	want := make(map[int]*Result)
	for _, k := range ks {
		if want[k] == nil {
			res, err := Extract(db, Options{K: k, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want[k] = res
		}
	}
	wantSweep, err := Sweep(context.Background(), db, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Prime the lineage so every goroutine finds a retained run to adopt.
	prep, err := Prepare(context.Background(), db, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractPrepared(context.Background(), prep, Options{K: 4}); err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, len(ks))
	sweeps := make([]*SweepResult, 2)
	errs := make([]error, len(ks)+len(sweeps))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			got[i], errs[i] = ExtractPrepared(context.Background(), prep, Options{K: k, Parallelism: i % 2})
		}(i, k)
	}
	for i := range sweeps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sweeps[i], errs[len(ks)+i] = SweepPrepared(context.Background(), prep, Options{Parallelism: 1})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range ks {
		assertSameResult(t, db, got[i], want[k], fmt.Sprintf("goroutine %d (K=%d)", i, k))
		if got[i].AutoK != want[k].AutoK {
			t.Fatalf("goroutine %d: AutoK %d, want %d", i, got[i].AutoK, want[k].AutoK)
		}
	}
	for i, sw := range sweeps {
		if !reflect.DeepEqual(sw.Points, wantSweep.Points) {
			t.Fatalf("sweep %d differs from the sequential sweep", i)
		}
	}
}
