package compile

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"schemex/internal/graph"
)

// budgetFor2 returns a budget that fits roughly two of s's shards, the
// tight-residency regime the acceptance criteria pin.
func budgetFor2(s *Snapshot) int64 {
	var max int64
	for si := 0; si < s.NumShards(); si++ {
		if sz := shardSize(s.Shard(si)); sz > max {
			max = sz
		}
	}
	return 2 * max
}

// TestBudgetedCompileMatchesResident: a memory-budgeted compile answers every
// accessor bit-identically to the fully resident snapshot, while actually
// evicting and faulting shards.
func TestBudgetedCompileMatchesResident(t *testing.T) {
	db := chainDB(t, 512)
	resident, err := Compile(db, 8, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := ResidencyStats()
	budgeted, err := Compile(db, 8, 0, budgetFor2(resident), nil)
	if err != nil {
		t.Fatal(err)
	}
	if budgeted.res == nil {
		t.Fatal("budgeted compile did not attach a residency manager")
	}
	if budgeted.MemBudget() == 0 {
		t.Fatal("MemBudget() = 0 on a budgeted snapshot")
	}
	// Two full sweeps: the second one re-faults what the first evicted.
	for pass := 0; pass < 2; pass++ {
		snapEqual(t, budgeted, resident, fmt.Sprintf("pass %d", pass))
	}
	after := ResidencyStats()
	if after.Evictions == before.Evictions {
		t.Fatal("tight budget evicted nothing")
	}
	if after.Faults == before.Faults {
		t.Fatal("tight budget faulted nothing")
	}
}

// TestBudgetedApplyLineage: a delta stream over a budgeted snapshot stays
// bit-identical to scratch compiles, with clean shards shared by ref across
// the lineage and dirty shards re-entering the LRU.
func TestBudgetedApplyLineage(t *testing.T) {
	db := chainDB(t, 256)
	cur, err := Compile(db, 4, 0, 1<<10, nil) // ~1 shard resident
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		var d graph.Delta
		d.AddLink(fmt.Sprintf("n%d", step*13), fmt.Sprintf("n%d", 255-step*17), "next")
		next, info, err := Apply(cur, &d, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Shared {
			t.Fatalf("step %d: expected shared apply", step)
		}
		if next.res != cur.res {
			t.Fatalf("step %d: child left the residency lineage", step)
		}
		scratch, err := Compile(next.DB().Clone(), 4, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		snapEqual(t, next, scratch, fmt.Sprintf("step %d", step))
		cur = next
	}
}

// TestBudgetedApplyFallbackLineage: the full-recompile fallback (new label)
// keeps the child in the parent's residency lineage.
func TestBudgetedApplyFallbackLineage(t *testing.T) {
	cur, err := Compile(chainDB(t, 256), 4, 0, 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	var d graph.Delta
	d.AddLink("n0", "n100", "brand-new-label")
	next, info, err := Apply(cur, &d, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shared {
		t.Fatal("new label should force the fallback")
	}
	if next.res != cur.res {
		t.Fatal("fallback child left the residency lineage")
	}
	scratch, err := Compile(next.DB().Clone(), 4, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, next, scratch, "fallback vs scratch")
}

// TestPinShardsHoldsResidency: with everything pinned, sweeping the snapshot
// evicts nothing (pins overcommit the budget); releasing re-enables
// eviction.
func TestPinShardsHoldsResidency(t *testing.T) {
	s, err := Compile(chainDB(t, 512), 8, 0, 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	release := s.PinShards()
	pinnedAt := ResidencyStats()
	flatten(s) // full sweep while pinned
	if ev := ResidencyStats().Evictions; ev != pinnedAt.Evictions {
		t.Fatalf("evictions while fully pinned: %d", ev-pinnedAt.Evictions)
	}
	for si := 0; si < s.NumShards(); si++ {
		if s.refs[si].ptr.Load() == nil {
			t.Fatalf("shard %d not resident while pinned", si)
		}
	}
	release()
	// Unpinned again: a sweep must shrink residency back under the budget.
	flatten(s)
	if ResidencyStats().Evictions == pinnedAt.Evictions {
		t.Fatal("no evictions after release")
	}
}

// TestResidencyConcurrentReaders: many goroutines sweeping a tightly
// budgeted snapshot race faults against evictions; run under -race in CI.
// Each reader checks its own slice contents, so a torn fault would surface
// as a data mismatch as well as a race report.
func TestResidencyConcurrentReaders(t *testing.T) {
	db := chainDB(t, 512)
	resident, err := Compile(db, 8, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(resident)
	s, err := Compile(db, 8, 0, budgetFor2(resident), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				at := 0
				for i := 0; i < s.NumObjects(); i++ {
					to, _ := s.Out(graph.ObjectID(i))
					for k, v := range to {
						if want.OutTo[at+k] != v {
							errs <- fmt.Sprintf("reader %d: object %d edge %d differs", g, i, k)
							return
						}
					}
					at += len(to)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFaultEvictRace: pins, gets, and unpins race eviction on a one-byte
// budget, so every unpin evicts and fault's optimistic resident check
// constantly observes a shard that is gone by the time it reaches res.mu.
// Regression test for the self-deadlock where that path re-entered fault
// recursively while still holding ref.mu: the old code hung here, the loop
// form must complete. Run under -race in CI.
func TestFaultEvictRace(t *testing.T) {
	s, err := Compile(chainDB(t, 512), 8, 0, 1, nil) // evict on every unpin
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for _, ref := range s.refs {
					if ref == nil {
						continue
					}
					_, unpin := ref.pin()
					ref.get()
					unpin()
					ref.get()
				}
			}
		}()
	}
	wg.Wait()
	for si := range s.refs {
		if got := s.Shard(si); got == nil {
			t.Fatalf("shard %d unreadable after race", si)
		}
	}
}

// TestMemBudgetEnvOverride: the env override applies only when no explicit
// budget is given, mirroring TestShardsEnv.
func TestMemBudgetEnvOverride(t *testing.T) {
	t.Setenv(TestMemBudgetEnv, "2048")
	if got := memBudgetFor(0); got != 2048 {
		t.Fatalf("memBudgetFor(0) = %d, want 2048 from env", got)
	}
	if got := memBudgetFor(1 << 20); got != 1<<20 {
		t.Fatalf("memBudgetFor(1MiB) = %d, explicit budget must win", got)
	}
	s := compileDB(t, chainDB(t, 512))
	if s.res == nil {
		t.Fatal("env override did not attach a residency manager")
	}
}

// spillEntries counts the regular files and the directories named like a
// residency spill directory under root. A finalizer may remove a spill
// directory mid-walk; whatever vanished is not counted.
func spillEntries(t *testing.T, root string) (files, dirs int) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if d.IsDir() {
			if ok, _ := filepath.Match("schemex-shards-*", d.Name()); ok {
				dirs++
			}
		} else {
			files++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, dirs
}

// TestDroppedLineageRemovesSpillDir: once every snapshot of a budgeted
// lineage is unreachable, the garbage collector removes the lineage's spill
// directory. The manager forms a cycle with its LRU of refs, so the
// finalizer that removes the directory must not sit on the manager: Go
// never finalizes an object that can reach itself.
func TestDroppedLineageRemovesSpillDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := chainDB(t, 256)
	lineages := make([]*Snapshot, 5)
	for i := range lineages {
		s, err := Compile(db, 4, 1, 1<<30, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.res == nil {
			t.Fatal("budgeted compile did not attach a residency manager")
		}
		lineages[i] = s
	}
	if _, dirs := spillEntries(t, tmp); dirs != 5 {
		t.Fatalf("%d spill dirs after 5 budgeted compiles, want 5", dirs)
	}
	runtime.KeepAlive(lineages) // drop all five lineages only from here on
	for round := 0; round < 50; round++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let the finalizer goroutine run
		if _, dirs := spillEntries(t, tmp); dirs == 0 {
			return
		}
	}
	_, dirs := spillEntries(t, tmp)
	t.Fatalf("%d of 5 dropped lineages still hold a spill dir after 50 GC rounds", dirs)
}

// TestUnbudgetedLineageWritesNoSpill: a lineage without a memory budget
// (here a LoadSnapshot over adopted shard files, as a recovered durable
// session has) never evicts, so the shards its deltas rebuild stay resident
// and nothing is written to a spill file.
func TestUnbudgetedLineageWritesNoSpill(t *testing.T) {
	// The mem-budget CI leg sets this override; it would budget the lineage.
	t.Setenv(TestMemBudgetEnv, "")
	tmp := t.TempDir()
	spill, shards := filepath.Join(tmp, "spill"), filepath.Join(tmp, "shards")
	for _, dir := range []string{spill, shards} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	db := chainDB(t, 256)
	s, err := Compile(db, 4, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	files := writeShardFiles(t, s, shards)
	t.Setenv("TMPDIR", spill)
	cur, err := LoadSnapshot(db, s.EncodeCore(), files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cur.MemBudget() != 0 {
		t.Fatalf("MemBudget() = %d, want an unbudgeted lineage", cur.MemBudget())
	}
	for step := 0; step < 10; step++ {
		var d graph.Delta
		d.AddLink(fmt.Sprintf("n%d", step*13), fmt.Sprintf("n%d", 255-step*17), "next")
		next, info, err := Apply(cur, &d, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Shared || next.res != cur.res {
			t.Fatalf("step %d: expected a shared apply in the same lineage", step)
		}
		cur = next
	}
	scratch, err := Compile(cur.DB().Clone(), 4, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, cur, scratch, "after 10 deltas")
	if n, dirs := spillEntries(t, spill); n != 0 || dirs != 0 {
		t.Fatalf("unbudgeted lineage wrote %d spill files in %d spill dirs, want none", n, dirs)
	}
}
