package compile

import (
	"errors"
	"fmt"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
)

// compileDB compiles db with the automatic layout on every CPU.
func compileDB(t testing.TB, db *graph.DB) *Snapshot {
	t.Helper()
	s, err := Compile(db, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildSample() *graph.DB {
	db := graph.New()
	db.Link("gates", "microsoft", "is-manager-of")
	db.LinkAtom("gates", "name", "gates.name", "Gates")
	db.LinkAtom("microsoft", "name", "microsoft.name", "Microsoft")
	db.Link("ballmer", "microsoft", "works-for")
	db.LinkAtom("ballmer", "age", "ballmer.age", "42")
	return db
}

func TestSnapshotMirrorsDB(t *testing.T) {
	db := buildSample()
	s := compileDB(t, db)

	if s.NumObjects() != db.NumObjects() {
		t.Fatalf("NumObjects = %d, want %d", s.NumObjects(), db.NumObjects())
	}
	if s.NumLinks() != db.NumLinks() {
		t.Fatalf("NumLinks = %d, want %d", s.NumLinks(), db.NumLinks())
	}
	wantLabels := db.Labels()
	if fmt.Sprint(s.Labels) != fmt.Sprint(wantLabels) {
		t.Fatalf("Labels = %v, want %v", s.Labels, wantLabels)
	}

	// Every CSR edge must match the DB's edge lists, in order.
	db.Objects(func(o graph.ObjectID) {
		to, lab := s.Out(o)
		edges := db.Out(o)
		if len(to) != len(edges) {
			t.Fatalf("obj %v: %d out edges, want %d", o, len(to), len(edges))
		}
		for i, e := range edges {
			if graph.ObjectID(to[i]) != e.To || s.Labels[lab[i]] != e.Label {
				t.Fatalf("obj %v out edge %d: (%d,%s) want (%v,%s)", o, i, to[i], s.Labels[lab[i]], e.To, e.Label)
			}
		}
		from, lab := s.In(o)
		edges = db.In(o)
		for i, e := range edges {
			if graph.ObjectID(from[i]) != e.From || s.Labels[lab[i]] != e.Label {
				t.Fatalf("obj %v in edge %d mismatch", o, i)
			}
		}
		if s.IsAtomic(o) != db.IsAtomic(o) {
			t.Fatalf("obj %v: IsAtomic mismatch", o)
		}
	})

	// Dense complex positions round-trip.
	for i, o := range s.Complex {
		if s.Pos[o] != int32(i) {
			t.Fatalf("Pos[%v] = %d, want %d", o, s.Pos[o], i)
		}
	}
	for _, o := range db.AtomicObjects() {
		if s.Pos[o] != -1 {
			t.Fatalf("atomic %v has position %d", o, s.Pos[o])
		}
	}
}

func TestSnapshotHistograms(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	s := compileDB(t, db)
	for pi, o := range s.Complex {
		wantOutC := make(map[string]int32)
		wantOutA := make(map[string]int32)
		for _, e := range db.Out(o) {
			if db.IsAtomic(e.To) {
				wantOutA[e.Label]++
			} else {
				wantOutC[e.Label]++
			}
		}
		wantIn := make(map[string]int32)
		for _, e := range db.In(o) {
			wantIn[e.Label]++
		}
		for li, l := range s.Labels {
			if got := s.OutComplex.At(pi, li); got != wantOutC[l] {
				t.Fatalf("OutComplex[%v,%s] = %d, want %d", o, l, got, wantOutC[l])
			}
			if got := s.OutAtomic.At(pi, li); got != wantOutA[l] {
				t.Fatalf("OutAtomic[%v,%s] = %d, want %d", o, l, got, wantOutA[l])
			}
			if got := s.InComplex.At(pi, li); got != wantIn[l] {
				t.Fatalf("InComplex[%v,%s] = %d, want %d", o, l, got, wantIn[l])
			}
			var sortSum int32
			for si := 0; si < NumSorts; si++ {
				sortSum += s.OutAtomicSort.At(pi, li*NumSorts+si)
			}
			if sortSum != wantOutA[l] {
				t.Fatalf("OutAtomicSort[%v,%s] sums to %d, want %d", o, l, sortSum, wantOutA[l])
			}
		}
	}
}

func TestCompileDeterministicAcrossWorkers(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	serial, err := Compile(db, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Compile(db, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, parallel, serial, "parallel vs serial compile")
}

func TestCompileCancelled(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	boom := errors.New("boom")
	s, err := Compile(db, 0, 1, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s != nil {
		t.Fatal("cancelled compile returned a snapshot")
	}
}

func TestEmptyDB(t *testing.T) {
	s := compileDB(t, graph.New())
	if s.NumObjects() != 0 || s.NumComplex() != 0 || s.NumLabels() != 0 || s.NumLinks() != 0 {
		t.Fatal("empty snapshot has nonzero counts")
	}
}
