package compile

import (
	"errors"
	"fmt"
	"slices"
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

// TestLabelRuns checks OutRun and InRun against the database: for every
// object and label, the run is exactly the neighbours of that object's
// edges carrying the label, in ascending order, and empty for a label the
// object does not use.
func TestLabelRuns(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{})
	for _, shards := range []int{1, 4} {
		s, err := Compile(db, shards, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		db.Objects(func(o graph.ObjectID) {
			for li, l := range s.Labels {
				var wantOut, wantIn []int32
				for _, e := range db.Out(o) {
					if e.Label == l {
						wantOut = append(wantOut, int32(e.To))
					}
				}
				for _, e := range db.In(o) {
					if e.Label == l {
						wantIn = append(wantIn, int32(e.From))
					}
				}
				if got := s.OutRun(o, int32(li)); !slices.Equal(got, wantOut) {
					t.Fatalf("shards=%d OutRun(%v, %s) = %v, want %v", shards, o, l, got, wantOut)
				}
				if got := s.InRun(o, int32(li)); !slices.Equal(got, wantIn) {
					t.Fatalf("shards=%d InRun(%v, %s) = %v, want %v", shards, o, l, got, wantIn)
				}
			}
		})
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
