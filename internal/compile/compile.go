// Package compile turns a graph.DB into an immutable, index-backed
// Snapshot that every extraction stage shares: CSR-style adjacency (flat
// []int32 edge arrays with per-object offsets, partitioned into fixed-range
// object shards), edge labels interned into a dense label universe, atomic
// objects as a bitset, and dense positions for complex objects. A snapshot
// costs O(objects + links + labels): it holds nothing per (object, label).
//
// The paper's three-stage method (minimal perfect typing → greedy
// clustering → recast, §4–§6) runs many passes over the same link/atomic
// instance. Compiling the instance once and handing the same Snapshot to
// every pass removes the per-stage rebuild of label maps and position
// tables, and replaces string comparisons on the hot paths with int32
// label-ID comparisons. Each object's CSR rows are sorted by (label ID,
// neighbour), so a stage reads the edges of one label at an object as one
// run (OutRun, InRun).
//
// A Snapshot is immutable after Compile returns: concurrent readers need no
// synchronization, and a single Snapshot can back any number of concurrent
// extractions (the basis of core.Prepared and the HTTP snapshot cache).
// Label IDs are per-snapshot: they are dense indexes into this snapshot's
// sorted label table, not stable identifiers across graphs.
package compile

import (
	"schemex/internal/bitset"
	"schemex/internal/graph"
	"schemex/internal/par"
)

// NumSorts is the number of atomic value sorts (graph.SortString..SortBool).
const NumSorts = 4

// Snapshot is the compiled, immutable view of a graph.DB.
//
// Layout invariants:
//   - Label IDs are dense indexes into Labels, which is sorted; because
//     graph.DB sorts each object's edge lists by (label string, neighbor),
//     every per-object CSR run is sorted by (label ID, neighbor) too.
//   - The object-ID space is partitioned into fixed ranges of ShardSize()
//     IDs; each Shard holds the CSR block of its range with shard-local
//     offsets (see Shard). Out/In hide the dispatch.
//   - Pos maps an ObjectID to its dense complex position (or -1 for atomic
//     objects); Complex is the inverse, in ObjectID order. Positions follow
//     ID order, so every shard owns one contiguous position range.
//   - Atomic values, and so their sorts, are read from the database
//     (Value); the snapshot keeps no copy that a delta could leave stale.
//
// All exported fields are for the stage packages but must be treated as
// read-only; mutating a Snapshot breaks every extraction sharing it.
//
// The shard layout is purely representational: a snapshot's contents are
// bit-identical at every shard count, which the shard property tests pin.
type Snapshot struct {
	db *graph.DB

	// Labels is the dense label universe, sorted ascending.
	Labels []string
	// Atomic marks atomic objects, as a bitset over ObjectIDs.
	Atomic *bitset.Set
	// Complex lists the complex objects in ObjectID order; Pos is its
	// inverse (Pos[o] == -1 for atomic objects).
	Complex []graph.ObjectID
	Pos     []int32

	labelID map[string]int

	// shards partitions the CSR adjacency by object range; shardShift is
	// the log2 shard size and nLinks the total out-edge count.
	shards     []*Shard
	shardShift uint
	nLinks     int
}

// Compile builds the snapshot of db. workers bounds the worker pool (<= 0
// means one per CPU, 1 runs serially); the result is identical at any worker
// count (workers write disjoint rows). shards sets the layout: 0 sizes shards
// automatically from the graph, 1 compiles the single flat block of the
// pre-sharding layout, and k > 1 partitions the object space into (at most)
// k fixed ranges. The layout is a pure knob — the snapshot's contents are
// bit-identical at any setting. check is a cooperative cancellation
// checkpoint (nil means "never cancel"); on a non-nil check error
// compilation stops, all workers are joined, and the error is returned with
// a nil snapshot.
func Compile(db *graph.DB, shards, workers int, check func() error) (*Snapshot, error) {
	return compileShift(db, shardShiftFor(shards, db.NumObjects()), workers, check)
}

// compileShift compiles db at a fixed shard-size exponent. Apply's
// full-recompile fallback comes through here with the parent's exponent, so
// a session's shard geometry is stable across fallbacks.
func compileShift(db *graph.DB, shift uint, workers int, check func() error) (*Snapshot, error) {
	db.Freeze() // flush lazy edge sorting before (possibly concurrent) reads
	n := db.NumObjects()

	s := &Snapshot{
		db:         db,
		Labels:     db.Labels(),
		Atomic:     bitset.New(n),
		Pos:        make([]int32, n),
		shardShift: shift,
	}
	s.labelID = make(map[string]int, len(s.Labels))
	for i, l := range s.Labels {
		s.labelID[l] = i
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}

	// Dense complex positions and the atomic bitset, recording
	// the position watermark at every shard boundary: positions follow ID
	// order, so shard si's complex objects are exactly positions
	// [posBase[si], posBase[si+1]).
	nSh := numShards(n, shift)
	posBase := make([]int, nSh+1)
	mask := 1<<shift - 1
	for i := 0; i < n; i++ {
		if i&mask == 0 {
			posBase[i>>shift] = len(s.Complex)
		}
		o := graph.ObjectID(i)
		if db.IsAtomic(o) {
			s.Atomic.Set(i)
			s.Pos[i] = -1
		} else {
			s.Pos[i] = int32(len(s.Complex))
			s.Complex = append(s.Complex, o)
		}
	}
	posBase[nSh] = len(s.Complex)

	// Per-shard CSR blocks: offsets are a prefix sum local to each shard,
	// so shards size and allocate their arrays independently in parallel.
	s.shards = make([]*Shard, nSh)
	if err := par.DoItemsErr(workers, nSh, func(si int) error {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		sh := newShard(s, si, posBase[si], posBase[si+1])
		for i := 0; i < sh.N; i++ {
			o := graph.ObjectID(sh.Base + i)
			sh.OutOff[i+1] = sh.OutOff[i] + int32(len(db.Out(o)))
			sh.InOff[i+1] = sh.InOff[i] + int32(len(db.In(o)))
		}
		sh.alloc()
		s.shards[si] = sh
		return nil
	}); err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		s.nLinks += len(sh.OutTo)
	}

	// Fill, parallel over shard subranges: spans are sized by worker count
	// and clipped at shard boundaries, so a single huge shard still fans
	// out over every worker. Each object owns its CSR runs, so spans never
	// race.
	spans := s.fillSpans(workers)
	if err := par.DoItemsErr(workers, len(spans), func(k int) error {
		sp := spans[k]
		return s.fillRange(s.shards[sp.shard], sp.lo, sp.hi, check)
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// span is one shard-local object range [lo, hi) of shard shard.
type span struct{ shard, lo, hi int }

// fillSpans splits the object space into per-shard subranges of roughly
// n/workers objects, so the fill saturates the pool even when one shard
// dominates (shards=1 degenerates to exactly the pre-sharding chunking).
func (s *Snapshot) fillSpans(workers int) []span {
	per := (s.NumObjects() + par.Workers(workers) - 1) / par.Workers(workers)
	if per < 1 {
		per = 1
	}
	var out []span
	for si, sh := range s.shards {
		for lo := 0; lo < sh.N; lo += per {
			hi := lo + per
			if hi > sh.N {
				hi = sh.N
			}
			out = append(out, span{si, lo, hi})
		}
	}
	return out
}

const checkEvery = 1024

// fillRange scans the database rows of sh's local objects [lo, hi) into the
// shard's CSR block.
func (s *Snapshot) fillRange(sh *Shard, lo, hi int, check func() error) error {
	db := s.db
	for i := lo; i < hi; i++ {
		if check != nil && i%checkEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
		o := graph.ObjectID(sh.Base + i)
		at := sh.OutOff[i]
		for _, e := range db.Out(o) {
			sh.OutTo[at] = int32(e.To)
			sh.OutLab[at] = int32(s.labelID[e.Label])
			at++
		}
		at = sh.InOff[i]
		for _, e := range db.In(o) {
			sh.InFrom[at] = int32(e.From)
			sh.InLab[at] = int32(s.labelID[e.Label])
			at++
		}
	}
	return nil
}

// DB returns the database the snapshot was compiled from. The snapshot
// holds positional indexes into it, so the database must not be mutated
// while the snapshot is in use.
func (s *Snapshot) DB() *graph.DB { return s.db }

// NumObjects reports the number of objects (complex plus atomic).
func (s *Snapshot) NumObjects() int { return len(s.Pos) }

// NumComplex reports the number of complex objects.
func (s *Snapshot) NumComplex() int { return len(s.Complex) }

// NumLabels reports the size of the label universe.
func (s *Snapshot) NumLabels() int { return len(s.Labels) }

// NumLinks reports the number of link facts.
func (s *Snapshot) NumLinks() int { return s.nLinks }

// LabelID returns the dense ID of a label, if it occurs in the data.
func (s *Snapshot) LabelID(label string) (int, bool) {
	id, ok := s.labelID[label]
	return id, ok
}

// IsAtomic reports whether object o is atomic.
func (s *Snapshot) IsAtomic(o graph.ObjectID) bool { return s.Atomic.Test(int(o)) }

// Value returns the value of an atomic object.
func (s *Snapshot) Value(o graph.ObjectID) (graph.Value, bool) { return s.db.AtomicValue(o) }

// Out returns the targets and label IDs of o's outgoing edges, sorted by
// (label ID, target). The slices alias the snapshot and must not be
// modified.
func (s *Snapshot) Out(o graph.ObjectID) (to, lab []int32) {
	sh := s.shards[int(o)>>s.shardShift]
	i := int(o) - sh.Base
	a, b := sh.OutOff[i], sh.OutOff[i+1]
	return sh.OutTo[a:b], sh.OutLab[a:b]
}

// In returns the sources and label IDs of o's incoming edges, sorted by
// (label ID, source). The slices alias the snapshot and must not be
// modified.
func (s *Snapshot) In(o graph.ObjectID) (from, lab []int32) {
	sh := s.shards[int(o)>>s.shardShift]
	i := int(o) - sh.Base
	a, b := sh.InOff[i], sh.InOff[i+1]
	return sh.InFrom[a:b], sh.InLab[a:b]
}

// OutRun returns the targets of o's outgoing edges labelled lab, in
// ascending order: one run of the (label ID, target) sorted CSR row, found
// by binary search. The slice aliases the snapshot.
func (s *Snapshot) OutRun(o graph.ObjectID, lab int32) []int32 {
	to, labs := s.Out(o)
	return labelRun(to, labs, lab)
}

// InRun returns the sources of o's incoming edges labelled lab, in
// ascending order; see OutRun.
func (s *Snapshot) InRun(o graph.ObjectID, lab int32) []int32 {
	from, labs := s.In(o)
	return labelRun(from, labs, lab)
}

// labelRun returns the ends of the run of label lab in a CSR row sorted by
// label ID.
func labelRun(ends, labs []int32, lab int32) []int32 {
	lo, hi := 0, len(labs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if labs[m] < lab {
			lo = m + 1
		} else {
			hi = m
		}
	}
	e := lo
	for e < len(labs) && labs[e] == lab {
		e++
	}
	return ends[lo:e]
}
