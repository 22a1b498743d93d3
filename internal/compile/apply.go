package compile

import (
	"sort"

	"schemex/internal/graph"
	"schemex/internal/par"
)

// ApplyInfo describes how a delta-derived snapshot was built, in the terms
// the incremental extraction layers need to decide whether warm starts are
// sound.
type ApplyInfo struct {
	// Touched lists, in ascending ID order, every object whose incident edge
	// set or atomic value the delta changed, including all objects it
	// created. Only these objects' CSR rows differ from the parent's.
	Touched []graph.ObjectID
	// NewObjects is how many objects the delta created; their IDs are the
	// top NewObjects of the new snapshot's ID space.
	NewObjects int
	// Shared reports that the snapshot was built incrementally with
	// structural sharing. False means Apply fell back to a full Compile
	// (label universe changed, or an existing object flipped between atomic
	// and complex).
	Shared bool
	// PosStable reports that every pre-existing complex object kept its
	// dense complex position (new complex objects are appended at the end).
	// This is what makes the parent's positional Stage 1 state reusable; it
	// is false only when an existing object flipped atomic↔complex.
	PosStable bool
}

// Apply builds the snapshot of snap's database with delta applied, sharing
// structure with snap wherever the delta permits.
//
// The fast path rebuilds only the shards the delta touches: the label table
// and its intern map are aliased outright, and — the shard payoff — every
// shard holding no touched object keeps its parent's CSR block wholesale, so
// a delta confined to one shard rebuilds one shard and leaves the rest
// untouched no matter how large the graph is. Within a rebuilt shard,
// contiguous runs of untouched objects are block-copied in one memmove per
// run and only touched objects are re-scanned edge by edge. The atomic and
// position tables are aliased when the delta creates no objects
// (extend-copied otherwise); a changed atomic value needs no table update,
// since values are read from the database. Object IDs are dense and
// append-only, so pre-existing complex positions are stable and everything
// positional in the parent remains meaningful against the child.
//
// Two delta shapes invalidate parent structure wholesale and fall back to a
// full Compile of the mutated database (Shared=false in the returned info):
// a change to the label universe — a label unseen by the parent, or the
// removal of a label's last occurrence — renumbers the dense label IDs every
// compiled array is expressed in; and an existing object flipping between
// atomic and complex shifts the dense complex positions (PosStable=false).
// The fallback keeps the parent's shard geometry, so a session's layout is
// stable across its whole delta stream.
//
// The receiver snapshot and its database are never mutated; extractions
// holding them remain valid. Either way the result is semantically identical
// to Compile over a scratch-built copy of the mutated database.
//
// workers bounds the worker pool (<= 0 means one per CPU, 1 runs serially)
// and check is a cooperative cancellation checkpoint (nil means "never
// cancel"), as for Compile. Dirty shards rebuild in parallel on the worker
// pool; a single-shard snapshot's incremental path runs serially (it is
// memmove-bound, and deltas are small).
func Apply(snap *Snapshot, delta *graph.Delta, workers int, check func() error) (*Snapshot, *ApplyInfo, error) {
	child, eff, err := snap.db.ApplyDelta(delta)
	if err != nil {
		return nil, nil, err
	}
	info := &ApplyInfo{
		Touched:    eff.Touched,
		NewObjects: child.NumObjects() - eff.OldObjects,
		PosStable:  !eff.Flipped,
	}
	if eff.Flipped || labelUniverseChanged(snap, eff) {
		ns, err := compileShift(child, snap.shardShift, workers, check)
		if err != nil {
			return nil, nil, err
		}
		return ns, info, nil
	}
	ns, err := applyIncremental(snap, child, eff, workers, check)
	if err != nil {
		return nil, nil, err
	}
	info.Shared = true
	return ns, info, nil
}

// labelUniverseChanged reports whether the delta grew or shrank the set of
// distinct edge labels. Growth is a map miss on the parent's intern table;
// shrinkage needs the parent's occurrence count of each net-removed label,
// which one pass over the shards' label arrays provides.
func labelUniverseChanged(snap *Snapshot, eff *graph.DeltaEffect) bool {
	var shrinkCand []int
	for lab, d := range eff.LabelDelta {
		id, known := snap.labelID[lab]
		if !known {
			return true // d > 0 here: a removal of an unknown label cannot apply
		}
		if d < 0 {
			shrinkCand = append(shrinkCand, id)
		}
	}
	if len(shrinkCand) == 0 {
		return false
	}
	counts := make(map[int]int, len(shrinkCand))
	for _, id := range shrinkCand {
		counts[id] = 0
	}
	for _, sh := range snap.shards {
		for _, lab := range sh.OutLab {
			if _, ok := counts[int(lab)]; ok {
				counts[int(lab)]++
			}
		}
	}
	for _, id := range shrinkCand {
		if counts[id]+eff.LabelDelta[snap.Labels[id]] == 0 {
			return true
		}
	}
	return false
}

// applyIncremental compiles child against its parent snapshot. Preconditions
// established by Apply: the label universe is unchanged and no existing
// object flipped atomic↔complex, so parent label IDs, complex positions, and
// every untouched object's CSR rows remain valid verbatim.
//
// The child inherits the parent's shard geometry. A shard holding no
// touched object is aliased from the parent outright (pointer-identical
// when the delta created no objects; the same CSR arrays behind rebound
// table views otherwise), so the work — and the memory traffic — is
// proportional to the dirty shards, not the graph.
func applyIncremental(parent *Snapshot, child *graph.DB, eff *graph.DeltaEffect, workers int, check func() error) (*Snapshot, error) {
	child.Freeze()
	n := child.NumObjects()
	oldN := eff.OldObjects
	shift := parent.shardShift

	s := &Snapshot{
		db:         child,
		Labels:     parent.Labels, // universe unchanged: alias table and intern map
		labelID:    parent.labelID,
		shardShift: shift,
	}
	if n == oldN {
		// No objects created, and none flipped on this path: the atomic
		// bitset and the whole complex-position mapping are the parent's
		// verbatim. Alias them.
		s.Atomic = parent.Atomic
		s.Pos = parent.Pos
		s.Complex = parent.Complex
	} else {
		s.Atomic = parent.Atomic.Grown(n)
		s.Pos = make([]int32, n)
		s.Complex = parent.Complex[:len(parent.Complex):len(parent.Complex)]
		copy(s.Pos, parent.Pos)
		for i := oldN; i < n; i++ {
			o := graph.ObjectID(i)
			if child.IsAtomic(o) {
				s.Atomic.Set(i)
				s.Pos[i] = -1
			} else {
				s.Pos[i] = int32(len(s.Complex))
				s.Complex = append(s.Complex, o)
			}
		}
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}

	// The shard dirty-set: shards holding a touched object, plus — when the
	// delta created objects — the parent's (possibly partial) last shard
	// and every shard past it.
	nSh := numShards(n, shift)
	dirty := make([]bool, nSh)
	for _, o := range eff.Touched {
		dirty[int(o)>>shift] = true
	}
	boundSi := nSh // first shard whose position range needs recounting
	if n > oldN {
		boundSi = oldN >> int(shift)
		for si := boundSi; si < nSh; si++ {
			dirty[si] = true
		}
	}

	// Position ranges chain through the shards: a shard strictly below the
	// growth boundary keeps its parent range verbatim (no flips on this
	// path), the boundary shard and anything past it recount from the
	// freshly extended Pos table.
	posLo := make([]int, nSh)
	posN := make([]int, nSh)
	next := 0
	for si := 0; si < nSh; si++ {
		lo := next
		if si < len(parent.shards) {
			lo = parent.shards[si].PosBase
		}
		pn := 0
		if si < boundSi {
			pn = parent.shards[si].PosN
		} else {
			base := si << shift
			end := base + 1<<shift
			if end > n {
				end = n
			}
			for gi := base; gi < end; gi++ {
				if s.Pos[gi] >= 0 {
					pn++
				}
			}
		}
		posLo[si], posN[si] = lo, pn
		next = lo + pn
	}

	// Build the shard table: untouched shards alias the parent, dirty ones
	// rebuild independently in parallel.
	s.shards = make([]*Shard, nSh)
	if err := par.DoItemsErr(workers, nSh, func(si int) error {
		if !dirty[si] {
			if n == oldN {
				s.shards[si] = parent.shards[si]
			} else {
				s.shards[si] = parent.shards[si].reslice(s)
			}
			return nil
		}
		return s.rebuildShard(si, parent, eff, posLo[si], posN[si], check)
	}); err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		s.nLinks += len(sh.OutTo)
	}
	return s, nil
}

// rebuildShard rebuilds dirty shard si of s against the parent snapshot:
// untouched objects keep their parent degree and have their CSR spans
// block-copied run by run from the parent shard's (shard-local) arrays,
// touched and newly created objects are re-scanned from the child database.
// All indexing is shard-local, so concurrent rebuilds of different shards
// share nothing but the read-only parent.
func (s *Snapshot) rebuildShard(si int, parent *Snapshot, eff *graph.DeltaEffect, posLo, posN int, check func() error) error {
	child := s.db
	sh := newShard(s, si, posLo, posLo+posN)
	// The parent shard feeds the untouched-run block copies below.
	var ps *Shard
	if si < len(parent.shards) {
		ps = parent.shards[si]
	}

	// The shard's touched flags: binary-search the (ascending) touched list
	// down to the shard's ID range, then flag everything past the parent's
	// object count.
	oldN := eff.OldObjects
	touched := make([]bool, sh.N)
	k := sort.Search(len(eff.Touched), func(i int) bool { return int(eff.Touched[i]) >= sh.Base })
	for ; k < len(eff.Touched) && int(eff.Touched[k]) < sh.Base+sh.N; k++ {
		touched[int(eff.Touched[k])-sh.Base] = true
	}
	for gi := max(oldN, sh.Base); gi < sh.Base+sh.N; gi++ {
		touched[gi-sh.Base] = true
	}

	// Offsets: untouched objects keep their parent degree, touched ones use
	// the child's edge lists. Untouched objects always existed in the
	// parent shard, so ps indexing is in range wherever it is reached.
	for i := 0; i < sh.N; i++ {
		if !touched[i] {
			sh.OutOff[i+1] = sh.OutOff[i] + (ps.OutOff[i+1] - ps.OutOff[i])
			sh.InOff[i+1] = sh.InOff[i] + (ps.InOff[i+1] - ps.InOff[i])
		} else {
			o := graph.ObjectID(sh.Base + i)
			sh.OutOff[i+1] = sh.OutOff[i] + int32(len(child.Out(o)))
			sh.InOff[i+1] = sh.InOff[i] + int32(len(child.In(o)))
		}
	}
	sh.alloc()

	// Edge arrays: each maximal run of untouched objects shifts by a
	// constant offset, so it moves as one block copy per array; only touched
	// objects are re-scanned edge by edge.
	copyRun := func(a, b int) {
		if a >= b {
			return
		}
		copy(sh.OutTo[sh.OutOff[a]:sh.OutOff[b]], ps.OutTo[ps.OutOff[a]:ps.OutOff[b]])
		copy(sh.OutLab[sh.OutOff[a]:sh.OutOff[b]], ps.OutLab[ps.OutOff[a]:ps.OutOff[b]])
		copy(sh.InFrom[sh.InOff[a]:sh.InOff[b]], ps.InFrom[ps.InOff[a]:ps.InOff[b]])
		copy(sh.InLab[sh.InOff[a]:sh.InOff[b]], ps.InLab[ps.InOff[a]:ps.InOff[b]])
	}
	run := 0
	for i := 0; i < sh.N; i++ {
		if check != nil && i%checkEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
		if !touched[i] {
			continue
		}
		copyRun(run, i)
		run = i + 1
		o := graph.ObjectID(sh.Base + i)
		at := sh.OutOff[i]
		for _, e := range child.Out(o) {
			sh.OutTo[at] = int32(e.To)
			sh.OutLab[at] = int32(s.labelID[e.Label])
			at++
		}
		at = sh.InOff[i]
		for _, e := range child.In(o) {
			sh.InFrom[at] = int32(e.From)
			sh.InLab[at] = int32(s.labelID[e.Label])
			at++
		}
	}
	copyRun(run, sh.N)
	s.shards[si] = sh
	return nil
}
