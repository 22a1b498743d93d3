package typing

import (
	"sort"

	"schemex/internal/bitset"
	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/par"
)

// Extent is the greatest fixpoint of a typing program for a database: the
// set of objects in each type. Atomic objects belong to the implicit type₀
// and never to a program type.
type Extent struct {
	Program *Program
	DB      *graph.DB
	// Member[i] holds the objects in Program.Types[i], as a bitset over
	// ObjectIDs.
	Member []*bitset.Set
}

// Has reports whether object o is in type t.
func (e *Extent) Has(t int, o graph.ObjectID) bool {
	return e.Member[t].Test(int(o))
}

// Count returns |M(typeₜ)|.
func (e *Extent) Count(t int) int { return e.Member[t].Count() }

// Objects returns the objects in type t, in ID order.
func (e *Extent) Objects(t int) []graph.ObjectID {
	var out []graph.ObjectID
	e.Member[t].ForEach(func(i int) { out = append(out, graph.ObjectID(i)) })
	return out
}

// TypesOf returns the types containing object o, in index order.
func (e *Extent) TypesOf(o graph.ObjectID) []int {
	var out []int
	for t := range e.Member {
		if e.Member[t].Test(int(o)) {
			out = append(out, t)
		}
	}
	return out
}

// Equal reports whether two extents assign the same membership (they must be
// over the same program length and database size).
func (e *Extent) Equal(f *Extent) bool {
	if len(e.Member) != len(f.Member) {
		return false
	}
	for i := range e.Member {
		if !e.Member[i].Equal(f.Member[i]) {
			return false
		}
	}
	return true
}

// satisfies reports whether object o currently satisfies every typed link of
// type t under the membership in member.
func satisfies(db *graph.DB, t *Type, o graph.ObjectID, member []*bitset.Set) bool {
	for _, l := range t.Links {
		if !witnessed(db, l, o, member) {
			return false
		}
	}
	return true
}

// SortMatches reports whether an atomic value of sort s satisfies the
// constraint sc.
func SortMatches(sc SortConstraint, s graph.Sort) bool {
	return sc == AnySort || sc == SortConstraint(s)+1
}

// atomicWitness reports whether the atomic object to witnesses an
// AtomicTarget link, honoring its sort and value constraints.
func atomicWitness(db *graph.DB, to graph.ObjectID, l TypedLink) bool {
	v, ok := db.AtomicValue(to)
	if !ok || !SortMatches(l.Sort, v.Sort) {
		return false
	}
	return !l.HasValue || v.Text == l.Value
}

// witnessed reports whether typed link l of object o has a witness under the
// given membership.
func witnessed(db *graph.DB, l TypedLink, o graph.ObjectID, member []*bitset.Set) bool {
	if l.Dir == Out {
		for _, e := range db.Out(o) {
			if e.Label != l.Label {
				continue
			}
			if l.Target == AtomicTarget {
				if atomicWitness(db, e.To, l) {
					return true
				}
			} else if member[l.Target].Test(int(e.To)) {
				return true
			}
		}
		return false
	}
	for _, e := range db.In(o) {
		if e.Label == l.Label && member[l.Target].Test(int(e.From)) {
			return true
		}
	}
	return false
}

// EvalGFPNaive computes the greatest fixpoint by the straightforward method
// of §4: start with every complex object in every type (M_all) and apply the
// program until no change occurs. It is the reference implementation; EvalGFP
// computes the same result faster over a compiled snapshot.
func EvalGFPNaive(p *Program, db *graph.DB) *Extent {
	n := db.NumObjects()
	member := make([]*bitset.Set, len(p.Types))
	for i := range member {
		member[i] = bitset.New(n)
	}
	for _, o := range db.ComplexObjects() {
		for i := range member {
			member[i].Set(int(o))
		}
	}
	for {
		changed := false
		next := make([]*bitset.Set, len(member))
		for i, t := range p.Types {
			next[i] = bitset.New(n)
			member[i].ForEach(func(oi int) {
				if satisfies(db, t, graph.ObjectID(oi), member) {
					next[i].Set(oi)
				} else {
					changed = true
				}
			})
		}
		member = next
		if !changed {
			break
		}
	}
	return &Extent{Program: p, DB: db, Member: member}
}

// checkEvery is the checkpoint stride of the fixpoint evaluators: the
// cancellation check runs once per this many loop iterations, keeping the
// overhead unmeasurable while bounding the latency of a cancel to a few
// microseconds of extra work. Checks never alter any computed value — they
// only abort the whole evaluation — so determinism is unaffected.
const checkEvery = 1024

// removal is one (type, object) membership retraction awaiting propagation.
type removal struct {
	t int
	o graph.ObjectID
}

// gfpRef is one (type, link) position whose target type a removal can
// affect, with the link's label pre-resolved to a snapshot label ID.
type gfpRef struct {
	t, li int
	lab   int32
	dir   Dir
}

// atomicWitnessSnap is atomicWitness against the compiled snapshot.
func atomicWitnessSnap(snap *compile.Snapshot, to graph.ObjectID, l TypedLink) bool {
	v, ok := snap.Value(to)
	if !ok || !SortMatches(l.Sort, v.Sort) {
		return false
	}
	return !l.HasValue || v.Text == l.Value
}

// EvalGFP computes the greatest fixpoint of p over a compiled snapshot with
// support counting: each (object, type, link) triple tracks its number of
// witnesses, and removals propagate along edges, giving work proportional to
// edges × types touched rather than full re-evaluation rounds — one of the
// "many possible improvements" §4 alludes to for monadic programs. The
// snapshot supplies the label universe, the dense complex positions, and the
// degree histograms that seed the support counts, so the evaluator performs
// no per-call rebuild of any of them, and the propagation loop compares int32
// label IDs instead of strings. Program labels are resolved against the
// snapshot's label table once, up front.
//
// The support seeding is sharded by type across workers (<= 1 runs the exact
// serial code path). Shards write disjoint state and the greatest fixpoint
// is unique regardless of removal order, so the result is identical to
// serial. check (nil means "never cancel") is consulted between phases, per
// seeding shard, and every checkEvery propagation-queue pops; on a non-nil
// check error the evaluation stops early, all worker goroutines are joined,
// and the error is returned with a nil extent.
func EvalGFP(p *Program, snap *compile.Snapshot, workers int, check func() error) (*Extent, error) {
	n := snap.NumObjects()
	nT := len(p.Types)
	member := make([]*bitset.Set, nT)
	for i := range member {
		// With many types × many objects this allocation sweep alone can
		// run for seconds; keep it cancellable.
		if check != nil && i%checkEvery == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		member[i] = bitset.New(n)
	}

	complexObjs := snap.Complex
	nC := len(complexObjs)
	pos := snap.Pos
	const nSorts = compile.NumSorts

	// counts[t] is indexed by linkIdx*nC + position(obj).
	counts := make([][]int32, nT)
	var queue []removal
	remove := func(t int, o graph.ObjectID) {
		if member[t].Test(int(o)) {
			member[t].Clear(int(o))
			queue = append(queue, removal{t, o})
		}
	}

	for ti, t := range p.Types {
		// Another many-types × many-objects allocation sweep (see the
		// member loop above): keep it cancellable, and check often — under
		// GC pressure a single table allocation can stall for milliseconds.
		if check != nil && ti%64 == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		counts[ti] = make([]int32, len(t.Links)*nC)
	}
	// Initially every complex object is in every type: build the membership
	// prototype once and copy it per type (word-wise, far cheaper than nT
	// scattered Set calls per object), checking between copies.
	proto := bitset.New(n)
	for _, o := range complexObjs {
		proto.Set(int(o))
	}
	for ti := range p.Types {
		if check != nil && ti%64 == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		member[ti].Or(proto)
	}
	// Seed the support counts sharded by type: shard ti touches only
	// member[ti], counts[ti], and its own deferred removal list, so shards
	// never race. The lists are drained into the queue afterwards; the
	// propagation result does not depend on that order (the GFP is unique).
	// Initially every complex object is in every type, so the initial
	// witness count of a typed link depends only on (direction, label,
	// atomic-vs-complex) — exactly the histograms the snapshot carries.
	initRemoved := make([][]graph.ObjectID, nT)
	if err := par.DoItemsErr(workers, nT, func(ti int) error {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		t := p.Types[ti]
		var local []graph.ObjectID
		rm := func(o graph.ObjectID) {
			if member[ti].Test(int(o)) {
				member[ti].Clear(int(o))
				local = append(local, o)
			}
		}
		for li, l := range t.Links {
			row := counts[ti][li*nC : (li+1)*nC]
			lid, known := snap.LabelID(l.Label)
			if !known {
				// Label absent from the data: nothing can witness it.
				for _, o := range complexObjs {
					rm(o)
				}
				continue
			}
			if l.Dir == Out && l.Target == AtomicTarget && l.HasValue {
				// Value-constrained links are rare; count by scanning each
				// object's edges directly.
				lid32 := int32(lid)
				for i, o := range complexObjs {
					var c int32
					to, lab := snap.Out(o)
					for k := range to {
						if lab[k] == lid32 && snap.IsAtomic(graph.ObjectID(to[k])) &&
							atomicWitnessSnap(snap, graph.ObjectID(to[k]), l) {
							c++
						}
					}
					row[i] = c
					if c == 0 {
						rm(o)
					}
				}
				continue
			}
			if l.Dir == Out && l.Target == AtomicTarget && l.Sort != AnySort {
				si := int(l.Sort) - 1
				col := lid*nSorts + si
				for i, o := range complexObjs {
					c := snap.OutAtomicSort.At(i, col)
					row[i] = c
					if c == 0 {
						rm(o)
					}
				}
				continue
			}
			var hist *compile.Hist
			switch {
			case l.Dir == Out && l.Target == AtomicTarget:
				hist = &snap.OutAtomic
			case l.Dir == Out:
				hist = &snap.OutComplex
			default:
				hist = &snap.InComplex
			}
			for i, o := range complexObjs {
				c := hist.At(i, lid)
				row[i] = c
				if c == 0 {
					rm(o)
				}
			}
		}
		initRemoved[ti] = local
		return nil
	}); err != nil {
		return nil, err
	}
	// For Q_D the initial removals number O(n²): size the queue once.
	total := 0
	for _, list := range initRemoved {
		total += len(list)
	}
	queue = make([]removal, 0, total)
	for ti, list := range initRemoved {
		for _, o := range list {
			queue = append(queue, removal{ti, o})
		}
	}

	// refs[j] lists the (type, link) positions whose target is type j, split
	// by direction, so a removal from type j can decrement exactly the
	// affected counts. Labels are pre-resolved to snapshot IDs (-1 for
	// labels absent from the data, which no edge can ever match).
	refs := make([][]gfpRef, nT)
	for ti, t := range p.Types {
		for li, l := range t.Links {
			if l.Target == AtomicTarget {
				continue // atomic membership never changes
			}
			lab := int32(-1)
			if lid, ok := snap.LabelID(l.Label); ok {
				lab = int32(lid)
			}
			refs[l.Target] = append(refs[l.Target], gfpRef{ti, li, lab, l.Dir})
		}
	}

	// Removal propagation. Multi-shard snapshots with a real worker pool
	// propagate by a shard-parallel frontier exchange; otherwise the classic
	// serial LIFO queue below drains the removals. The two orders differ,
	// but the greatest fixpoint is the unique largest fixpoint — removals
	// only ever confirm each other, never compete — so both reach the same
	// membership bit for bit (the shard property tests pin this).
	if par.Workers(workers) > 1 && snap.NumShards() > 1 {
		if err := propagateSharded(snap, member, counts, refs, queue, workers, check); err != nil {
			return nil, err
		}
		return &Extent{Program: p, DB: snap.DB(), Member: member}, nil
	}
	pops := 0
	for len(queue) > 0 {
		if check != nil {
			if pops++; pops%checkEvery == 0 {
				if err := check(); err != nil {
					return nil, err
				}
			}
		}
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		x := rm.o
		for _, rf := range refs[rm.t] {
			if rf.dir == Out {
				// Some object o with an ℓ-edge to x may lose a witness for
				// →ℓ[rm.t].
				from, lab := snap.In(x)
				for k := range from {
					if lab[k] != rf.lab {
						continue
					}
					o := graph.ObjectID(from[k])
					if !member[rf.t].Test(int(o)) {
						continue
					}
					c := &counts[rf.t][rf.li*nC+int(pos[o])]
					*c--
					if *c == 0 {
						remove(rf.t, o)
					}
				}
			} else {
				// Some object o with an ℓ-edge from x may lose a witness for
				// ←ℓ[rm.t].
				to, lab := snap.Out(x)
				for k := range to {
					if lab[k] != rf.lab {
						continue
					}
					o := graph.ObjectID(to[k])
					if snap.IsAtomic(o) || !member[rf.t].Test(int(o)) {
						continue
					}
					c := &counts[rf.t][rf.li*nC+int(pos[o])]
					*c--
					if *c == 0 {
						remove(rf.t, o)
					}
				}
			}
		}
	}
	return &Extent{Program: p, DB: snap.DB(), Member: member}, nil
}

// propagateSharded drains the removal frontier by shard-parallel rounds.
// Each round has two phases with a barrier between them:
//
//   - Phase A fans out: frontier chunks walk their removals' snapshot edges
//     in parallel and translate each into an intent — "decrement the
//     support of (type t, link li) at object o" — bucketed by the shard
//     owning o. Phase A only reads membership, so chunks never race.
//   - Phase B applies: each shard's worker replays, alone, every intent
//     aimed at its shard — membership re-check (an intent whose object an
//     earlier intent this round already removed is dropped, exactly the
//     serial loop's member guard), decrement, and removal at zero. A worker
//     writes only the counts entries, membership bits, and next-frontier
//     list of its own shard's objects; shard ranges are whole multiples of
//     64 IDs, so not even a membership bitset word is shared.
//
// The next frontier is the concatenation of the per-shard removal lists,
// and the loop ends when a round removes nothing. Intra-round application
// order differs from the serial queue's, but the GFP is the unique largest
// fixpoint, so the final membership is bit-identical; counts are scratch
// state discarded with the call.
func propagateSharded(snap *compile.Snapshot, member []*bitset.Set, counts [][]int32,
	refs [][]gfpRef, frontier []removal, workers int, check func() error) error {
	type intent struct {
		t, li int
		o     graph.ObjectID
	}
	nC := snap.NumComplex()
	pos := snap.Pos
	nSh := snap.NumShards()
	W := par.Workers(workers)
	for len(frontier) > 0 {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		nCh := W
		if nCh > len(frontier) {
			nCh = len(frontier)
		}
		per := (len(frontier) + nCh - 1) / nCh
		buckets := make([][][]intent, nCh)
		if err := par.DoItemsErr(workers, nCh, func(ci int) error {
			if check != nil {
				if err := check(); err != nil {
					return err
				}
			}
			lo, hi := ci*per, (ci+1)*per
			if lo > len(frontier) {
				lo = len(frontier)
			}
			if hi > len(frontier) {
				hi = len(frontier)
			}
			out := make([][]intent, nSh)
			for _, rm := range frontier[lo:hi] {
				x := rm.o
				for _, rf := range refs[rm.t] {
					if rf.dir == Out {
						from, lab := snap.In(x)
						for k := range from {
							if lab[k] != rf.lab {
								continue
							}
							o := graph.ObjectID(from[k])
							if !member[rf.t].Test(int(o)) {
								continue
							}
							si := snap.ShardOf(o)
							out[si] = append(out[si], intent{rf.t, rf.li, o})
						}
					} else {
						to, lab := snap.Out(x)
						for k := range to {
							if lab[k] != rf.lab {
								continue
							}
							o := graph.ObjectID(to[k])
							if snap.IsAtomic(o) || !member[rf.t].Test(int(o)) {
								continue
							}
							si := snap.ShardOf(o)
							out[si] = append(out[si], intent{rf.t, rf.li, o})
						}
					}
				}
			}
			buckets[ci] = out
			return nil
		}); err != nil {
			return err
		}
		next := make([][]removal, nSh)
		if err := par.DoItemsErr(workers, nSh, func(si int) error {
			if check != nil {
				if err := check(); err != nil {
					return err
				}
			}
			var local []removal
			for ci := range buckets {
				for _, it := range buckets[ci][si] {
					if !member[it.t].Test(int(it.o)) {
						continue
					}
					c := &counts[it.t][it.li*nC+int(pos[it.o])]
					*c--
					if *c == 0 {
						member[it.t].Clear(int(it.o))
						local = append(local, removal{it.t, it.o})
					}
				}
			}
			next[si] = local
			return nil
		}); err != nil {
			return err
		}
		frontier = frontier[:0]
		for _, l := range next {
			frontier = append(frontier, l...)
		}
	}
	return nil
}

// IsFixpoint reports whether the extent is a fixpoint of its program: every
// member satisfies its type and no non-member complex object is forced in.
// (The GFP is the unique largest fixpoint; this is used by tests.)
func (e *Extent) IsFixpoint() bool {
	for ti, t := range e.Program.Types {
		for _, o := range e.DB.ComplexObjects() {
			in := e.Member[ti].Test(int(o))
			if in != satisfies(e.DB, t, o, e.Member) {
				return false
			}
		}
	}
	return true
}

// HomeCandidates returns, for each complex object, the types whose
// definition it satisfies exactly — i.e. the object's local picture equals
// the type definition when link targets are resolved against this extent.
// (Used by recasting diagnostics.)
func (e *Extent) HomeCandidates(o graph.ObjectID) []int {
	local := LocalLinks(e.DB, o, func(x graph.ObjectID) []int { return e.TypesOf(x) }, PictureOpts{})
	var out []int
	for ti, t := range e.Program.Types {
		if !e.Member[ti].Test(int(o)) {
			continue
		}
		if linksEqual(local, t.Links) {
			out = append(out, ti)
		}
	}
	return out
}

// PictureOpts configure how local pictures and Q_D rules describe atomic
// attributes (the Remark 2.1 and value-predicate extensions).
type PictureOpts struct {
	// UseSorts annotates atomic targets with the value's sort.
	UseSorts bool
	// ValueLabels lists labels whose atomic values become part of the
	// picture, e.g. {"sex": true} turns an edge sex -> "Male" into
	// ->sex[0="Male"].
	ValueLabels map[string]bool
}

// LocalLinks computes the local picture of object o in db as a canonical set
// of typed links, given a classesOf function mapping each neighbour to the
// types it belongs to. An edge to a neighbour with several types produces
// one typed link per type. An edge to an atomic object contributes the plain
// ->ℓ[0] form plus the sort-constrained and value-constrained forms opts
// enables, so definitions at any precision can be matched by subset tests.
// It reads the database rather than a snapshot because it also types the
// new objects of §6, which no compiled snapshot holds.
func LocalLinks(db *graph.DB, o graph.ObjectID, classesOf func(graph.ObjectID) []int, opts PictureOpts) []TypedLink {
	var links []TypedLink
	for _, e := range db.Out(o) {
		if db.IsAtomic(e.To) {
			links = append(links, TypedLink{Dir: Out, Label: e.Label, Target: AtomicTarget})
			v, ok := db.AtomicValue(e.To)
			if !ok {
				continue
			}
			if opts.UseSorts {
				links = append(links, TypedLink{
					Dir: Out, Label: e.Label, Target: AtomicTarget,
					Sort: SortConstraint(v.Sort) + 1,
				})
			}
			if opts.ValueLabels[e.Label] {
				l := TypedLink{
					Dir: Out, Label: e.Label, Target: AtomicTarget,
					Value: v.Text, HasValue: true,
				}
				if opts.UseSorts {
					l.Sort = SortConstraint(v.Sort) + 1
				}
				links = append(links, l)
			}
			continue
		}
		for _, c := range classesOf(e.To) {
			links = append(links, TypedLink{Dir: Out, Label: e.Label, Target: c})
		}
	}
	for _, e := range db.In(o) {
		for _, c := range classesOf(e.From) {
			links = append(links, TypedLink{Dir: In, Label: e.Label, Target: c})
		}
	}
	tmp := Type{Links: links}
	tmp.Canonicalize()
	return tmp.Links
}

// LocalLinksSnap is LocalLinks over a compiled snapshot: edges are walked in
// CSR form and label strings come from the snapshot's interned table, so no
// per-edge map lookups or string allocations occur.
func LocalLinksSnap(snap *compile.Snapshot, o graph.ObjectID, classesOf func(graph.ObjectID) []int, opts PictureOpts) []TypedLink {
	var links []TypedLink
	to, lab := snap.Out(o)
	for k := range to {
		t := graph.ObjectID(to[k])
		label := snap.Labels[lab[k]]
		if snap.IsAtomic(t) {
			links = append(links, TypedLink{Dir: Out, Label: label, Target: AtomicTarget})
			v, ok := snap.Value(t)
			if !ok {
				continue
			}
			if opts.UseSorts {
				links = append(links, TypedLink{
					Dir: Out, Label: label, Target: AtomicTarget,
					Sort: SortConstraint(v.Sort) + 1,
				})
			}
			if opts.ValueLabels[label] {
				l := TypedLink{
					Dir: Out, Label: label, Target: AtomicTarget,
					Value: v.Text, HasValue: true,
				}
				if opts.UseSorts {
					l.Sort = SortConstraint(v.Sort) + 1
				}
				links = append(links, l)
			}
			continue
		}
		for _, c := range classesOf(t) {
			links = append(links, TypedLink{Dir: Out, Label: label, Target: c})
		}
	}
	from, lab := snap.In(o)
	for k := range from {
		label := snap.Labels[lab[k]]
		for _, c := range classesOf(graph.ObjectID(from[k])) {
			links = append(links, TypedLink{Dir: In, Label: label, Target: c})
		}
	}
	tmp := Type{Links: links}
	tmp.Canonicalize()
	return tmp.Links
}

func linksEqual(a, b []TypedLink) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LinkSet is a set of typed links keyed for map use; it underlies the
// clustering hypercube.
type LinkSet map[TypedLink]bool

// NewLinkSet builds a LinkSet from a slice.
func NewLinkSet(links []TypedLink) LinkSet {
	s := make(LinkSet, len(links))
	for _, l := range links {
		s[l] = true
	}
	return s
}

// Slice returns the canonical sorted slice form.
func (s LinkSet) Slice() []TypedLink {
	out := make([]TypedLink, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
