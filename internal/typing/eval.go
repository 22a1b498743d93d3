package typing

import (
	"slices"
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

// classLink is a class-target link with its label resolved to a snapshot
// label ID.
type classLink struct {
	target int
	lab    int32
	dir    Dir
}

// witnesses returns the neighbours of o that can witness l: the targets of
// o's l.lab-edges for an outgoing link, their sources for an incoming one.
func (l classLink) witnesses(snap *compile.Snapshot, o graph.ObjectID) []int32 {
	if l.dir == Out {
		return snap.OutRun(o, l.lab)
	}
	return snap.InRun(o, l.lab)
}

// dependents returns the objects that can lose a witness for l when x leaves
// l's target type: the sources of x's l.lab-edges for an outgoing link,
// their targets for an incoming one.
func (l classLink) dependents(snap *compile.Snapshot, x graph.ObjectID) []int32 {
	if l.dir == Out {
		return snap.InRun(x, l.lab)
	}
	return snap.OutRun(x, l.lab)
}

// gfpRef is the ci-th class link of type t: a removal from the link's target
// type can take away one of its witnesses.
type gfpRef struct {
	t, ci int
	classLink
}

// support holds one type's witness counts: for each member of the type's
// witness bound, at the member's rank in it, one cell per class-target link
// of the type, counting the link's witnesses that are still members of its
// target type.
type support struct {
	rank  *bitset.Rank
	width int
	cells []int32
}

// cell returns the count of the ci-th class link of member o.
func (s *support) cell(o, ci int) *int32 {
	return &s.cells[s.rank.Of(o)*s.width+ci]
}

// atomicWitnessSnap is atomicWitness against the compiled snapshot.
func atomicWitnessSnap(snap *compile.Snapshot, to graph.ObjectID, l TypedLink) bool {
	v, ok := snap.Value(to)
	if !ok || !SortMatches(l.Sort, v.Sort) {
		return false
	}
	return !l.HasValue || v.Text == l.Value
}

// witnessBound is the membership-independent part of a program's links. A
// link's witness key is what an edge must be to witness the link whatever
// the membership: an out-edge to an atomic object (optionally of one sort,
// or with one value), an out-edge to a complex object, or an in-edge, each
// with the link's label. For every distinct key the program uses, keys
// holds the complex objects with at least one matching edge; linkKey[t][li]
// names the key of link li of type t, or is -1 when the label is absent
// from the data and nothing can witness the link.
//
// A type's witness bound M₀(t) is the intersection of its links' key sets:
// the complex objects passing t's per-link witness filter. It contains t's
// greatest fixpoint, and it settles every atomic-target link, whose
// witnesses no membership change can take away.
type witnessBound struct {
	keys    []*bitset.Set
	linkKey [][]int32
}

// newWitnessBound resolves p's links to witness keys and fills every key set
// in one pass over the snapshot's edges, sharded by object range (shard
// ranges are whole bitset words, so no two shards write one word). Sorts and
// values are read from the atomic objects themselves; an edge pays a value
// lookup only when its label carries a sort or value key.
func newWitnessBound(p *Program, snap *compile.Snapshot, workers int, check func() error) (*witnessBound, error) {
	nL := snap.NumLabels()
	byLabel := func(size int) []int32 {
		t := make([]int32, size)
		for i := range t {
			t[i] = -1
		}
		return t
	}
	in, outComplex, outAtomic := byLabel(nL), byLabel(nL), byLabel(nL)
	outSort := byLabel(nL * compile.NumSorts)
	type valueKey struct {
		lab  int32
		text string
	}
	type valueRef struct {
		sort SortConstraint
		key  int32
	}
	values := make(map[valueKey][]valueRef)
	sorted := make([]bool, nL)     // a sort or value key reads this label's values
	valueLabel := make([]bool, nL) // a value key reads this label's values
	b := &witnessBound{linkKey: make([][]int32, len(p.Types))}
	newKey := func() int32 {
		b.keys = append(b.keys, bitset.New(snap.NumObjects()))
		return int32(len(b.keys) - 1)
	}
	for ti, t := range p.Types {
		row := make([]int32, len(t.Links))
		for li, l := range t.Links {
			lid, ok := snap.LabelID(l.Label)
			if !ok {
				row[li] = -1
				continue
			}
			lab := int32(lid)
			var slot *int32
			switch {
			case l.Dir == In:
				slot = &in[lab]
			case l.Target != AtomicTarget:
				slot = &outComplex[lab]
			case l.HasValue:
				vk := valueKey{lab, l.Value}
				refs := values[vk]
				k := slices.IndexFunc(refs, func(r valueRef) bool { return r.sort == l.Sort })
				if k < 0 {
					refs = append(refs, valueRef{l.Sort, newKey()})
					values[vk] = refs
					k = len(refs) - 1
				}
				sorted[lab], valueLabel[lab] = true, true
				row[li] = refs[k].key
				continue
			case l.Sort != AnySort:
				slot = &outSort[int(lab)*compile.NumSorts+int(l.Sort)-1]
				sorted[lab] = true
			default:
				slot = &outAtomic[lab]
			}
			if *slot < 0 {
				*slot = newKey()
			}
			row[li] = *slot
		}
		b.linkKey[ti] = row
	}
	set := func(k int32, o graph.ObjectID) {
		if k >= 0 {
			b.keys[k].Set(int(o))
		}
	}
	err := par.DoItemsErr(workers, snap.NumShards(), func(si int) error {
		sh := snap.Shard(si)
		for i := 0; i < sh.N; i++ {
			if check != nil && i%checkEvery == 0 {
				if err := check(); err != nil {
					return err
				}
			}
			if sh.Pos[i] < 0 {
				continue // atomic objects are never members
			}
			o := graph.ObjectID(sh.Base + i)
			to, labs := snap.Out(o)
			for k, lab := range labs {
				x := graph.ObjectID(to[k])
				if !snap.IsAtomic(x) {
					set(outComplex[lab], o)
					continue
				}
				set(outAtomic[lab], o)
				if !sorted[lab] {
					continue
				}
				v, _ := snap.Value(x)
				if s := int(v.Sort); s < compile.NumSorts {
					set(outSort[int(lab)*compile.NumSorts+s], o)
				}
				if valueLabel[lab] {
					for _, r := range values[valueKey{lab, v.Text}] {
						if SortMatches(r.sort, v.Sort) {
							set(r.key, o)
						}
					}
				}
			}
			_, inLabs := snap.In(o)
			for _, lab := range inLabs {
				set(in[lab], o)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// candidate reports whether complex object o is in M₀(t).
func (b *witnessBound) candidate(t int, o graph.ObjectID) bool {
	for _, k := range b.linkKey[t] {
		if k < 0 || !b.keys[k].Test(int(o)) {
			return false
		}
	}
	return true
}

// EvalGFP computes the greatest fixpoint of p over a compiled snapshot by a
// support-counting descent, one of the "many possible improvements" §4
// alludes to for monadic programs. The descent starts at the witness bound
// M₀ (see witnessBound) rather than at §4's M_all, the way simulation
// algorithms start from the label-compatible relation: most (type, object)
// pairs of a Q_D program fail for want of any edge of the right label and
// direction, and the bound drops them without a fixpoint step.
//
// Only class-target links can lose witnesses afterwards, so only they are
// counted: each member of M₀(t) gets, per class link of t, its number of
// witnesses in M₀ of the link's target, and pairs left with a zero count are
// removed. Removals then propagate along label runs — a removal of (j, x)
// visits, for each link targeting j, only the run of x's edges carrying the
// link's label — giving work proportional to the edges × types touched
// rather than full re-evaluation rounds. Program labels are resolved against
// the snapshot's label table once, up front, and the loops compare int32
// label IDs.
//
// The bound and the counting are sharded across workers (<= 1 runs the exact
// serial code path): shards write disjoint state, the counting only reads
// M₀, and the greatest fixpoint is unique regardless of removal order, so
// the result is identical to serial. check (nil means "never cancel") is
// consulted between phases, per object range of the bound pass, per counted
// type, and every checkEvery propagation-queue pops; on a non-nil check
// error the evaluation stops early, all worker goroutines are joined, and
// the error is returned with a nil extent.
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
	bound, err := newWitnessBound(p, snap, workers, check)
	if err != nil {
		return nil, err
	}

	// M₀(t): the complex objects (for a type with no links), narrowed by the
	// key set of every link.
	all := bitset.New(n)
	for _, o := range snap.Complex {
		all.Set(int(o))
	}
	for ti, keys := range bound.linkKey {
		// Another many-types × many-objects sweep (see the member loop
		// above): keep it cancellable, and check often — under GC pressure a
		// single row operation can stall for milliseconds.
		if check != nil && ti%64 == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		if slices.Contains(keys, -1) {
			continue
		}
		m := member[ti]
		m.Or(all)
		for _, k := range keys {
			m.And(bound.keys[k])
		}
	}

	// refs[j] lists the class links targeting type j, so a removal from j
	// decrements exactly the affected counts; classLinks[t] lists t's own.
	// Links whose label is absent from the data are left out of refs: their
	// type's bound is empty. Each refs list is ordered by (direction, label),
	// so consecutive refs share one label-run lookup.
	refs := make([][]gfpRef, nT)
	classLinks := make([][]classLink, nT)
	for ti, t := range p.Types {
		for _, l := range t.Links {
			if l.Target == AtomicTarget {
				continue // settled by the bound
			}
			lid, ok := snap.LabelID(l.Label)
			cl := classLink{l.Target, int32(lid), l.Dir}
			if ok {
				refs[l.Target] = append(refs[l.Target], gfpRef{ti, len(classLinks[ti]), cl})
			}
			classLinks[ti] = append(classLinks[ti], cl)
		}
	}
	for _, rs := range refs {
		slices.SortStableFunc(rs, func(a, b gfpRef) int {
			if a.dir != b.dir {
				return int(a.dir) - int(b.dir)
			}
			return int(a.lab) - int(b.lab)
		})
	}

	// Count, sharded by type: shard ti reads M₀ and writes only counts[ti]
	// and its own removal list, so shards never race. A member is removed
	// at its first link left without a witness; its other cells are never
	// read. The lists are drained into the queue afterwards; the propagation
	// result does not depend on that order (the GFP is unique).
	counts := make([]support, nT)
	initRemoved := make([][]graph.ObjectID, nT)
	if err := par.DoItemsErr(workers, nT, func(ti int) error {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		links := classLinks[ti]
		m := member[ti]
		if len(links) == 0 {
			return nil
		}
		sup := support{rank: m.Rank(), width: len(links)}
		sup.cells = make([]int32, m.Count()*sup.width)
		var local []graph.ObjectID
		r := 0
		m.ForEach(func(oi int) {
			o := graph.ObjectID(oi)
			row := sup.cells[r*sup.width : (r+1)*sup.width]
			r++
			for ci, l := range links {
				tgt := member[l.target]
				c := int32(0)
				for _, x := range l.witnesses(snap, o) {
					if tgt.Test(int(x)) {
						c++
					}
				}
				if c == 0 {
					local = append(local, o)
					return
				}
				row[ci] = c
			}
		})
		counts[ti] = sup
		initRemoved[ti] = local
		return nil
	}); err != nil {
		return nil, err
	}
	total := 0
	for _, list := range initRemoved {
		total += len(list)
	}
	queue := make([]removal, 0, total)
	for ti, list := range initRemoved {
		for _, o := range list {
			member[ti].Clear(int(o))
			queue = append(queue, removal{ti, o})
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
		var run []int32
		for i, rf := range refs[rm.t] {
			if i == 0 || rf.dir != refs[rm.t][i-1].dir || rf.lab != refs[rm.t][i-1].lab {
				run = rf.dependents(snap, rm.o)
			}
			m := member[rf.t]
			for _, y := range run {
				if o := int(y); m.Test(o) {
					c := counts[rf.t].cell(o, rf.ci)
					if *c--; *c == 0 {
						m.Clear(o)
						queue = append(queue, removal{rf.t, graph.ObjectID(o)})
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
//   - Phase A fans out: frontier chunks walk their removals' label runs in
//     parallel and translate each edge into an intent — "decrement the
//     support of (type t, class link ci) at object o" — bucketed by the
//     shard owning o. Phase A only reads membership, so chunks never race.
//   - Phase B applies: each shard's worker replays, alone, every intent
//     aimed at its shard — membership re-check (an intent whose object an
//     earlier intent this round already removed is dropped, exactly the
//     serial loop's member guard), decrement, and removal at zero. A worker
//     writes only the count cells, membership bits, and next-frontier list
//     of its own shard's objects; shard ranges are whole multiples of 64
//     IDs, so not even a membership bitset word is shared.
//
// The next frontier is the concatenation of the per-shard removal lists,
// and the loop ends when a round removes nothing. Intra-round application
// order differs from the serial queue's, but the GFP is the unique largest
// fixpoint, so the final membership is bit-identical; counts are scratch
// state discarded with the call.
func propagateSharded(snap *compile.Snapshot, member []*bitset.Set, counts []support,
	refs [][]gfpRef, frontier []removal, workers int, check func() error) error {
	type intent struct {
		t, ci int
		o     graph.ObjectID
	}
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
				var run []int32
				for i, rf := range refs[rm.t] {
					if i == 0 || rf.dir != refs[rm.t][i-1].dir || rf.lab != refs[rm.t][i-1].lab {
						run = rf.dependents(snap, rm.o)
					}
					for _, y := range run {
						o := graph.ObjectID(y)
						if member[rf.t].Test(int(o)) {
							si := snap.ShardOf(o)
							out[si] = append(out[si], intent{rf.t, rf.ci, o})
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
					c := counts[it.t].cell(int(it.o), it.ci)
					if *c--; *c == 0 {
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
