package typing

import (
	"schemex/internal/bitset"
	"schemex/internal/compile"
	"schemex/internal/graph"
)

// maxAffectedFrac is the fallback threshold of EvalGFPSnapIncr: when the
// delta's affected (type, object) pairs — raised candidates plus
// materialized support rows — exceed this fraction of the full type ×
// complex-object matrix, the sparse bookkeeping has lost its edge over
// re-seeding every pair densely and the evaluator recomputes from scratch.
const maxAffectedFrac = 0.25

// EvalGFPSnapIncr maintains a greatest fixpoint across a delta: given the
// parent database's fixpoint and a description of what changed — the type
// indices whose definitions differ from the parent program's, and the
// objects whose incident edges or atomic value changed — it computes the
// greatest fixpoint of p over snap by re-deriving only the delta's affected
// neighborhood, warm-starting everything else from the parent.
//
// Caller contract (what perfect.Minimal guarantees for Q_D over a
// compile.Apply-derived snapshot):
//   - len(p.Types) >= len(parent.Member), and every type index not in
//     changedTypes and below the parent length has an identical definition in
//     both programs (indexes at or above the parent length are implicitly
//     changed);
//   - snap's object IDs extend the parent database's (IDs are append-only),
//     and every object outside touched has identical incident edges and
//     atomic status in both. A touched atomic covers value changes: the
//     evaluator itself widens the set with the atomic's complex in-neighbors,
//     whose sort- and value-constrained witness counts the change can shift.
//   - changedTypes covers every type whose definition differs.
//
// Soundness. The starting membership is M₀ = parent rows for unchanged
// types, and for each changed or new type the union of its stale parent row
// with its fresh candidate row — the witness bound EvalGFP starts from: the
// complex objects passing the per-link witness filter, where every link of
// the type has at least one edge of the right direction and label at the
// object, with atomic sort/value constraints checked exactly. On top of
// that, candidate raises propagate: starting from the fresh-minus-stale
// members of changed rows, the candidate pairs of new objects, and the
// non-member pairs of touched columns whose added edges could witness a link
// the parent database did not witness at all, any pair adjacent to a raised
// pair through the program's reverse dependencies is raised too when it
// passes the witness filter, until closure. M₀ then contains the new
// fixpoint: a pair outside M₀ and the raises existed in the parent database,
// failed the parent fixpoint for lack of a witness, gained no own-edge
// witness the parent lacked, and is not adjacent to any raised pair — so a
// family of such pairs inside the new fixpoint has every link witnessed in
// the parent database by the parent fixpoint plus the family itself, a
// pre-fixpoint above the parent's greatest fixpoint there — a contradiction.
// The support-counting descent from M₀ therefore converges to exactly the
// fixpoint EvalGFP computes — bit-identical extents.
//
// Support-count rows are kept sparsely and fully lazily. Seed pairs —
// changed-row members, raised pairs, and parent members of touched columns —
// get an early-exit liveness check against M₀ (dead pairs join the removal
// queue); exact counts for any pair are computed only when a removal first
// reaches it. Removals clear their membership bit when popped, not when
// enqueued, so a row counted mid-descent includes exactly the
// queued-but-unpopped removals that will still decrement it — the
// single-decrement invariant holds with no frozen snapshot of the
// membership.
//
// workers bounds the parallelism of the full-recompute fallback (<= 0 means
// one per CPU, 1 serial); the incremental path itself is serial, its work
// proportional to the delta's affected neighborhood. check is the
// cooperative cancellation checkpoint (nil: never cancel).
//
// The second return value reports whether the incremental path was used;
// false means the evaluator fell back to EvalGFP (nil parent, or
// raised-plus-materialized pairs exceeding maxAffectedFrac of the type ×
// object matrix). Either way the returned extent is the unique greatest
// fixpoint. Result rows of types the delta left completely untouched alias
// the parent extent's rows; extents must be treated as immutable.
func EvalGFPSnapIncr(p *Program, snap *compile.Snapshot, parent *Extent, changedTypes []int, touched []graph.ObjectID, workers int, check func() error) (*Extent, bool, error) {
	fallback := func() (*Extent, bool, error) {
		ext, err := EvalGFP(p, snap, workers, check)
		return ext, false, err
	}
	if parent == nil {
		return fallback()
	}
	n := snap.NumObjects()
	nT := len(p.Types)
	nTOld := len(parent.Member)
	nC := snap.NumComplex()
	budget := int(maxAffectedFrac * float64(nT) * float64(nC))
	if budget < 1 {
		budget = 1
	}

	changed := make([]bool, nT)
	for _, t := range changedTypes {
		if t < 0 || t >= nT {
			return fallback()
		}
		changed[t] = true
	}
	for t := nTOld; t < nT; t++ {
		changed[t] = true
	}

	// Pre-resolve program labels once; -1 marks labels absent from the data,
	// which no edge can witness.
	labelOf := make([][]int32, nT)
	for ti, t := range p.Types {
		row := make([]int32, len(t.Links))
		for li, l := range t.Links {
			row[li] = -1
			if lid, ok := snap.LabelID(l.Label); ok {
				row[li] = int32(lid)
			}
		}
		labelOf[ti] = row
	}

	// refs[j] lists the (type, link) positions targeting type j, exactly as
	// in the full evaluator; raise and removal propagation both walk
	// dependencies through it.
	type ref struct {
		t, li int
		lab   int32
		dir   Dir
	}
	refs := make([][]ref, nT)
	for ti, t := range p.Types {
		for li, l := range t.Links {
			if l.Target == AtomicTarget {
				continue
			}
			refs[l.Target] = append(refs[l.Target], ref{ti, li, labelOf[ti][li], l.Dir})
		}
	}

	// bound.candidate is EvalGFP's witness-bound test applied pair by pair:
	// a necessary condition for membership that ignores complex target
	// membership (label and direction presence; atomic constraints are
	// membership-independent and checked exactly).
	bound, err := newWitnessBound(p, snap, 1, check)
	if err != nil {
		return nil, false, err
	}

	// Widen touched with the complex in-neighbors of touched atomics: a
	// value or sort change at an atomic shifts the witness counts of its
	// sources without touching their own edge lists.
	effTouched := touched
	for _, o := range touched {
		if int(o) >= n || snap.Pos[o] >= 0 {
			continue
		}
		from, _ := snap.In(o)
		for k := range from {
			effTouched = append(effTouched, graph.ObjectID(from[k]))
		}
	}

	// Membership rows: unchanged types warm-start from the parent row —
	// aliased when the object universe kept its size, zero-extended
	// otherwise — and copy on first write. Changed and new types get the
	// union of their fresh candidate row and (when one exists) their stale
	// parent row; the stale leftovers are queued as removals below.
	member := make([]*bitset.Set, nT)
	private := make([]bool, nT) // row is owned, not aliasing the parent
	own := func(t int) {
		if !private[t] {
			member[t] = member[t].Clone()
			private[t] = true
		}
	}
	cost := 0 // raised + materialized pairs, checked against budget

	type pr struct {
		t int
		o graph.ObjectID
	}
	key := func(t int, o graph.ObjectID) int64 { return int64(t)*int64(n) + int64(o) }
	rows := make(map[int64][]int32)  // sparse support-count rows
	queuedRm := make(map[int64]bool) // removal enqueued (bits clear on pop)
	var queue []pr                   // pending removals
	var raiseWork []pr               // raised pairs to propagate from
	var needRow []pr                 // pairs whose row phase B materializes
	steps := 0
	for t := 0; t < nT; t++ {
		if check != nil {
			if steps++; steps%64 == 0 {
				if err := check(); err != nil {
					return nil, false, err
				}
			}
		}
		if !changed[t] {
			if parent.Member[t].Len() == n {
				member[t] = parent.Member[t]
			} else {
				member[t] = parent.Member[t].Grown(n)
				private[t] = true
			}
			continue
		}
		row := bitset.New(n)
		private[t] = true
		for _, o := range snap.Complex {
			if bound.candidate(t, o) {
				row.Set(int(o))
				cost++
				needRow = append(needRow, pr{t, o})
				if t >= nTOld || int(o) >= parent.Member[t].Len() || !parent.Member[t].Test(int(o)) {
					raiseWork = append(raiseWork, pr{t, o})
				}
			}
		}
		if t < nTOld {
			// Stale parent members the fresh filter rejected are dead, but
			// they start as members so that rows counted against M₀ see
			// them; popping the queued removal clears and propagates.
			parent.Member[t].ForEach(func(oi int) {
				if oi < n && !row.Test(oi) {
					row.Set(oi)
					k := key(t, graph.ObjectID(oi))
					queuedRm[k] = true
					queue = append(queue, pr{t, graph.ObjectID(oi)})
				}
			})
		}
		member[t] = row
		if cost > budget {
			return fallback()
		}
	}

	// Touched columns: parent members get a recount (their own edges
	// changed); non-members are raised only when the column's own edge
	// changes could have created a witness the parent database lacked — an
	// added edge (new in the child, or targeting a touched atomic whose
	// value may differ) witnessing a link that had no parent witness at
	// all. A pair whose missing witnesses are all complex-membership
	// misses is reached by raise propagation from the pairs that join, so
	// suppressing its seed keeps the closure proportional to the delta
	// rather than the touched column's candidate fan-out. Soundness is the
	// M₀ argument again: a family of non-raised pairs inside the new
	// fixpoint, none with a new own-edge witness and none adjacent to a
	// raised pair, has every link witnessed in the parent database by the
	// parent fixpoint plus the family itself — a pre-fixpoint above the
	// parent's greatest fixpoint there.
	pdb := parent.DB
	touchedAtom := make(map[graph.ObjectID]bool)
	for _, o := range touched {
		if int(o) < n && snap.Pos[o] < 0 {
			touchedAtom[o] = true
		}
	}
	// parentWitness reports whether the parent database already held a
	// witness for link l at object o under the parent fixpoint. For a new
	// object the parent edge lists are empty and it reports false.
	parentWitness := func(l TypedLink, o graph.ObjectID) bool {
		if l.Dir == Out {
			for _, e := range pdb.Out(o) {
				if e.Label != l.Label {
					continue
				}
				if l.Target == AtomicTarget {
					if v, ok := pdb.AtomicValue(e.To); ok && SortMatches(l.Sort, v.Sort) && (!l.HasValue || v.Text == l.Value) {
						return true
					}
				} else if l.Target < len(parent.Member) && int(e.To) < parent.Member[l.Target].Len() && parent.Member[l.Target].Test(int(e.To)) {
					return true
				}
			}
			return false
		}
		for _, e := range pdb.In(o) {
			if e.Label != l.Label {
				continue
			}
			if l.Target == AtomicTarget {
				return true
			}
			if l.Target < len(parent.Member) && int(e.From) < parent.Member[l.Target].Len() && parent.Member[l.Target].Test(int(e.From)) {
				return true
			}
		}
		return false
	}
	type aedge struct {
		lab int32
		tgt graph.ObjectID
	}
	var addedOut, addedIn []aedge
	// raiseNeeded reports whether some link of t gains a possible witness
	// from o's added edges that the parent lacked entirely. A new object was
	// never a parent non-member: raise it wherever it is a candidate, even
	// for a type with no links.
	nOld := pdb.NumObjects()
	raiseNeeded := func(t int, o graph.ObjectID) bool {
		if int(o) >= nOld {
			return true
		}
		links := p.Types[t].Links
		labs := labelOf[t]
		for li, l := range links {
			lab := labs[li]
			if lab < 0 {
				continue
			}
			added := false
			if l.Dir == Out {
				for _, e := range addedOut {
					if e.lab != lab {
						continue
					}
					if l.Target == AtomicTarget {
						if atomicWitnessSnap(snap, e.tgt, l) {
							added = true
							break
						}
					} else if !snap.IsAtomic(e.tgt) {
						added = true
						break
					}
				}
			} else {
				for _, e := range addedIn {
					if e.lab == lab {
						added = true
						break
					}
				}
			}
			if added && !parentWitness(l, o) {
				return true
			}
		}
		return false
	}
	seen := make(map[graph.ObjectID]bool, len(effTouched))
	for _, o := range effTouched {
		if int(o) >= n || snap.Pos[o] < 0 || seen[o] {
			continue // atomic objects are never members
		}
		seen[o] = true
		pKeys := make(map[int64]bool)
		for _, e := range pdb.Out(o) {
			if lid, ok := snap.LabelID(e.Label); ok {
				pKeys[int64(lid)<<32|int64(e.To)] = true
			}
		}
		addedOut = addedOut[:0]
		to, elab := snap.Out(o)
		for k := range to {
			tgt := graph.ObjectID(to[k])
			if touchedAtom[tgt] || !pKeys[int64(elab[k])<<32|int64(tgt)] {
				addedOut = append(addedOut, aedge{elab[k], tgt})
			}
		}
		clear(pKeys)
		for _, e := range pdb.In(o) {
			if lid, ok := snap.LabelID(e.Label); ok {
				pKeys[int64(lid)<<32|int64(e.From)] = true
			}
		}
		addedIn = addedIn[:0]
		from, flab := snap.In(o)
		for k := range from {
			src := graph.ObjectID(from[k])
			if !pKeys[int64(flab[k])<<32|int64(src)] {
				addedIn = append(addedIn, aedge{flab[k], src})
			}
		}
		for t := 0; t < nT; t++ {
			if changed[t] {
				continue // already handled by the fresh row
			}
			if member[t].Test(int(o)) {
				cost++
				needRow = append(needRow, pr{t, o})
			} else if raiseNeeded(t, o) && bound.candidate(t, o) {
				own(t)
				member[t].Set(int(o))
				cost++
				needRow = append(needRow, pr{t, o})
				raiseWork = append(raiseWork, pr{t, o})
			}
		}
		if cost > budget {
			return fallback()
		}
	}

	// Raise closure: a pair adjacent to a raised pair may have gained its
	// missing witness; raise it too when it passes the filter. Propagation
	// runs only through pairs the parent lacked — anything already a parent
	// member adds no new witness.
	for len(raiseWork) > 0 {
		if check != nil {
			if steps++; steps%checkEvery == 0 {
				if err := check(); err != nil {
					return nil, false, err
				}
			}
		}
		rp := raiseWork[len(raiseWork)-1]
		raiseWork = raiseWork[:len(raiseWork)-1]
		x := rp.o
		for _, rf := range refs[rp.t] {
			if rf.lab < 0 {
				continue
			}
			if rf.dir == Out {
				from, lab := snap.In(x)
				for k := range from {
					if lab[k] != rf.lab {
						continue
					}
					o := graph.ObjectID(from[k])
					if member[rf.t].Test(int(o)) || !bound.candidate(rf.t, o) {
						continue
					}
					own(rf.t)
					member[rf.t].Set(int(o))
					cost++
					needRow = append(needRow, pr{rf.t, o})
					raiseWork = append(raiseWork, pr{rf.t, o})
				}
			} else {
				to, lab := snap.Out(x)
				for k := range to {
					if lab[k] != rf.lab {
						continue
					}
					o := graph.ObjectID(to[k])
					if snap.IsAtomic(o) || member[rf.t].Test(int(o)) || !bound.candidate(rf.t, o) {
						continue
					}
					own(rf.t)
					member[rf.t].Set(int(o))
					cost++
					needRow = append(needRow, pr{rf.t, o})
					raiseWork = append(raiseWork, pr{rf.t, o})
				}
			}
		}
		if cost > budget {
			return fallback()
		}
	}

	// Verify the seed pairs against the now-frozen M₀ and queue the dead
	// ones. Verification is an early-exit witness-existence check per link —
	// no support row is stored; a pair's row is counted lazily by the first
	// removal that reaches it, so pairs no removal ever contacts (the vast
	// majority after a small delta) never pay for exact counts.
	alive := func(t int, o graph.ObjectID) bool {
		links := p.Types[t].Links
		labs := labelOf[t]
		for li, l := range links {
			lab := labs[li]
			if lab < 0 {
				return false
			}
			found := false
			if l.Dir == Out {
				to, elab := snap.Out(o)
				for k := range to {
					if elab[k] != lab {
						continue
					}
					tgt := graph.ObjectID(to[k])
					if l.Target == AtomicTarget {
						if atomicWitnessSnap(snap, tgt, l) {
							found = true
							break
						}
					} else if member[l.Target].Test(int(tgt)) {
						found = true
						break
					}
				}
			} else {
				from, elab := snap.In(o)
				for k := range from {
					if elab[k] != lab {
						continue
					}
					if l.Target == AtomicTarget || member[l.Target].Test(int(from[k])) {
						found = true
						break
					}
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	countRow := func(t int, o graph.ObjectID) []int32 {
		links := p.Types[t].Links
		row := make([]int32, len(links))
		for li, l := range links {
			row[li] = countWitnessesSnap(snap, l, o, member)
		}
		return row
	}
	for _, np := range needRow {
		if check != nil {
			if steps++; steps%checkEvery == 0 {
				if err := check(); err != nil {
					return nil, false, err
				}
			}
		}
		if k := key(np.t, np.o); !queuedRm[k] && !alive(np.t, np.o) {
			queuedRm[k] = true
			queue = append(queue, pr{np.t, np.o})
		}
	}

	// Removal propagation, as in the full evaluator but with sparse rows.
	// Bits clear on pop, and a first decrement reaching a pair without a row
	// counts it on the spot — see the invariant in the doc comment.
	pops := 0
	for len(queue) > 0 {
		if check != nil {
			if pops++; pops%checkEvery == 0 {
				if err := check(); err != nil {
					return nil, false, err
				}
			}
		}
		rm := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		x := rm.o
		for _, rf := range refs[rm.t] {
			if rf.lab < 0 {
				continue
			}
			handle := func(o graph.ObjectID) error {
				if !member[rf.t].Test(int(o)) {
					return nil
				}
				k := key(rf.t, o)
				row := rows[k]
				if row == nil {
					cost++
					if cost > budget {
						return errBudget
					}
					row = countRow(rf.t, o)
					rows[k] = row
				}
				row[rf.li]--
				if row[rf.li] == 0 && !queuedRm[k] {
					queuedRm[k] = true
					queue = append(queue, pr{rf.t, o})
				}
				return nil
			}
			if rf.dir == Out {
				from, lab := snap.In(x)
				for k := range from {
					if lab[k] != rf.lab {
						continue
					}
					if err := handle(graph.ObjectID(from[k])); err != nil {
						return fallback()
					}
				}
			} else {
				to, lab := snap.Out(x)
				for k := range to {
					if lab[k] != rf.lab {
						continue
					}
					o := graph.ObjectID(to[k])
					if snap.IsAtomic(o) {
						continue
					}
					if err := handle(o); err != nil {
						return fallback()
					}
				}
			}
		}
		// Clear only after the neighbor scan: a row counted during the pop
		// still includes this pair as a witness, so the decrements just
		// applied subtract it exactly once.
		own(rm.t)
		member[rm.t].Clear(int(rm.o))
	}
	return &Extent{Program: p, DB: snap.DB(), Member: member}, true, nil
}

// errBudget signals that lazy row materialization crossed the affected
// budget mid-descent; the evaluator falls back to the full computation.
var errBudget = &budgetErr{}

type budgetErr struct{}

func (*budgetErr) Error() string { return "typing: incremental budget exceeded" }

// countWitnessesSnap counts the witnesses of typed link l for object o under
// the given membership by scanning o's CSR edges, including atomic-target
// links, whose counts the full evaluator never keeps: a warm start seeds
// rows against an arbitrary membership. An In link with an atomic target
// mirrors the full evaluator's in-edge witness key (every in-edge counts;
// edge sources are complex by the data model).
func countWitnessesSnap(snap *compile.Snapshot, l TypedLink, o graph.ObjectID, member []*bitset.Set) int32 {
	lid, known := snap.LabelID(l.Label)
	if !known {
		return 0
	}
	lid32 := int32(lid)
	var c int32
	if l.Dir == Out {
		to, lab := snap.Out(o)
		for k := range to {
			if lab[k] != lid32 {
				continue
			}
			tgt := graph.ObjectID(to[k])
			if l.Target == AtomicTarget {
				if atomicWitnessSnap(snap, tgt, l) {
					c++
				}
			} else if member[l.Target].Test(int(tgt)) {
				c++
			}
		}
		return c
	}
	from, lab := snap.In(o)
	for k := range from {
		if lab[k] != lid32 {
			continue
		}
		if l.Target == AtomicTarget || member[l.Target].Test(int(from[k])) {
			c++
		}
	}
	return c
}
