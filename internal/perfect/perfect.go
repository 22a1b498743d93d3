// Package perfect implements Stage 1 of the paper's method (§4): the
// minimal perfect typing. One candidate type is created per complex object
// from its local picture (program Q_D), the greatest fixpoint of Q_D groups
// objects whose types have equal extents, and the quotient program P_D is
// the coarsest typing with zero defect. A post-pass (§4.2) decomposes
// conjunction types into covering simpler types, giving objects multiple
// roles.
package perfect

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"schemex/internal/bitset"
	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/par"
	"schemex/internal/typing"
)

// Result is the output of Stage 1.
type Result struct {
	// Program is the minimal perfect typing program P_D. Type weights are
	// the home-class sizes.
	Program *typing.Program
	// Home maps every complex object to the index of its home type in
	// Program.
	Home map[graph.ObjectID]int
	// Classes lists, for each type, the objects whose home it is (the
	// equivalence classes of ≗), in ID order.
	Classes [][]graph.ObjectID
	// Extent is the greatest fixpoint of Program on the database. It may
	// assign objects to types beyond their home type: the rules contain no
	// negation, so an object with more typed links than a type requires is
	// also in that type (§4.2). On the GFP route its rows alias QDExtent's
	// (see Minimal); extents are immutable.
	Extent *typing.Extent

	// QD retains the per-object program Q_D on every route: a warm restart
	// against a delta reuses its canonical per-object rules for positions the
	// delta did not touch, skipping their reconstruction entirely. QDExtent
	// additionally retains the Q_D greatest fixpoint when Stage 1 went
	// through the general GFP route — the state needed to maintain that
	// fixpoint incrementally, and the rows Extent is derived from. QDExtent
	// is nil on the bipartite path, which computes no Q_D fixpoint.
	QD       *typing.Program
	QDExtent *typing.Extent
	// WarmUsed reports that the Q_D fixpoint was maintained incrementally
	// from a parent extraction's state. False for cold runs, for bipartite
	// data (which runs no Q_D fixpoint), and for warm starts whose
	// evaluation fell back to the full one (typing.EvalGFPSnapIncr's bound
	// on the affected region). Observability only — the result is
	// bit-identical either way.
	WarmUsed bool

	db *graph.DB
}

// DB returns the database the result was computed from.
func (r *Result) DB() *graph.DB { return r.db }

// Options configure Stage 1.
type Options struct {
	// NameFor, if non-nil, names the class containing the given objects
	// (called once per class with the class members). Default names are
	// derived from the dominant incoming label of the class, falling back
	// to classN.
	NameFor func(db *graph.DB, members []graph.ObjectID, classIdx int) string
	// UseNaiveGFP selects the reference greatest-fixpoint evaluator instead
	// of the support-counting one (for benchmarks and cross-checking).
	UseNaiveGFP bool
	// UseSorts distinguishes atomic targets by value sort (Remark 2.1):
	// ->age[0:int] instead of ->age[0]. Objects whose attribute values have
	// different sorts then land in different classes.
	UseSorts bool
	// ValueLabels lists labels whose atomic values participate in typing
	// (the paper's future-work value predicates): objects with sex "Male"
	// and sex "Female" then land in different classes.
	ValueLabels []string
	// Parallelism bounds the worker goroutines used for Q_D candidate-type
	// construction and the greatest-fixpoint evaluation; <= 0 means one per
	// CPU, 1 runs the exact serial code path. Results are identical at any
	// setting.
	Parallelism int
	// Check, if non-nil, is a cooperative cancellation checkpoint consulted
	// periodically throughout Stage 1 (candidate-type construction, the
	// greatest-fixpoint evaluation, class grouping). A non-nil return aborts
	// the stage with that error. Checks never alter computed values, so the
	// determinism guarantee is unaffected.
	Check func() error
}

func (o Options) pictureOpts() typing.PictureOpts {
	po := typing.PictureOpts{UseSorts: o.UseSorts}
	if len(o.ValueLabels) > 0 {
		po.ValueLabels = make(map[string]bool, len(o.ValueLabels))
		for _, l := range o.ValueLabels {
			po.ValueLabels[l] = true
		}
	}
	return po
}

// BuildQD constructs the per-object program Q_D of §4.1 from a compiled
// snapshot: one type per complex object, whose rule mirrors the object's
// local picture exactly, with the sort constraints (Remark 2.1) and value
// predicates opts enables — each rule uses the most specific form the
// options allow. The i'th type corresponds to the i'th complex object; the
// returned slice maps complex-object position to ObjectID. The dense
// positions that become rule targets come straight from snap.Pos, and each
// object's edges are walked in CSR form, so no position map is built and no
// per-edge map lookups occur.
//
// Rule construction is sharded over workers (each object's rule depends only
// on its own edges, so shards write disjoint slots); the assembled program is
// identical to the serial one. check is a cooperative cancellation checkpoint
// consulted periodically inside each shard (nil: never cancel); on
// cancellation all workers are joined and the error is returned.
func BuildQD(snap *compile.Snapshot, opts typing.PictureOpts, workers int, check func() error) (*typing.Program, []graph.ObjectID, error) {
	objs := snap.Complex
	types := make([]*typing.Type, len(objs))
	err := par.DoErr(workers, len(objs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if check != nil && i%checkEvery == 0 {
				if err := check(); err != nil {
					return err
				}
			}
			types[i] = qdTypeFor(snap, opts, objs[i])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &typing.Program{Types: types}, objs, nil
}

// qdTypeFor builds the canonical Q_D type of one complex object: a rule
// mirroring the object's local picture exactly (§4.1), with whatever sort
// and value refinements the options enable.
func qdTypeFor(snap *compile.Snapshot, opts typing.PictureOpts, o graph.ObjectID) *typing.Type {
	t := &typing.Type{Name: snap.DB().Name(o), Weight: 1}
	to, lab := snap.Out(o)
	for k := range to {
		tgt := graph.ObjectID(to[k])
		label := snap.Labels[lab[k]]
		if snap.IsAtomic(tgt) {
			l := typing.TypedLink{Dir: typing.Out, Label: label, Target: typing.AtomicTarget}
			if v, ok := snap.Value(tgt); ok {
				if opts.UseSorts {
					l.Sort = typing.SortConstraint(v.Sort) + 1
				}
				if opts.ValueLabels[label] {
					l.Value, l.HasValue = v.Text, true
				}
			}
			t.Links = append(t.Links, l)
		} else {
			t.Links = append(t.Links, typing.TypedLink{Dir: typing.Out, Label: label, Target: int(snap.Pos[tgt])})
		}
	}
	from, lab := snap.In(o)
	for k := range from {
		t.Links = append(t.Links, typing.TypedLink{
			Dir: typing.In, Label: snap.Labels[lab[k]], Target: int(snap.Pos[from[k]]),
		})
	}
	t.Canonicalize()
	return t
}

// checkEvery is the checkpoint stride inside sharded loops: frequent enough
// to bound cancel latency to microseconds, rare enough to be unmeasurable.
const checkEvery = 1024

// buildQDWarm rebuilds Q_D after a delta, reusing the parent result's
// canonical per-object types for every complex position the delta cannot
// have affected. Positions are stable under the apply (core gates warm
// starts on PosStable), so position i names the same object in parent and
// child. A position must be rebuilt when its object was touched, when the
// object reaches a touched atomic (sort/value refinements leak atomic state
// into the source rule), or when it is new; everything else reuses the
// parent's *Type pointer unmodified — reused types are shared and must not
// be mutated. changed lists the positions whose rebuilt rule differs from
// the parent's, plus all new positions: exactly the changed-type set the
// incremental fixpoint evaluation needs.
func buildQDWarm(snap *compile.Snapshot, opts typing.PictureOpts, warm *Warm, check func() error) (*typing.Program, []graph.ObjectID, []int, error) {
	objs := snap.Complex
	parentQD := warm.Parent.QD
	nOld := len(parentQD.Types)
	rebuild := make(map[int]bool, len(warm.Touched))
	for _, o := range warm.Touched {
		if int(o) >= len(snap.Pos) {
			continue // beyond this snapshot; no position to rebuild
		}
		if snap.Pos[o] >= 0 {
			rebuild[int(snap.Pos[o])] = true
			continue
		}
		// Touched atomic: its sort or value can appear in source rules.
		from, _ := snap.In(o)
		for k := range from {
			src := graph.ObjectID(from[k])
			if int(src) < len(snap.Pos) && snap.Pos[src] >= 0 {
				rebuild[int(snap.Pos[src])] = true
			}
		}
	}
	types := make([]*typing.Type, len(objs))
	var changed []int
	for i, o := range objs {
		if check != nil && i%checkEvery == 0 {
			if err := check(); err != nil {
				return nil, nil, nil, err
			}
		}
		if i < nOld && !rebuild[i] {
			types[i] = parentQD.Types[i]
			continue
		}
		t := qdTypeFor(snap, opts, o)
		types[i] = t
		if i >= nOld || !slices.Equal(t.Links, parentQD.Types[i].Links) {
			changed = append(changed, i)
		}
	}
	return &typing.Program{Types: types}, objs, changed, nil
}

// Warm carries a parent extraction's Stage 1 state for reuse against a
// snapshot derived from it by compile.Apply. It is only sound when the apply
// reported Shared and PosStable: dense complex positions must be stable so
// that the parent's positional Q_D types and extents line up with the
// child's (core.Prepared enforces this before handing a Warm down).
type Warm struct {
	// Parent is the parent extraction's full Stage 1 result, computed with
	// the same Stage 1 options. Its retained Q_D supplies per-object rules
	// for untouched positions, and its retained Q_D extent warms the
	// fixpoint evaluation.
	Parent *Result
	// Touched lists the delta-touched objects (compile.ApplyInfo.Touched):
	// every object whose local picture — edges, or an atomic's sort/value —
	// may differ from the parent's. Warm reuse of per-object state is only
	// sound when this list is complete.
	Touched []graph.ObjectID
}

// Minimal computes the minimal perfect typing of the snapshot's database
// (the full Stage 1 algorithm of §4.1). Q_D construction and the
// greatest-fixpoint evaluation read the snapshot's shared positions and
// label table.
//
// Stage 1 has one route per input shape. Bipartite data (every link
// targets an atomic object) is grouped by label set, and its non-recursive
// P_D is evaluated directly. Otherwise Stage 1 runs one fixpoint, Q_D's,
// and class ci's P_D row aliases the Q_D row of its first member: a Q_D row
// is the set of objects simulating its object, those rows are a P_D
// fixpoint, and none is larger, since any P_D fixpoint composed with
// simulation is a simulation.
//
// warm is an optional warm start (nil means cold). Against a parent
// extraction's retained state, Q_D construction reuses the parent's
// per-object rules for untouched positions, and the Q_D fixpoint is
// maintained incrementally via typing.EvalGFPSnapIncr. Grouping, naming and
// the bipartite P_D evaluation always run cold: none iterates. The naive-GFP
// route ignores warm (it is the reference path). Results are bit-identical
// with and without warm, at any Parallelism.
func Minimal(snap *compile.Snapshot, opts Options, warm *Warm) (*Result, error) {
	db := snap.DB()
	workers := par.Workers(opts.Parallelism)
	check := opts.Check
	warmOK := warm != nil && warm.Parent != nil && warm.Parent.QD != nil && !opts.UseNaiveGFP
	var qd *typing.Program
	var objs []graph.ObjectID
	var qdChanged []int // positions whose rules differ from the parent's (warm only)
	var err error
	if warmOK {
		qd, objs, qdChanged, err = buildQDWarm(snap, opts.pictureOpts(), warm, check)
	} else {
		qd, objs, err = BuildQD(snap, opts.pictureOpts(), workers, check)
	}
	if err != nil {
		return nil, err
	}

	// Bipartite fast path (§5.2's special case): with every link targeting
	// an atomic object the program is non-recursive, the greatest fixpoint
	// needs no iteration, and two objects share a class exactly when their
	// label sets (with any sort/value refinements) coincide. Group by
	// canonical rule instead of running the fixpoint machinery.
	var classOf []int
	var classes [][]int
	grouped := false
	if !opts.UseNaiveGFP { // the naive flag doubles as "reference path" for tests
		classOf, classes, grouped = bipartiteClasses(qd)
	}
	var extent *typing.Extent // the Q_D fixpoint, on the GFP route
	warmUsed := false
	if !grouped {
		if opts.UseNaiveGFP {
			extent = typing.EvalGFPNaive(qd, db)
		} else if warmOK && warm.Parent.QDExtent != nil {
			// buildQDWarm already diffed every rebuilt rule against the
			// parent's Q_D, so qdChanged is the changed-type set; touched
			// objects supply the affected columns.
			extent, warmUsed, err = typing.EvalGFPSnapIncr(qd, snap, warm.Parent.QDExtent, qdChanged, warm.Touched, workers, check)
		} else {
			extent, err = typing.EvalGFP(qd, snap, workers, check)
		}
		if err != nil {
			return nil, err
		}

		// Group types with equal extents. Types are in bijection with
		// complex objects, so hashing the membership bitsets groups them in
		// near-linear time; hash collisions are resolved by exact
		// comparison.
		classOf = make([]int, len(objs)) // type position -> class index
		byHash := make(map[uint64][]int) // hash -> class indexes
		for ti := range qd.Types {
			if check != nil && ti%checkEvery == 0 {
				if err := check(); err != nil {
					return nil, err
				}
			}
			h := extent.Member[ti].Hash()
			found := -1
			for _, ci := range byHash[h] {
				rep := classes[ci][0]
				if extent.Member[ti].Equal(extent.Member[rep]) {
					found = ci
					break
				}
			}
			if found < 0 {
				found = len(classes)
				classes = append(classes, nil)
				byHash[h] = append(byHash[h], found)
			}
			classes[found] = append(classes[found], ti)
			classOf[ti] = found
		}
	}

	// Build P_D: for each class pick a representative type and rewrite its
	// link targets through the class map. Mapped links may collide; the
	// canonical form dedupes them.
	pd := typing.NewProgram()
	result := &Result{
		Home:    make(map[graph.ObjectID]int, len(objs)),
		Classes: make([][]graph.ObjectID, len(classes)),
		QD:      qd,
		db:      db,
	}
	for ci, members := range classes {
		rep := qd.Types[members[0]]
		t := &typing.Type{Weight: len(members)}
		for _, l := range rep.Links {
			nl := l
			if l.Target != typing.AtomicTarget {
				nl.Target = classOf[l.Target]
			}
			t.Links = append(t.Links, nl)
		}
		pd.Add(t)
		mem := make([]graph.ObjectID, len(members))
		for k, ti := range members {
			mem[k] = objs[ti]
			result.Home[objs[ti]] = ci
		}
		sort.Slice(mem, func(i, j int) bool { return mem[i] < mem[j] })
		result.Classes[ci] = mem
	}
	nameFor := opts.NameFor
	if nameFor == nil {
		nameFor = DefaultClassName
	}
	used := map[string]bool{"0": true} // "0" is reserved for the atomic type
	for ci := range classes {
		name := nameFor(db, result.Classes[ci], ci)
		if name == "" || name == "0" {
			name = fmt.Sprintf("class%d", ci)
		}
		base := name
		for n := 2; used[name]; n++ {
			name = fmt.Sprintf("%s%d", base, n)
		}
		used[name] = true
		pd.Types[ci].Name = name
	}
	if err := pd.Validate(); err != nil {
		return nil, fmt.Errorf("perfect: internal error building P_D: %v", err)
	}
	result.Program = pd
	if grouped {
		result.Extent, err = typing.EvalGFP(pd, snap, workers, check)
		if err != nil {
			return nil, err
		}
		return result, nil
	}
	rows := make([]*bitset.Set, len(classes))
	for ci, members := range classes {
		rows[ci] = extent.Member[members[0]]
	}
	result.Extent = &typing.Extent{Program: pd, DB: db, Member: rows}
	result.QDExtent = extent
	result.WarmUsed = warmUsed
	return result, nil
}

// bipartiteClasses groups Q_D types by their canonical link sets when every
// link targets an atomic object. It reports grouped=false for general
// graphs (the GFP route is then required).
func bipartiteClasses(qd *typing.Program) (classOf []int, classes [][]int, grouped bool) {
	for _, t := range qd.Types {
		for _, l := range t.Links {
			if l.Target != typing.AtomicTarget {
				return nil, nil, false
			}
		}
	}
	classOf = make([]int, len(qd.Types))
	byKey := make(map[string]int)
	for ti, t := range qd.Types {
		key := ruleKey(t.Links)
		ci, ok := byKey[key]
		if !ok {
			ci = len(classes)
			byKey[key] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], ti)
		classOf[ti] = ci
	}
	return classOf, classes, true
}

// ruleKey is the canonical grouping key of a bipartite (all-atomic-target)
// rule: the label sequence with any sort/value refinements. Canonical link
// order makes it a faithful identity for rule equality on this route.
func ruleKey(links []typing.TypedLink) string {
	var sb strings.Builder
	for _, l := range links {
		sb.WriteString(l.Label)
		sb.WriteByte(0)
		sb.WriteByte(byte(l.Sort))
		if l.HasValue {
			sb.WriteByte(1)
			sb.WriteString(l.Value)
		}
		sb.WriteByte(2)
	}
	return sb.String()
}

// DefaultClassName names a class after the dominant label on incoming edges
// of its members (the label under which the objects most often appear),
// falling back to classN.
func DefaultClassName(db *graph.DB, members []graph.ObjectID, classIdx int) string {
	counts := make(map[string]int)
	for _, o := range members {
		for _, e := range db.In(o) {
			counts[e.Label]++
		}
	}
	best, bestN := "", 0
	for l, n := range counts {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	if best == "" {
		return fmt.Sprintf("class%d", classIdx)
	}
	return best
}

// VerifyRemark41 checks Remark 4.1 on a computed Q_D extent: typeᵢ and
// typeⱼ have equal extents iff oⱼ ∈ M(typeᵢ) and oᵢ ∈ M(typeⱼ). It returns
// an error naming the first violating pair (used by tests; the property is
// a theorem, so a violation indicates an evaluator bug).
func VerifyRemark41(extent *typing.Extent, objs []graph.ObjectID) error {
	n := len(objs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mutual := extent.Member[i].Test(int(objs[j])) && extent.Member[j].Test(int(objs[i]))
			equal := extent.Member[i].Equal(extent.Member[j])
			if mutual != equal {
				return fmt.Errorf("perfect: Remark 4.1 violated for types %d, %d (mutual=%v equal=%v)", i, j, mutual, equal)
			}
		}
	}
	return nil
}
