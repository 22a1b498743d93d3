// Package recast implements Stage 3 of the paper's method (§6): recasting
// the original data within the reduced set of types. Objects are assigned to
// every type whose predicate they satisfy completely; objects that fit no
// type exactly are assigned to the closest type under the simple Manhattan
// distance d, or left unclassified past a cutoff. The package also types new
// objects that arrive after extraction.
package recast

import (
	"math"

	"schemex/internal/bitset"
	"schemex/internal/cluster"
	"schemex/internal/compile"
	"schemex/internal/defect"
	"schemex/internal/graph"
	"schemex/internal/par"
	"schemex/internal/typing"
)

// Options configure recasting.
type Options struct {
	// KeepHome also assigns each object the cluster its Stage 1 home type
	// was merged into, even when the object does not satisfy that cluster's
	// definition (the "links suggested by their home type" alternative of
	// §6). The missing links surface as deficit.
	KeepHome bool
	// NoClosest disables the closest-type fallback: objects satisfying no
	// type exactly stay unclassified unless KeepHome covers them.
	NoClosest bool
	// MaxDistance, when >= 0, leaves an object unclassified if its closest
	// type is farther than this (the empty-type cutoff of Example 5.3).
	// Negative means no cutoff. Note that 0 is a real cutoff; use -1 for
	// "no cutoff".
	MaxDistance int
	// UseSorts makes local pictures carry atomic sort constraints, so
	// programs extracted with sorts (Remark 2.1) can be matched.
	UseSorts bool
	// ValueLabels lists labels whose atomic values appear in local
	// pictures, matching value-predicate definitions.
	ValueLabels []string
	// Check, if non-nil, is a cooperative cancellation checkpoint consulted
	// periodically while classifying objects. A non-nil return aborts the
	// recast and Recast returns the error. Checks never alter any
	// classification decision.
	Check func() error
	// Parallelism bounds the worker goroutines that classify objects;
	// <= 0 means one per CPU, 1 runs serially. Per-object decisions are
	// independent and are applied to the assignment in object order, so the
	// result is identical at any setting.
	Parallelism int
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

// DefaultOptions returns the configuration used by the paper's experiments:
// home types are kept, the closest-type fallback is on, and there is no
// distance cutoff.
func DefaultOptions() Options { return Options{KeepHome: true, MaxDistance: -1} }

// Result is a recast typing: the assignment and its defect.
type Result struct {
	Assignment *typing.Assignment
	Defect     defect.Report
	// Unclassified counts complex objects assigned no type.
	Unclassified int
}

// checkEvery is the per-object checkpoint stride of the classification loop.
const checkEvery = 1024

// Warm carries a parent recast for dirty-object re-entry. It is sound only
// when the parent assignment was produced over an equivalent input: the same
// program (per-index identical link lists — names and weights do not feed
// classification), the same Options, and homes that agree with the current
// ones on every clean object and its neighbours. The caller establishes
// those invariants (core does, by diffing homes and closing over the delta's
// touched objects); Recast only consumes them.
type Warm struct {
	// Assignment is the parent extraction's final assignment, keyed by
	// ObjectID, so it remains addressable across snapshots.
	Assignment *typing.Assignment
	// Dirty marks positions in snap.Complex whose object must be
	// reclassified; clean positions copy the parent's row verbatim. An
	// object is dirty when its own edges, its homes, or a neighbour's homes
	// (either direction — local pictures read both) changed, or when it did
	// not exist in the parent.
	Dirty []bool
}

// Recast assigns every complex object of the snapshot's database to types
// of prog.
//
// homes maps each complex object to its home types in prog (for an object
// whose Stage 1 class was merged into cluster c, that is {c}; objects
// retired to the empty type have no entry or an empty slice). Local pictures
// are computed with neighbour classes taken from homes, following the
// paper's sliding-scale procedure: Stage 1 fixed each object's class, and
// Stage 2 merged classes, so the home mapping is the available evidence
// about neighbours. Pictures are computed in CSR form through the
// snapshot's label table, and the defect measurement reuses the same
// snapshot. When Options.Check reports an error mid-pass, all workers are
// joined and the error is returned with a nil result.
//
// w is an optional warm start: only objects w marks dirty are classified,
// every other object reuses its parent row. The second return value counts
// the objects actually classified. Because a clean object's local picture
// and the type definitions are unchanged, the copied rows equal what
// classification would have produced, and the result is bit-identical to a
// cold recast at any Parallelism; the defect is always measured in full
// against the fresh assignment. A nil w classifies everything.
func Recast(snap *compile.Snapshot, prog *typing.Program, homes map[graph.ObjectID][]int, opts Options, w *Warm) (*Result, int, error) {
	db := snap.DB()
	a := typing.NewAssignment(prog, db)
	classesOf := func(x graph.ObjectID) []int { return homes[x] }
	workers := par.Workers(opts.Parallelism)

	// Intern the program's typed links to dense bit positions: every type
	// definition becomes a bitset over that universe. An object's local
	// picture splits into in-universe bits plus an out-of-universe count, so
	// the §6 tests collapse to popcount kernels: t fits exactly iff
	// |t \ local| = 0 (AndNotCount), and d(local, t) = extra + |local Δ t|
	// restricted to the universe (XorCount) — links the program never
	// mentions contribute the same constant to every distance.
	linkID := make(map[typing.TypedLink]int)
	for _, t := range prog.Types {
		for _, l := range t.Links {
			if _, ok := linkID[l]; !ok {
				linkID[l] = len(linkID)
			}
		}
	}
	nT := len(prog.Types)
	typeSet := bitset.NewBlock(nT, len(linkID))
	typeLen := make([]int, nT)
	for ti, t := range prog.Types {
		for _, l := range t.Links {
			typeSet[ti].Set(linkID[l])
		}
		typeLen[ti] = typeSet[ti].Count()
	}

	// Classify objects in parallel chunks; each slot of assigned is written
	// only by its owner. Assignments are applied serially afterwards, in
	// object order, exactly as the serial loop would issue them. A warm
	// start skips clean positions inside the same chunk schedule, so the
	// work drops to the dirty set while the per-object decisions (and their
	// application order) stay untouched.
	objs := snap.Complex
	po := opts.pictureOpts()
	assigned := make([][]int, len(objs))
	classified := 0
	if w != nil {
		for _, d := range w.Dirty {
			if d {
				classified++
			}
		}
	} else {
		classified = len(objs)
	}
	err := par.DoErr(workers, len(objs), func(lo, hi int) error {
		local := bitset.New(len(linkID)) // per-chunk scratch
		for i := lo; i < hi; i++ {
			if opts.Check != nil && i%checkEvery == 0 {
				if err := opts.Check(); err != nil {
					return err
				}
			}
			if w != nil && !w.Dirty[i] {
				continue
			}
			o := objs[i]
			picture := typing.LocalLinksSnap(snap, o, classesOf, po)
			local.Reset()
			extra := 0
			for _, l := range picture {
				if id, ok := linkID[l]; ok {
					local.Set(id)
				} else {
					extra++
				}
			}
			var out []int
			for ti := 0; ti < nT; ti++ {
				if typeLen[ti] == 0 {
					continue // the empty definition carries no evidence
				}
				if typeSet[ti].AndNotCount(local) == 0 {
					out = append(out, ti)
				}
			}
			if opts.KeepHome {
				out = append(out, homes[o]...)
			}
			if len(out) == 0 && !opts.NoClosest {
				// Closest type under the simple distance d (§6); ties go to
				// the smallest index, as in the serial scan.
				best, bestD := -1, math.MaxInt32
				for ti := 0; ti < nT; ti++ {
					d := extra + local.XorCount(typeSet[ti])
					if d < bestD {
						best, bestD = ti, d
					}
				}
				if best >= 0 && (opts.MaxDistance < 0 || bestD <= opts.MaxDistance) {
					out = append(out, best)
				}
			}
			assigned[i] = out
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for i, out := range assigned {
		if w != nil && !w.Dirty[i] {
			a.Reuse(objs[i], w.Assignment.Types[objs[i]])
			continue
		}
		for _, ti := range out {
			a.Assign(objs[i], ti)
		}
	}

	res := &Result{Assignment: a}
	res.Defect = defect.MeasureSnap(a, snap)
	res.Unclassified = len(a.Unclassified())
	return res, classified, nil
}

func containsAll(set typing.LinkSet, links []typing.TypedLink) bool {
	for _, l := range links {
		if !set[l] {
			return false
		}
	}
	return true
}

// TypeNewObject classifies an object that was not used to derive the typing
// (§6): it is assigned every type it satisfies completely under the current
// membership, and the closest type by d when none fits. The membership of
// the object's neighbours is taken from assign.
func TypeNewObject(assign *typing.Assignment, o graph.ObjectID, maxDistance int) []int {
	prog, db := assign.Program, assign.DB
	local := typing.LocalLinks(db, o, func(x graph.ObjectID) []int { return assign.Of(x) }, typing.PictureOpts{})
	localSet := typing.NewLinkSet(local)
	var out []int
	for ti, t := range prog.Types {
		if len(t.Links) > 0 && containsAll(localSet, t.Links) {
			out = append(out, ti)
		}
	}
	if len(out) > 0 {
		return out
	}
	best, bestD := -1, math.MaxInt32
	for ti, t := range prog.Types {
		d := cluster.ManhattanSlices(local, t.Links)
		if d < bestD {
			best, bestD = ti, d
		}
	}
	if best >= 0 && (maxDistance < 0 || bestD <= maxDistance) {
		return []int{best}
	}
	return nil
}
