package cluster

import (
	"fmt"
	"math"

	"schemex/internal/bitset"
	"schemex/internal/compile"
	"schemex/internal/par"
	"schemex/internal/typing"
)

// EmptySlot is the pseudo-destination of a move that unclassifies a type's
// objects (the "empty set type" of Example 5.3).
const EmptySlot = -1

// Config configures the greedy coalescing.
type Config struct {
	// Delta is the weighted distance function; Delta2 (the weighted
	// Manhattan distance of the paper's experiments) if zero.
	Delta Delta
	// AllowEmpty permits moving a type to the empty set type, i.e. choosing
	// not to classify its objects. The empty type does not count toward the
	// number of types.
	AllowEmpty bool
	// EmptyBias scales the cost of empty moves; values below 1 favor
	// unclassification over distant merges. Defaults to 1.
	EmptyBias float64
	// Pinned marks type slots that must survive clustering: a pinned slot
	// can absorb other types but is never merged away or retired to the
	// empty type. Used for a-priori known types (the §2 extension of
	// integrating data with a known structure). May be nil or shorter than
	// the program; missing entries are unpinned.
	Pinned []bool
	// Check, if non-nil, is a cooperative cancellation checkpoint consulted
	// when seeding the distance matrix and at the top of every Step. A
	// non-nil return makes the engine refuse further moves; the error is
	// available from Err. Checks never alter any computed distance or move,
	// so the merge sequence stays bit-identical.
	Check func() error
	// Parallelism bounds the worker goroutines used for distance-matrix
	// seeding, touched-row recomputation, and batched best-move repair;
	// <= 0 means one per CPU, 1 runs everything inline. The merge sequence
	// and every reported cost are bit-identical at any setting (per-shard
	// bests are folded with index tie-breaks).
	Parallelism int
}

func (c Config) pinned(slot int) bool {
	return slot < len(c.Pinned) && c.Pinned[slot]
}

func (c Config) delta() Delta {
	if c.Delta.Func == nil {
		return Delta2
	}
	return c.Delta
}

func (c Config) emptyBias() float64 {
	if c.EmptyBias == 0 {
		return 1
	}
	return c.EmptyBias
}

// Step records one coalescing operation.
type Step struct {
	From     int     // slot whose objects were moved
	To       int     // destination slot, or EmptySlot
	D        int     // Manhattan distance at the time of the move
	Cost     float64 // δ value paid
	NumTypes int     // active types after the step
}

// Greedy is the incremental coalescing engine. Construct with NewGreedy,
// then call Step until the desired number of types remains; Program
// materializes the current typing at any point, so a single run yields the
// whole sensitivity curve of §7.2.
//
// Internally every type definition is a point on the {0,1}^U hypercube of
// interned typed links: a link is a (base, target) pair where the base
// carries direction/label/sort/value and the target column is the atomic
// pseudo-slot or one of the n original type slots. Definitions are bitsets
// over that closed universe, so the §5.2 Manhattan distance is a word-wise
// popcount (bitset.XorCount) and the §5.1 hypercube projection is a column
// rewrite — no map walks on the hot path.
type Greedy struct {
	cfg     Config
	workers int

	bases []typing.TypedLink // base id -> representative link (Target meaningless)
	// Base interning. With a compiled snapshot, plain bases (no sort or
	// value constraint, label present in the data) are keyed arithmetically
	// as dir*nL+labelID into plainBase — the universe comes pre-interned
	// from the snapshot's label table and no map is built for them.
	// Constrained bases and labels absent from the data (seed schemas may
	// reference either) fall back to baseID; without a snapshot everything
	// goes through baseID.
	snap      *compile.Snapshot
	plainBase []int32
	baseID    map[typing.TypedLink]int
	stride    int // columns per base: column 0 = atomic, column s+1 = slot s

	set     []*bitset.Set // slot -> definition over the universe
	size    []int         // slot -> |definition| (cached popcount)
	weight  []int
	name    []string
	members [][]int // slot -> original type indices absorbed
	active  []bool
	inEmpty []int // original type indices moved to the empty type

	err error // sticky cancellation error; set once, refuses further moves

	slotOf []int    // original type index -> current slot, or EmptySlot
	dist   []uint32 // strict upper triangle of the n×n distance matrix, row-major
	// distShared marks dist as aliased by a captured State (or by the parent
	// State a fully-clean warm start aliased): the first mutating move clones
	// it, so captures stay immutable and clean reuse never copies up front.
	distShared bool
	prog       *typing.Program // the pre-clustering program the engine was seeded from
	warmState  *State          // parent state when seeding aliased it wholesale
	seedCopied int             // matrix cells copied from a parent State
	seedCount  int             // matrix cells popcounted at seeding time
	n          int             // original slot count (fixed)
	nAct       int
	L          int

	totalDistance  float64
	defectEstimate int
	movedWeight    int // weight retired by the most recent move
	trace          []Step

	// Per-row best-move caches: bestCost[k]/bestTo[k] describe the cheapest
	// move FROM slot k under the current state; rowValid[k] marks rows whose
	// cache is current. Merges invalidate only the affected rows, turning
	// the cubic all-pair rescan into a near-quadratic pass in practice.
	bestCost []float64
	bestTo   []int
	rowValid []bool

	rowQueue    []int  // scratch: stale rows gathered per Step
	touchedMark []bool // scratch: touched-slot membership during a move
}

// NewGreedy initializes the engine from a Stage 1 program. Type weights must
// be set (home-class sizes); link targets refer to type indices of p.
//
// A non-nil snap pre-interns the typed-link universe: plain link bases are
// resolved arithmetically against the snapshot's label table instead of
// through a freshly built map. A nil snapshot falls back to map-only
// interning. The engine's behavior is identical either way (base IDs only
// index hypercube columns; distances and the merge sequence do not depend on
// their order).
//
// A non-nil w is a warm start: matrix cells between two slots that w maps
// onto a parent State are copied from the captured triangle instead of
// popcounted (see the package comment of state.go for why the copy is
// exact). When every slot maps identically the parent triangle is aliased
// outright — no cells are copied or counted until the first merge clones it.
// A nil or unusable w seeds cold; the seeded matrix, the merge sequence, and
// every reported cost are bit-identical either way, at any Parallelism.
func NewGreedy(p *typing.Program, snap *compile.Snapshot, cfg Config, w *Warm) *Greedy {
	n := len(p.Types)
	g := &Greedy{
		cfg:         cfg,
		workers:     par.Workers(cfg.Parallelism),
		snap:        snap,
		prog:        p,
		stride:      n + 1,
		weight:      make([]int, n),
		name:        make([]string, n),
		members:     make([][]int, n),
		active:      make([]bool, n),
		slotOf:      make([]int, n),
		n:           n,
		nAct:        n,
		L:           p.DistinctLinks(),
		touchedMark: make([]bool, n),
	}
	if snap != nil {
		g.plainBase = make([]int32, 2*snap.NumLabels())
		for i := range g.plainBase {
			g.plainBase[i] = -1
		}
	}
	for _, t := range p.Types {
		for _, l := range t.Links {
			g.internBase(baseKey(l))
		}
	}
	g.set = bitset.NewBlock(n, len(g.bases)*g.stride)
	g.size = make([]int, n)
	memberBacking := make([]int, n) // one arena; merges grow out of it via append
	for i, t := range p.Types {
		for _, l := range t.Links {
			g.set[i].Set(g.bitOf(l))
		}
		g.size[i] = g.set[i].Count()
		g.weight[i] = t.Weight
		if g.weight[i] == 0 {
			g.weight[i] = 1
		}
		g.name[i] = t.Name
		memberBacking[i] = i
		g.members[i] = memberBacking[i : i+1 : i+1]
		g.active[i] = true
		g.slotOf[i] = i
	}
	// The initial distance matrix is the hot spot for large programs: the
	// strict upper triangle is stored flat (half the memory of a square
	// matrix, contiguous rows) and seeded with the popcount kernel. Rows
	// shrink toward the end of the triangle, so they are scheduled
	// dynamically; each row has a single writer. A warm start replaces the
	// popcount with a copy for every clean-clean cell (identical by the
	// renaming argument in state.go), or aliases the parent triangle outright
	// when the mapping is the identity.
	tri := n * (n - 1) / 2
	switch {
	case w.usable(n) && w.isIdentity(n):
		g.dist = w.State.dist
		g.distShared = true
		g.warmState = w.State
		g.seedCopied = tri
	case w.usable(n):
		st, m := w.State, w.Map
		clean := 0
		for _, p := range m {
			if p != DirtySlot {
				clean++
			}
		}
		g.seedCopied = clean * (clean - 1) / 2
		g.seedCount = tri - g.seedCopied
		g.dist = make([]uint32, tri)
		g.err = par.DoItemsErr(g.workers, n-1, func(i int) error {
			if cfg.Check != nil {
				if err := cfg.Check(); err != nil {
					return err
				}
			}
			row := g.dist[g.rowOffset(i):]
			si := g.set[i]
			pi := m[i]
			for j := i + 1; j < n; j++ {
				if pi != DirtySlot && m[j] != DirtySlot {
					row[j-i-1] = st.at(pi, m[j])
				} else {
					row[j-i-1] = uint32(si.XorCount(g.set[j]))
				}
			}
			return nil
		})
	default:
		g.seedCount = tri
		g.dist = make([]uint32, tri)
		g.err = par.DoItemsErr(g.workers, n-1, func(i int) error {
			if cfg.Check != nil {
				if err := cfg.Check(); err != nil {
					return err
				}
			}
			row := g.dist[g.rowOffset(i):]
			si := g.set[i]
			for j := i + 1; j < n; j++ {
				row[j-i-1] = uint32(si.XorCount(g.set[j]))
			}
			return nil
		})
	}
	g.bestCost = make([]float64, n)
	g.bestTo = make([]int, n)
	g.rowValid = make([]bool, n)
	return g
}

// baseKey normalizes a link to its universe base: everything but the target.
func baseKey(l typing.TypedLink) typing.TypedLink {
	l.Target = 0
	return l
}

// plainSlot returns the arithmetic interning cell of a base key, or nil when
// the key cannot be keyed through the snapshot (no snapshot, constrained
// base, or a label absent from the data).
func (g *Greedy) plainSlot(key typing.TypedLink) *int32 {
	if g.plainBase == nil || key.Sort != typing.AnySort || key.HasValue {
		return nil
	}
	lid, ok := g.snap.LabelID(key.Label)
	if !ok {
		return nil
	}
	return &g.plainBase[int(key.Dir)*g.snap.NumLabels()+lid]
}

// internBase assigns the key a base ID if it does not have one yet.
func (g *Greedy) internBase(key typing.TypedLink) {
	if cell := g.plainSlot(key); cell != nil {
		if *cell < 0 {
			*cell = int32(len(g.bases))
			g.bases = append(g.bases, key)
		}
		return
	}
	if g.baseID == nil {
		g.baseID = make(map[typing.TypedLink]int)
	}
	if _, ok := g.baseID[key]; !ok {
		g.baseID[key] = len(g.bases)
		g.bases = append(g.bases, key)
	}
}

// baseOf resolves the base ID of an already-interned key.
func (g *Greedy) baseOf(key typing.TypedLink) int {
	if cell := g.plainSlot(key); cell != nil {
		return int(*cell)
	}
	return g.baseID[key]
}

// bitOf returns the universe bit index of a concrete typed link.
func (g *Greedy) bitOf(l typing.TypedLink) int {
	col := 0
	if l.Target != typing.AtomicTarget {
		col = l.Target + 1
	}
	return g.baseOf(baseKey(l))*g.stride + col
}

// rowOffset returns the flat index of cell (i, i+1) in the strict upper
// triangle.
func (g *Greedy) rowOffset(i int) int {
	return i*(g.n-1) - i*(i-1)/2
}

// distAt returns the current Manhattan distance between slots i and j.
func (g *Greedy) distAt(i, j int) uint32 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return g.dist[g.rowOffset(i)+j-i-1]
}

func (g *Greedy) setDist(i, j int, d uint32) {
	if i > j {
		i, j = j, i
	}
	g.dist[g.rowOffset(i)+j-i-1] = d
}

// State captures the engine's seeded pre-merge matrix for warm re-entry into
// a later engine (NewGreedy). It must be called before the first
// Step — the matrix is mutated by moves — and returns nil afterwards (or
// after a cancellation). Capturing is O(1): the triangle is aliased and the
// engine clones it lazily on its first move, so a capture never copies; when
// the engine was itself warm-started through the identity mapping, the
// parent's State is returned unchanged.
func (g *Greedy) State() *State {
	if len(g.trace) > 0 || g.err != nil {
		return nil
	}
	if g.warmState != nil {
		return g.warmState
	}
	g.distShared = true
	return &State{prog: g.prog, n: g.n, dist: g.dist}
}

// SeedStats reports how the distance matrix was seeded: cells copied from a
// parent State (or aliased wholesale, for an identity warm start) versus
// cells popcounted from the definitions.
func (g *Greedy) SeedStats() (copied, counted int) { return g.seedCopied, g.seedCount }

// ensureDistOwned clones the triangle before the first mutating move when it
// is aliased by a captured (or parent) State.
func (g *Greedy) ensureDistOwned() {
	if g.distShared {
		g.dist = append([]uint32(nil), g.dist...)
		g.distShared = false
		g.warmState = nil
	}
}

// NumActive returns the number of active (non-coalesced) types.
func (g *Greedy) NumActive() int { return g.nAct }

// TotalDistance returns the cumulative δ cost paid so far (the "distance"
// curve of Figure 6).
func (g *Greedy) TotalDistance() float64 { return g.totalDistance }

// DefectEstimate returns Σ d·w₂ over the moves so far — the δ2 accounting
// that upper-bounds the defect of the final program (§5.2).
func (g *Greedy) DefectEstimate() int { return g.defectEstimate }

// Trace returns the steps performed so far.
func (g *Greedy) Trace() []Step { return g.trace }

// Err returns the cancellation error that stopped the engine, if any. Once
// set (by Config.Check failing during NewGreedy or Step), every further Step
// reports no move; the partially coalesced state remains readable.
func (g *Greedy) Err() error { return g.err }

// Step performs the cheapest available move. It reports false when fewer
// than two active types remain and no move was made.
func (g *Greedy) Step() (Step, bool) {
	if g.err != nil || g.nAct < 2 {
		return Step{}, false
	}
	if g.cfg.Check != nil {
		if err := g.cfg.Check(); err != nil {
			g.err = err
			return Step{}, false
		}
	}
	// Refresh stale row caches as a parallel batch: each row is an
	// independent scan writing only its own cache slot, so the batch is
	// race-free and identical to recomputing rows one at a time.
	rows := g.rowQueue[:0]
	for k := 0; k < g.n; k++ {
		if g.active[k] && !g.cfg.pinned(k) && !g.rowValid[k] {
			rows = append(rows, k)
		}
	}
	g.rowQueue = rows
	par.DoItems(g.workers, len(rows), func(ri int) { g.computeRow(rows[ri]) })

	bestCost := math.Inf(1)
	bestFrom, bestTo := -1, -2
	for k := 0; k < g.n; k++ {
		if !g.active[k] || g.cfg.pinned(k) {
			continue
		}
		if g.bestTo[k] == -2 {
			continue // no legal move from k
		}
		cost, to := g.bestCost[k], g.bestTo[k]
		if cost < bestCost ||
			(cost == bestCost && (to < bestTo || (to == bestTo && k < bestFrom))) {
			bestCost, bestFrom, bestTo = cost, k, to
		}
	}
	if bestFrom < 0 {
		return Step{}, false
	}
	var bestD int
	if bestTo == EmptySlot {
		bestD = g.size[bestFrom]
		g.moveToEmpty(bestFrom)
	} else {
		bestD = int(g.distAt(bestTo, bestFrom))
		g.merge(bestTo, bestFrom)
	}
	st := Step{From: bestFrom, To: bestTo, D: bestD, Cost: bestCost, NumTypes: g.nAct}
	g.totalDistance += bestCost
	g.defectEstimate += bestD * g.movedWeight
	g.trace = append(g.trace, st)
	return st, true
}

// RunTo performs steps until k active types remain (or no further move is
// possible). It returns the number of active types afterwards.
func (g *Greedy) RunTo(k int) int {
	for g.nAct > k {
		if _, ok := g.Step(); !ok {
			break
		}
	}
	return g.nAct
}

// computeRow refreshes the cached cheapest move from slot k: the best
// merge destination (ties to the smallest slot, matching the original
// full-scan ordering) and, when allowed, the empty move.
func (g *Greedy) computeRow(k int) {
	delta := g.cfg.delta()
	best := math.Inf(1)
	bestTo := -2
	for m := 0; m < g.n; m++ {
		if m == k || !g.active[m] {
			continue
		}
		d := int(g.distAt(m, k))
		cost := delta.Eval(g.weight[m], g.weight[k], d, g.L)
		if cost < best || (cost == best && m < bestTo) {
			best, bestTo = cost, m
		}
	}
	if g.cfg.AllowEmpty {
		d := g.size[k]
		w1 := len(g.inEmpty)
		if w1 == 0 {
			w1 = 1
		}
		cost := delta.Eval(w1, g.weight[k], d, g.L) * g.cfg.emptyBias()
		if cost < best || (cost == best && EmptySlot < bestTo) {
			best, bestTo = cost, EmptySlot
		}
	}
	g.bestCost[k], g.bestTo[k] = best, bestTo
	g.rowValid[k] = true
}

// merge moves the objects of slot j into slot i: i's definition survives
// (after projection), weights add, and every remaining definition that
// referenced class j is rewritten to reference class i (the hypercube
// projection of §5.1).
func (g *Greedy) merge(i, j int) {
	g.ensureDistOwned()
	g.movedWeight = g.weight[j]
	g.weight[i] += g.weight[j]
	g.members[i] = append(g.members[i], g.members[j]...)
	for _, orig := range g.members[j] {
		g.slotOf[orig] = i
	}
	g.active[j] = false
	g.nAct--
	touched := g.project(j, i)
	// i's move costs changed (its weight grew) even if its definition did
	// not; treat it as touched so its distances and dependents refresh.
	if !g.touchedMark[i] {
		g.touchedMark[i] = true
		touched = insertSorted(touched, i)
	}
	g.recompute(touched)
	g.repairRows(touched, j, i)
	for _, c := range touched {
		g.touchedMark[c] = false
	}
	g.rowValid[i] = false
}

// repairRows repairs the row caches after merging j into i. Stale
// information comes from three places: j is gone, i's weight grew (all move
// costs into i changed), and the projection changed the touched clusters'
// definitions, hence every distance to a touched cluster. A row must be
// recomputed when its cached destination is any of those; otherwise the
// only way its best can IMPROVE is via one of the changed destinations,
// which are folded in directly (in ascending slot order, preserving the
// smallest-slot tie-break). Each row touches only its own cache entries, so
// rows are repaired in parallel.
func (g *Greedy) repairRows(touched []int, j, i int) {
	delta := g.cfg.delta()
	par.DoItems(g.workers, g.n, func(k int) {
		if !g.active[k] || !g.rowValid[k] {
			return
		}
		to := g.bestTo[k]
		if k == i || g.touchedMark[k] || to == j || to == i || (to >= 0 && g.touchedMark[to]) {
			g.rowValid[k] = false
			return
		}
		for _, t := range touched {
			if t == k || !g.active[t] {
				continue
			}
			d := int(g.distAt(t, k))
			cost := delta.Eval(g.weight[t], g.weight[k], d, g.L)
			if cost < g.bestCost[k] || (cost == g.bestCost[k] && t < g.bestTo[k]) {
				g.bestCost[k], g.bestTo[k] = cost, t
			}
		}
	})
}

// moveToEmpty retires slot i to the empty type: its objects become
// unclassified, and links referencing class i are dropped from the remaining
// definitions (nothing can witness a link to an unclassified class).
func (g *Greedy) moveToEmpty(i int) {
	g.ensureDistOwned()
	g.movedWeight = g.weight[i]
	g.inEmpty = append(g.inEmpty, g.members[i]...)
	for _, orig := range g.members[i] {
		g.slotOf[orig] = EmptySlot
	}
	g.active[i] = false
	g.nAct--
	touched := g.project(i, EmptySlot)
	g.recompute(touched)
	for _, c := range touched {
		g.touchedMark[c] = false
	}
	// Empty moves are rare and change the empty type's weight, which feeds
	// every row's empty candidate: invalidate everything.
	for k := range g.rowValid {
		g.rowValid[k] = false
	}
}

// project rewrites links targeting slot old: retargeted to repl (merge) or
// removed (repl == EmptySlot). On the hypercube this is a column rewrite:
// for every base, a bit in old's column is cleared and, for a merge, the
// bit in repl's column is set (collapsing duplicates for free). It returns
// the sorted slots whose definitions changed, with touchedMark set for each.
func (g *Greedy) project(old, repl int) []int {
	var touched []int
	colOld := old + 1
	for c := 0; c < g.n; c++ {
		if !g.active[c] {
			continue
		}
		s := g.set[c]
		changed := false
		for b := range g.bases {
			id := b*g.stride + colOld
			if !s.Test(id) {
				continue
			}
			s.Clear(id)
			if repl != EmptySlot {
				s.Set(b*g.stride + repl + 1)
			}
			changed = true
		}
		if changed {
			g.size[c] = s.Count()
			g.touchedMark[c] = true
			touched = append(touched, c)
		}
	}
	return touched
}

func insertSorted(xs []int, v int) []int {
	i := 0
	for i < len(xs) && xs[i] < v {
		i++
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// recompute refreshes the distance cells incident to the touched slots
// (touchedMark must be set for them). Work is sharded by touched slot; a
// touched–touched pair is computed only by its larger member, so every
// matrix cell has exactly one writer and the batch is race-free.
func (g *Greedy) recompute(touched []int) {
	par.DoItems(g.workers, len(touched), func(ti int) {
		c := touched[ti]
		sc := g.set[c]
		for x := 0; x < g.n; x++ {
			if x == c || !g.active[x] {
				continue
			}
			if g.touchedMark[x] && x > c {
				continue // the (c, x) cell is x's job
			}
			g.setDist(c, x, uint32(sc.XorCount(g.set[x])))
		}
	})
}

// Program materializes the current typing: the active slots become a compact
// program (weights = accumulated weights), and the returned slice maps every
// original type index to its compact cluster index, or EmptySlot for types
// retired to the empty type.
func (g *Greedy) Program() (*typing.Program, []int) {
	compact := make(map[int]int)
	p := typing.NewProgram()
	for slot := 0; slot < g.n; slot++ {
		if !g.active[slot] {
			continue
		}
		compact[slot] = len(p.Types)
		t := &typing.Type{Name: g.name[slot], Weight: g.weight[slot]}
		g.set[slot].ForEach(func(id int) {
			l := g.bases[id/g.stride]
			if col := id % g.stride; col == 0 {
				l.Target = typing.AtomicTarget
			} else {
				l.Target = col - 1
			}
			t.Links = append(t.Links, l)
		})
		p.Add(t)
	}
	// Remap link targets from slots to compact indices.
	for _, t := range p.Types {
		for li, l := range t.Links {
			if l.Target == typing.AtomicTarget {
				continue
			}
			ci, ok := compact[l.Target]
			if !ok {
				panic(fmt.Sprintf("cluster: link targets inactive slot %d", l.Target))
			}
			t.Links[li].Target = ci
		}
		t.Canonicalize()
	}
	mapping := make([]int, len(g.slotOf))
	for orig, slot := range g.slotOf {
		if slot == EmptySlot {
			mapping[orig] = EmptySlot
		} else {
			mapping[orig] = compact[slot]
		}
	}
	return p, mapping
}
