package cluster

import (
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
	// Parallelism bounds the worker goroutines used to seed the distance
	// matrix, the engine's only O(n²) phase; <= 0 means one per CPU, 1 seeds
	// inline. Merge steps always run inline: each one does O(n) work per
	// changed slot, less than a fan-out costs. The merge sequence and every
	// reported cost are bit-identical at any setting (each seeded row has a
	// single writer).
	Parallelism int
}

func (c *Config) pinned(slot int) bool {
	return slot < len(c.Pinned) && c.Pinned[slot]
}

func (c *Config) delta() Delta {
	if c.Delta.Func == nil {
		return Delta2
	}
	return c.Delta
}

func (c *Config) emptyBias() float64 {
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
// then call Step until the desired number of types remains, or until no move
// is left: Run returns the moves made so far as data, and since no move
// reads the target number of types, one run to the last move yields the
// typing at every size (the whole sensitivity curve of §7.2).
//
// Internally every type definition is a point on the §5.2 hypercube
// {0,1}^L over the L distinct typed links of the seeded program. A link is
// a (base, target) pair: the base carries direction/label/sort/value, the
// target is the atomic pseudo-slot or one of the n original type slots.
// Definitions are L-bit sets, so the Manhattan distance is a word-wise
// popcount (bitset.XorCount). An inverted index from each link to the slots
// holding it lets the §5.1 projection visit only the slots that reference
// the absorbed class; it renames or collapses each link into that class
// (see project), so the universe never grows.
type Greedy struct {
	cfg Config

	bases []typing.TypedLink // base id -> representative link (Target meaningless)
	// Base interning. With a compiled snapshot, plain bases (no sort or
	// value constraint, label present in the data) are keyed arithmetically
	// as dir*nL+labelID into plainBase — no map is built for them.
	// Constrained bases and labels absent from the data (seed schemas may
	// reference either) fall back to baseID; without a snapshot everything
	// goes through baseID.
	snap      *compile.Snapshot
	plainBase []int32
	baseID    map[typing.TypedLink]int

	// The link table, the hypercube's L dimensions. links[p] is link p's
	// current key; a projection renames keys in place. linkID maps the key
	// of every link some active slot holds to its ID (a key may also still
	// map to a link nobody holds any more). holders[p] is the set of active
	// slots whose definitions hold p. into[s] heads the list, threaded
	// through next, of the links whose key targets slot s (-1 ends a list);
	// it may include links nobody holds any more.
	links   []linkKey
	linkID  map[linkKey]int32
	holders []*bitset.Set
	into    []int32
	next    []int32

	set     []*bitset.Set // slot -> definition: the set of links it holds
	size    []int         // slot -> |definition| (cached popcount)
	weight  []int
	members []int // slot -> number of original types absorbed
	active  []bool
	inEmpty int // original types moved to the empty type

	err error // sticky cancellation error; set once, refuses further moves

	dist []uint32 // strict upper triangle of the n×n distance matrix, row-major
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
	// move FROM slot k under the current state — the least (cost,
	// destination) pair, EmptySlot ordering before every slot, or (+Inf,
	// noMove) when no finite move exists; rowValid[k] marks rows whose cache
	// is current. A merge repairs most rows in place and leaves only a few
	// to rescan (see repairRows), so a step costs O(n) per changed slot
	// rather than a rescan of every row.
	bestCost []float64
	bestTo   []int
	rowValid []bool

	touchedAt []int // scratch: slot -> 1 + its index in a move's touched list, or 0
}

// linkKey is a link's (base, target) pair; target is a slot or AtomicTarget.
type linkKey struct{ base, target int32 }

// noMove is the cached destination of a row with no legal move.
const noMove = -2

// NewGreedy initializes the engine from a Stage 1 program. Type weights must
// be set (home-class sizes); link targets refer to type indices of p.
//
// A non-nil snap speeds up interning: plain link bases are resolved
// arithmetically against the snapshot's label table instead of through a
// freshly built map. A nil snapshot falls back to map-only interning. The
// engine's behavior is identical either way (link IDs only index hypercube
// dimensions; distances and the merge sequence do not depend on them).
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
		cfg:       cfg,
		snap:      snap,
		prog:      p,
		weight:    make([]int, n),
		members:   make([]int, n),
		active:    make([]bool, n),
		n:         n,
		nAct:      n,
		touchedAt: make([]int, n),
	}
	if snap != nil {
		g.plainBase = make([]int32, 2*snap.NumLabels())
		for i := range g.plainBase {
			g.plainBase[i] = -1
		}
	}
	// Intern every distinct (base, target) pair in first-seen order, so L
	// is the paper's count of distinct typed links. ids holds the link ID of
	// every link occurrence, in program order. The occurrence count bounds
	// L, so sizing by it keeps interning to a constant number of
	// allocations.
	occ := 0
	for _, t := range p.Types {
		occ += len(t.Links)
	}
	ids := make([]int32, 0, occ)
	g.links = make([]linkKey, 0, occ)
	g.linkID = make(map[linkKey]int32, occ)
	for _, t := range p.Types {
		for _, l := range t.Links {
			key := linkKey{int32(g.internBase(l)), int32(l.Target)}
			id, ok := g.linkID[key]
			if !ok {
				id = int32(len(g.links))
				g.linkID[key] = id
				g.links = append(g.links, key)
			}
			ids = append(ids, id)
		}
	}
	g.L = len(g.links)
	g.set = bitset.NewBlock(n, g.L)
	g.holders = bitset.NewBlock(g.L, n)
	g.size = make([]int, n)
	for i, t := range p.Types {
		for _, id := range ids[:len(t.Links)] {
			g.set[i].Set(int(id))
			g.holders[id].Set(i)
		}
		ids = ids[len(t.Links):]
		g.size[i] = g.set[i].Count()
		g.weight[i] = weightOf(t)
		g.members[i] = 1
		g.active[i] = true
	}
	g.into = make([]int32, n)
	for i := range g.into {
		g.into[i] = -1
	}
	g.next = make([]int32, g.L)
	for id, key := range g.links {
		if key.target != typing.AtomicTarget {
			g.next[id] = g.into[key.target]
			g.into[key.target] = int32(id)
		}
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
	workers := par.Workers(cfg.Parallelism)
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
		g.err = par.DoItemsErr(workers, n-1, func(i int) error {
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
		g.err = par.DoItemsErr(workers, n-1, func(i int) error {
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

// internBase returns the ID of l's base (everything but the target),
// assigning one if the base is new.
func (g *Greedy) internBase(l typing.TypedLink) int {
	l.Target = 0
	if cell := g.plainSlot(l); cell != nil {
		if *cell < 0 {
			*cell = int32(len(g.bases))
			g.bases = append(g.bases, l)
		}
		return int(*cell)
	}
	if g.baseID == nil {
		g.baseID = make(map[typing.TypedLink]int)
	}
	id, ok := g.baseID[l]
	if !ok {
		id = len(g.bases)
		g.baseID[l] = id
		g.bases = append(g.bases, l)
	}
	return id
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
	// Rescan stale rows on the way: a row scan writes only its own cache, so
	// refreshing row k just before reading it equals refreshing all first.
	bestCost := math.Inf(1)
	bestFrom, bestTo := -1, noMove
	for k := 0; k < g.n; k++ {
		if !g.active[k] || g.cfg.pinned(k) {
			continue
		}
		if !g.rowValid[k] {
			g.computeRow(k)
		}
		if g.bestTo[k] == noMove {
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

// computeRow rescans the cheapest move from slot k: every merge
// destination and, when allowed, the empty move.
func (g *Greedy) computeRow(k int) {
	g.bestCost[k], g.bestTo[k] = math.Inf(1), noMove
	for m := 0; m < g.n; m++ {
		if m != k && g.active[m] {
			g.offer(k, m)
		}
	}
	if g.cfg.AllowEmpty {
		g.offer(k, EmptySlot)
	}
	g.rowValid[k] = true
}

// offer folds the move k→to into row k's cache, keeping the least (cost,
// destination) pair: ties go to the smallest destination, EmptySlot first,
// matching the original full-scan ordering.
func (g *Greedy) offer(k, to int) {
	if cost := g.moveCost(k, to); cost < g.bestCost[k] || (cost == g.bestCost[k] && to < g.bestTo[k]) {
		g.bestCost[k], g.bestTo[k] = cost, to
	}
}

// moveCost is the δ cost of moving slot k's objects into slot to, or into
// the empty type when to is EmptySlot.
func (g *Greedy) moveCost(k, to int) float64 {
	delta := g.cfg.delta()
	if to == EmptySlot {
		w1 := g.inEmpty
		if w1 == 0 {
			w1 = 1
		}
		return delta.Eval(w1, g.weight[k], g.size[k], g.L) * g.cfg.emptyBias()
	}
	return delta.Eval(g.weight[to], g.weight[k], int(g.distAt(to, k)), g.L)
}

// merge moves the objects of slot j into slot i: i's definition survives
// (after projection), weights add, and every remaining definition that
// referenced class j is rewritten to reference class i (the hypercube
// projection of §5.1).
func (g *Greedy) merge(i, j int) {
	g.ensureDistOwned()
	g.movedWeight = g.weight[j]
	g.weight[i] += g.weight[j]
	g.members[i] += g.members[j]
	g.retire(j)
	touched, flips := g.project(j, i)
	g.recompute(touched, flips)
	g.repairRows(touched, i, j)
	for _, c := range touched {
		g.touchedAt[c] = 0
	}
}

// repairRows repairs the row caches after merging j into i. A move's cost
// reads the mover's weight, the destination's weight and their distance, so
// the merge changed the moves out of i and out of the touched slots (whose
// definitions changed), and the moves into j (gone), into i (its weight
// grew) and into the touched slots; nothing else. The rows of i and of the
// touched slots are rescanned at the next Step. Every other row k kept all
// its cells but those into j, i and the touched slots, so its cached best
// is still the least of the cells that did not change. The row re-evaluates
// only that best: it is rescanned if the best was j, or if the best's cost
// rose (an unchanged cell may now undercut it); otherwise it keeps the best
// at its new cost and folds in the moves into i and the touched slots.
func (g *Greedy) repairRows(touched []int, i, j int) {
	for k := 0; k < g.n; k++ {
		if !g.active[k] || !g.rowValid[k] {
			continue
		}
		to := g.bestTo[k]
		if k == i || g.touchedAt[k] > 0 || to == j {
			g.rowValid[k] = false
			continue
		}
		if to != noMove {
			cost := g.moveCost(k, to)
			if cost > g.bestCost[k] {
				g.rowValid[k] = false
				continue
			}
			g.bestCost[k] = cost
		}
		g.offer(k, i)
		for _, t := range touched {
			g.offer(k, t)
		}
	}
}

// moveToEmpty retires slot i to the empty type: its objects become
// unclassified, and links referencing class i are dropped from the remaining
// definitions (nothing can witness a link to an unclassified class).
func (g *Greedy) moveToEmpty(i int) {
	g.ensureDistOwned()
	g.movedWeight = g.weight[i]
	g.inEmpty += g.members[i]
	g.retire(i)
	touched, flips := g.project(i, EmptySlot)
	g.recompute(touched, flips)
	for _, c := range touched {
		g.touchedAt[c] = 0
	}
	// Empty moves are rare and change the empty type's weight, which feeds
	// every row's empty candidate: invalidate everything.
	for k := range g.rowValid {
		g.rowValid[k] = false
	}
}

// retire deactivates slot s and removes it from its links' holder sets.
func (g *Greedy) retire(s int) {
	g.active[s] = false
	g.nAct--
	g.set[s].ForEach(func(p int) { g.holders[p].Clear(s) })
}

// project applies the §5.1 projection for the just-retired slot old: every
// link (b, old) becomes (b, repl), or is dropped when repl is EmptySlot.
// Only the links into old are visited, each one whole, in one of two ways.
// A link becomes (b, repl) by renaming when no active slot holds (b, repl):
// only its key and index entries change; its holders keep their bits, so
// no distance or size moves and their row caches stay exact. Otherwise it
// collapses: each holder clears it and sets (b, repl) if it lacks it. A
// dropped link is cleared from its holders. Either way no link is created,
// so the universe never grows. It returns the slots whose definitions
// changed, with touchedAt set for each, and for each of them the link bits
// it flipped.
func (g *Greedy) project(old, repl int) (touched []int, flips [][]int) {
	flip := func(c, p int) {
		if g.touchedAt[c] == 0 {
			touched = append(touched, c)
			flips = append(flips, nil)
			g.touchedAt[c] = len(touched)
		}
		t := g.touchedAt[c] - 1
		flips[t] = append(flips[t], p)
	}
	var next int32
	for p := g.into[old]; p >= 0; p = next {
		key := g.links[p]
		next = g.next[p]
		delete(g.linkID, key)
		h := g.holders[p]
		if h.Count() == 0 {
			continue // nobody holds p any more
		}
		q := int32(-1) // the held link (b, repl) a collapse folds p into
		if repl != EmptySlot {
			key.target = int32(repl)
			if id, ok := g.linkID[key]; ok && g.holders[id].Count() > 0 {
				q = id
			} else {
				g.links[p] = key
				g.linkID[key] = p
				g.next[p] = g.into[repl]
				g.into[repl] = p
				continue
			}
		}
		h.ForEach(func(c int) {
			s := g.set[c]
			s.Clear(int(p))
			g.size[c]--
			flip(c, int(p))
			if q >= 0 && !s.Test(int(q)) {
				s.Set(int(q))
				g.size[c]++
				g.holders[q].Set(c)
				flip(c, int(q))
			}
		})
		h.Reset()
	}
	g.into[old] = -1
	return touched, flips
}

// recompute refreshes the distance cells incident to the touched slots
// (touchedAt must be set for them; flips[t] lists the bits touched[t]
// flipped). A cell between two touched slots is recounted from both
// definitions, once, by its larger member. Any other cell (c, x) changed
// only through c's flipped bits, each of which moves the distance by one:
// down where x now agrees with c on that bit, up where it now disagrees.
// Distances do not read weights, so a merge's survivor needs no recount
// unless the projection changed its definition.
func (g *Greedy) recompute(touched []int, flips [][]int) {
	for ti, c := range touched {
		sc := g.set[c]
		for x := 0; x < g.n; x++ {
			if x == c || !g.active[x] {
				continue
			}
			sx := g.set[x]
			if g.touchedAt[x] > 0 {
				if x < c {
					g.setDist(c, x, uint32(sc.XorCount(sx)))
				}
				continue
			}
			d := g.distAt(c, x)
			for _, b := range flips[ti] {
				if sx.Test(b) == sc.Test(b) {
					d--
				} else {
					d++
				}
			}
			g.setDist(c, x, d)
		}
	}
}

// Program materializes the current typing: the active slots become a compact
// program (weights = accumulated weights), and the returned slice maps every
// original type index to its compact cluster index, or EmptySlot for types
// retired to the empty type.
func (g *Greedy) Program() (*typing.Program, []int) {
	p, mapping, _ := g.Run().At(g.nAct)
	return p, mapping
}

// Run returns the moves made so far over the program the engine was seeded
// from. Later steps do not change it.
func (g *Greedy) Run() *Run {
	return &Run{prog: g.prog, steps: g.trace[:len(g.trace):len(g.trace)]}
}

// weightOf is a type's coalescing weight, an unset weight counting as one.
func weightOf(t *typing.Type) int {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// Run is a greedy coalescing run as data: the seeded program and the moves
// made, in order. No move reads the target number of types, so a run to the
// last legal move holds the typing at every k, and a merge keeps the
// survivor's own definition and only retargets links (the §5.1 projection),
// so At rebuilds any prefix from the seeded program. A Run is immutable.
type Run struct {
	prog  *typing.Program
	steps []Step
}

// Program returns the program the run was seeded from; do not mutate it.
func (r *Run) Program() *typing.Program { return r.prog }

// Steps returns the moves of the run, in order; do not mutate them.
func (r *Run) Steps() []Step { return r.steps }

// At returns the typing after the shortest prefix of steps that leaves at
// most k types (every step, if the run stopped above k), as Program would
// have materialized it then, with the prefix's total δ cost. Each surviving
// slot keeps its own definition, class targets rewritten to the slot that
// absorbed them or dropped if that slot went to the empty type.
func (r *Run) At(k int) (*typing.Program, []int, float64) {
	n := len(r.prog.Types)
	steps := r.steps[:max(0, min(n-k, len(r.steps)))] // each step retires one type
	total := 0.0
	for _, st := range steps {
		total += st.Cost
	}
	// final[s] is the slot holding s's objects after the prefix, or
	// EmptySlot; walking backwards, every destination is already final.
	final := make([]int, n)
	for s := range final {
		final[s] = s
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if st := steps[i]; st.To == EmptySlot {
			final[st.From] = EmptySlot
		} else {
			final[st.From] = final[st.To]
		}
	}
	p := typing.NewProgram()
	mapping := make([]int, n)
	for s, t := range r.prog.Types {
		if final[s] == s {
			mapping[s] = len(p.Types)
			p.Types = append(p.Types, &typing.Type{Name: t.Name})
		}
	}
	for s, t := range r.prog.Types {
		if final[s] == EmptySlot {
			mapping[s] = EmptySlot
			continue
		}
		mapping[s] = mapping[final[s]]
		p.Types[mapping[s]].Weight += weightOf(t)
	}
	for s, t := range r.prog.Types {
		if final[s] != s {
			continue
		}
		out := p.Types[mapping[s]]
		for _, l := range t.Links {
			if l.Target != typing.AtomicTarget {
				if l.Target = mapping[l.Target]; l.Target == EmptySlot {
					continue
				}
			}
			out.Links = append(out.Links, l)
		}
		out.Canonicalize()
	}
	return p, mapping, total
}
