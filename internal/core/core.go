// Package core orchestrates the paper's three-stage schema-extraction
// method: Stage 1 minimal perfect typing (internal/perfect), Stage 2 greedy
// type clustering (internal/cluster), and Stage 3 recasting with defect
// accounting (internal/recast, internal/defect). It also implements the
// sensitivity sweep of §7.2 (defect and total distance as functions of the
// number of types) and the automatic choice of a "natural" number of types.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemex/internal/cluster"
	"schemex/internal/compile"
	"schemex/internal/defect"
	"schemex/internal/graph"
	"schemex/internal/par"
	"schemex/internal/perfect"
	"schemex/internal/recast"
	"schemex/internal/typing"
)

// Options configure the extraction pipeline.
type Options struct {
	// K is the target number of types. K <= 0 selects the number
	// automatically from the sensitivity sweep (elbow of the defect curve).
	K int
	// Delta is the Stage 2 weighted distance; the paper's weighted Manhattan
	// distance (δ2) if unset.
	Delta cluster.Delta
	// AllowEmpty lets Stage 2 move types to the empty set type
	// (unclassified objects); EmptyBias scales the cost of doing so.
	AllowEmpty bool
	EmptyBias  float64
	// MultiRole applies the §4.2 conjunction-type decomposition between
	// Stages 1 and 2, so objects may have several home types.
	MultiRole bool
	// Recast configures Stage 3. Zero value means recast.DefaultOptions.
	Recast *recast.Options
	// NameFor overrides Stage 1 class naming.
	NameFor func(db *graph.DB, members []graph.ObjectID, classIdx int) string
	// UseSorts distinguishes atomic targets by value sort (Remark 2.1)
	// throughout the pipeline.
	UseSorts bool
	// ValueLabels lists labels whose atomic values participate in typing
	// (the value-predicate extension), e.g. ["sex"].
	ValueLabels []string
	// Seed supplies a-priori known types (the §2 extension for integrating
	// data with a known structure). Seed types are added to the clustering
	// as pinned slots: they can absorb discovered types but always survive
	// into the final program. Link targets inside Seed refer to Seed's own
	// types.
	Seed *typing.Program
	// Parallelism bounds the worker goroutines used inside each stage
	// (Stage 1 candidate construction and fixpoint seeding, Stage 2
	// distance-matrix work, Stage 3 object classification); <= 0 means one
	// per CPU, 1 runs the exact serial code paths. Every result is
	// bit-identical at any setting.
	Parallelism int
	// Limits bounds the resources an extraction may consume. Violations
	// surface as *graph.LimitError. The zero value imposes no caps.
	Limits Limits
}

// Limits bounds the resources an extraction run may consume. Each cap is
// checked before or during the stage it protects, so a violating run fails
// early with a typed *graph.LimitError instead of running to completion (or
// OOM). Zero or negative fields mean "unlimited".
type Limits struct {
	// MaxObjects caps the database size (objects, complex plus atomic)
	// accepted by the pipeline; checked before Stage 1.
	MaxObjects int
	// MaxLinks caps the number of link facts; checked before Stage 1.
	MaxLinks int
	// MaxTypes caps the size of the pre-clustering program (the Stage 1
	// perfect typing, after any multi-role decomposition and seeding).
	// Stage 2 is quadratic in this count, so the cap bounds clustering
	// memory and time.
	MaxTypes int
	// MaxWallTime caps the total wall-clock time of the run. When the
	// budget expires the pipeline stops at its next checkpoint and returns
	// a *graph.LimitError wrapping context.DeadlineExceeded.
	MaxWallTime time.Duration
}

// checkGraph enforces the input-size caps against db.
func (l Limits) checkGraph(db *graph.DB) error {
	if l.MaxObjects > 0 && db.NumObjects() > l.MaxObjects {
		return &graph.LimitError{Resource: "objects", Limit: int64(l.MaxObjects), Actual: int64(db.NumObjects())}
	}
	if l.MaxLinks > 0 && db.NumLinks() > l.MaxLinks {
		return &graph.LimitError{Resource: "links", Limit: int64(l.MaxLinks), Actual: int64(db.NumLinks())}
	}
	return nil
}

// checkTypes enforces the pre-clustering program-size cap.
func (l Limits) checkTypes(p *typing.Program) error {
	if l.MaxTypes > 0 && p.Len() > l.MaxTypes {
		return &graph.LimitError{Resource: "types", Limit: int64(l.MaxTypes), Actual: int64(p.Len())}
	}
	return nil
}

// withWallClock arms the MaxWallTime budget on ctx. It returns the derived
// context, its cancel func (always call it), and a wrapper that rewrites
// context.DeadlineExceeded into a *graph.LimitError — but only when it was
// our own budget that fired, not a deadline the caller already carried.
func (l Limits) withWallClock(ctx context.Context) (context.Context, context.CancelFunc, func(error) error) {
	if l.MaxWallTime <= 0 {
		return ctx, func() {}, func(err error) error { return err }
	}
	parent := ctx
	ctx, cancel := context.WithTimeout(ctx, l.MaxWallTime)
	wrap := func(err error) error {
		if errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
			return &graph.LimitError{
				Resource: "wall-time",
				Limit:    l.MaxWallTime.Milliseconds(),
				Err:      context.DeadlineExceeded,
			}
		}
		return err
	}
	return ctx, cancel, wrap
}

// checkFunc adapts a context into the cooperative checkpoint closure the
// stage packages consume. A context that can never be cancelled yields nil,
// which disables checkpointing entirely (the PR 1 fast path).
func checkFunc(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

func (o Options) recastOptions(check func() error) recast.Options {
	rc := recast.DefaultOptions()
	if o.Recast != nil {
		rc = *o.Recast
	}
	if o.UseSorts {
		rc.UseSorts = true
	}
	if len(o.ValueLabels) > 0 {
		rc.ValueLabels = append([]string(nil), o.ValueLabels...)
	}
	if rc.Parallelism == 0 {
		rc.Parallelism = o.Parallelism
	}
	rc.Check = check
	return rc
}

func (o Options) perfectOptions(check func() error) perfect.Options {
	return perfect.Options{
		NameFor:     o.NameFor,
		UseSorts:    o.UseSorts,
		ValueLabels: o.ValueLabels,
		Parallelism: o.Parallelism,
		Check:       check,
	}
}

func (o Options) clusterConfig(pinned []bool, check func() error) cluster.Config {
	return cluster.Config{
		Delta:       o.Delta,
		AllowEmpty:  o.AllowEmpty,
		EmptyBias:   o.EmptyBias,
		Pinned:      pinned,
		Parallelism: o.Parallelism,
		Check:       check,
	}
}

// Result is the outcome of Extract.
type Result struct {
	// Stage1 is the minimal perfect typing.
	Stage1 *perfect.Result
	// Roles is the multiple-roles decomposition, when Options.MultiRole is
	// set (nil otherwise). Clustering then starts from Roles.Program.
	Roles *perfect.RolesResult
	// PerfectTypes is the number of types in the minimal perfect typing.
	PerfectTypes int
	// Program is the final approximate typing with K types.
	Program *typing.Program
	// Mapping sends each pre-clustering type index (Stage1 or Roles program)
	// to its final cluster, or cluster.EmptySlot.
	Mapping []int
	// Homes maps each object to its home clusters in Program.
	Homes map[graph.ObjectID][]int
	// Assignment is the Stage 3 recast assignment.
	Assignment *typing.Assignment
	// Defect is the excess/deficit accounting of the assignment.
	Defect defect.Report
	// Unclassified counts objects with no assigned type.
	Unclassified int
	// TotalDistance is the cumulative Stage 2 δ cost.
	TotalDistance float64
	// AutoK reports the automatically selected K when Options.K <= 0.
	AutoK int
	// Incr reports which stages ran incrementally for this extraction.
	Incr IncrInfo
	// Timing records the wall-clock spent per stage.
	Timing Timing
}

// IncrInfo describes how much of one extraction was derived incrementally
// from retained state rather than recomputed. Observability only: every
// combination of flags yields bit-identical results.
type IncrInfo struct {
	// Stage1Warm: the minimal perfect typing in this result was produced by
	// the incremental fixpoint evaluator (a warm start the evaluator did not
	// abandon for a full evaluation).
	Stage1Warm bool
	// Stage2Warm: the clustering ran warm — it adopted the merge run of an
	// earlier extraction in the lineage whose clustering options (all but K)
	// and pre-clustering program match, or its distance matrix was seeded
	// from the parent extraction's captured state instead of popcounted from
	// scratch.
	Stage2Warm bool
	// Stage3Warm: the recast reclassified only the delta's dirty objects,
	// copying every other assignment row from the parent.
	Stage3Warm bool
	// FastPath: the whole result was replayed from the retained state of an
	// identical earlier extraction (same options, nothing touched since).
	FastPath bool
	// DirtyTypes is the number of Stage 1 classes the warm clustering had to
	// reseed (-1 when no parent state was available to diff against).
	DirtyTypes int
	// DirtyObjects is the number of objects the warm recast reclassified
	// (-1 when the recast ran cold).
	DirtyObjects int
}

// Timing is the per-stage wall clock of one extraction. Stage2 includes the
// auto-K sweep when one ran; FastPath results carry only Total.
type Timing struct {
	Stage1 time.Duration
	Stage2 time.Duration
	Stage3 time.Duration
	Total  time.Duration
}

// IncrStats counts incremental-versus-fallback decisions across a session
// lineage: one instance is shared by a root Prepared and every descendant
// derived through Apply, so the observable speedup of delta extraction can
// be monitored per session. All counters are atomic; read them with
// Snapshot.
type IncrStats struct {
	stage2Warm, stage2Full uint64
	stage3Warm, stage3Full uint64
	fastPath               uint64
	batches, batchedDeltas uint64
	coalescedOps           uint64
}

// IncrStatsSnapshot is a point-in-time copy of IncrStats.
type IncrStatsSnapshot struct {
	// Stage2Warm / Stage2Full count extractions whose clustering adopted a
	// retained merge run or warm-seeded its matrix versus fully popcounted it
	// (cold runs, missing or mismatched state, and warm plans that keep no
	// cell all count as full).
	Stage2Warm, Stage2Full uint64
	// Stage3Warm / Stage3Full count recasts that reclassified only dirty
	// objects versus everything.
	Stage3Warm, Stage3Full uint64
	// FastPath counts whole-result replays (repeat extraction with identical
	// options and no intervening changes).
	FastPath uint64
	// Batches / BatchedDeltas count ApplyBatch passes and the deltas they
	// covered; BatchedDeltas/Batches is the observed amortization factor.
	Batches, BatchedDeltas uint64
	// CoalescedOps counts ops dropped by delta coalescing before compilation
	// (cancelling add/remove pairs, idempotent re-adds, subsumed ops).
	CoalescedOps uint64
}

// record tallies one extraction's incremental decisions.
func (s *IncrStats) record(in IncrInfo) {
	if s == nil {
		return
	}
	if in.FastPath {
		atomic.AddUint64(&s.fastPath, 1)
		return
	}
	if in.Stage2Warm {
		atomic.AddUint64(&s.stage2Warm, 1)
	} else {
		atomic.AddUint64(&s.stage2Full, 1)
	}
	if in.Stage3Warm {
		atomic.AddUint64(&s.stage3Warm, 1)
	} else {
		atomic.AddUint64(&s.stage3Full, 1)
	}
}

// recordBatch tallies one ApplyBatch pass: the number of deltas it stood in
// for and the ops coalescing removed before compilation.
func (s *IncrStats) recordBatch(deltas, dropped int) {
	if s == nil {
		return
	}
	atomic.AddUint64(&s.batches, 1)
	atomic.AddUint64(&s.batchedDeltas, uint64(deltas))
	atomic.AddUint64(&s.coalescedOps, uint64(dropped))
}

// Snapshot returns a consistent-enough copy of the counters (each counter is
// read atomically; the set is not a single linearization point).
func (s *IncrStats) Snapshot() IncrStatsSnapshot {
	if s == nil {
		return IncrStatsSnapshot{}
	}
	return IncrStatsSnapshot{
		Stage2Warm:    atomic.LoadUint64(&s.stage2Warm),
		Stage2Full:    atomic.LoadUint64(&s.stage2Full),
		Stage3Warm:    atomic.LoadUint64(&s.stage3Warm),
		Stage3Full:    atomic.LoadUint64(&s.stage3Full),
		FastPath:      atomic.LoadUint64(&s.fastPath),
		Batches:       atomic.LoadUint64(&s.batches),
		BatchedDeltas: atomic.LoadUint64(&s.batchedDeltas),
		CoalescedOps:  atomic.LoadUint64(&s.coalescedOps),
	}
}

// Prepared is a compiled, reusable extraction context for one database: the
// immutable snapshot every stage reads, plus a memo of the most recent
// Stage 1 result. Preparing once and extracting many times (different K,
// Delta, Recast options, sweeps) skips both the snapshot compilation and —
// when the Stage-1-relevant options are unchanged — the minimal perfect
// typing itself. A Prepared is safe for concurrent use; results are
// bit-identical to the unprepared path.
type Prepared struct {
	db      *graph.DB
	snap    *compile.Snapshot
	version uint64

	// stats is shared by the whole session lineage (root and every child
	// derived through Apply); nil only for a zero-value Prepared.
	stats *IncrStats

	mu    sync.Mutex
	s1key stage1Key
	s1    *perfect.Result
	// warm is the Stage 1 warm-start hint installed by Apply: the parent
	// session's Q_D fixpoint plus the accumulated touched set, valid for
	// extractions whose Stage-1-relevant options match warmKey. The memo
	// itself never crosses Apply — a delta invalidates it by construction
	// (the child starts with s1 == nil).
	warm    *perfect.Warm
	warmKey stage1Key
	// s23 retains the Stage 2/3 state of the most recent eligible
	// extraction. Unlike s1 it does cross Apply — the captured distance
	// matrix is keyed by class membership and the assignment by ObjectID,
	// both of which survive a delta — accumulating the touched sets of every
	// hop so warm extraction knows what to re-derive.
	s23 *stage23
}

// stage23 is the warm-start state for Stages 2 and 3.
type stage23 struct {
	// matrixKey guards the captured clustering state: it is valid for
	// extractions whose Stage-1-relevant options match (the matrix is a pure
	// function of the Stage 1 program).
	matrixKey stage1Key
	// state is the pre-merge seeded distance matrix plus the program it was
	// seeded from.
	state *cluster.State
	// classes are the parent extraction's Stage 1 classes (sorted member
	// lists), diffed against a child's to propose the slot mapping.
	classes [][]graph.ObjectID
	// res is the parent's full result, retained (non-nil) when the full
	// option set is memoizable: it feeds the whole-result fast path and the
	// warm recast. run is the merge run res was read from, seeded from
	// state's program; every K reads its typing off it. resKey guards all
	// three, except that run serves any K.
	resKey stage23Key
	res    *Result
	run    *cluster.Run
	// touched accumulates the delta-touched objects of every Apply since the
	// state was captured.
	touched []graph.ObjectID
}

// stage23Key identifies every option that influences Stages 2 and 3 given a
// fixed Stage 1 result (parallelism and limits never do).
type stage23Key struct {
	s1          stage1Key
	k           int
	deltaName   string
	allowEmpty  bool
	emptyBias   float64
	keepHome    bool
	noClosest   bool
	maxDistance int
	rcUseSorts  bool
	rcValues    string
}

// stage23KeyOf derives the Stage 2/3 memo key, reporting false when the
// options are not memoizable (uncacheable Stage 1, multi-role or seeded
// clustering — whose pre-clustering program is not the Stage 1 program the
// captured state describes — or an anonymous distance function).
func stage23KeyOf(opts Options) (stage23Key, bool) {
	s1, ok := stage1KeyOf(opts)
	if !ok || opts.MultiRole || opts.Seed != nil {
		return stage23Key{}, false
	}
	dn, ok := opts.Delta.CacheKey()
	if !ok {
		return stage23Key{}, false
	}
	rc := recast.DefaultOptions()
	if opts.Recast != nil {
		rc = *opts.Recast
	}
	return stage23Key{
		s1:          s1,
		k:           opts.K,
		deltaName:   dn,
		allowEmpty:  opts.AllowEmpty,
		emptyBias:   opts.EmptyBias,
		keepHome:    rc.KeepHome,
		noClosest:   rc.NoClosest,
		maxDistance: rc.MaxDistance,
		rcUseSorts:  rc.UseSorts,
		rcValues:    strings.Join(rc.ValueLabels, "\x00"),
	}, true
}

// stage1Key identifies the options that influence the Stage 1 result
// (parallelism and cancellation never do; naming does, so non-nil NameFor
// disables the memo — func values cannot be compared).
type stage1Key struct {
	useSorts    bool
	valueLabels string
}

func stage1KeyOf(opts Options) (stage1Key, bool) {
	if opts.NameFor != nil {
		return stage1Key{}, false
	}
	return stage1Key{
		useSorts:    opts.UseSorts,
		valueLabels: strings.Join(opts.ValueLabels, "\x00"),
	}, true
}

// Prepare compiles db into a reusable extraction context. parallelism
// bounds the compilation's workers (<= 0 means one per CPU). shards sets the
// snapshot's object-range layout: 0 sizes shards automatically (or from
// SCHEMEX_TEST_SHARDS), 1 forces a single flat block, k > 1 requests at most
// k shards; results are bit-identical at any layout. Snapshots derived from
// the result through Apply inherit the layout. The compilation stops at the
// next checkpoint once ctx is cancelled.
func Prepare(ctx context.Context, db *graph.DB, parallelism, shards int) (*Prepared, error) {
	snap, err := compile.Compile(db, shards, par.Workers(parallelism), checkFunc(ctx))
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, snap: snap, stats: &IncrStats{}}, nil
}

// PrepareSpilled reconstructs a Prepared from a shard-granular spill:
// an EncodeCore blob plus one EncodeShard file per shard (in shard order).
// Every shard file is read and checked against the core here
// (compile.LoadSnapshot), so the result is laid out like a compiled one
// and a damaged spill fails now rather than at a later access. db must be
// the database the spilled snapshot was compiled from (the serving layer
// persists the graph text beside the shard files).
func PrepareSpilled(ctx context.Context, db *graph.DB, core []byte, shardFiles []string) (*Prepared, error) {
	if check := checkFunc(ctx); check != nil {
		if err := check(); err != nil {
			return nil, err
		}
	}
	snap, err := compile.LoadSnapshot(db, core, shardFiles)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, snap: snap, stats: &IncrStats{}}, nil
}

// EncodeSnapshotCore serializes the prepared snapshot's shard-independent
// core (label universe, position table, shard geometry)
// for a shard-granular spill; pair with EncodeShard.
func (p *Prepared) EncodeSnapshotCore() []byte { return p.snap.EncodeCore() }

// EncodeShard serializes shard si of the prepared snapshot in the versioned
// checksummed shard format.
func (p *Prepared) EncodeShard(si int) []byte { return p.snap.ShardBytes(si) }

// NumShards reports how many fixed-range object shards the prepared
// snapshot is partitioned into. Deltas applied through Apply inherit the
// layout, so the count is stable across a session (it grows only when new
// objects spill past the last shard's range).
func (p *Prepared) NumShards() int { return p.snap.NumShards() }

// Stats returns the incremental-extraction counters accumulated across this
// Prepared's whole session lineage (the root and every descendant derived
// through Apply share one set).
func (p *Prepared) Stats() IncrStatsSnapshot { return p.stats.Snapshot() }

// DB returns the database the context was prepared from. It must not be
// mutated while the Prepared is in use.
func (p *Prepared) DB() *graph.DB { return p.db }

// Snapshot returns the compiled snapshot.
func (p *Prepared) Snapshot() *compile.Snapshot { return p.snap }

// Version counts the deltas applied since the root Prepare: 0 for a freshly
// prepared context, parent+1 for each Apply. It distinguishes session states
// that share a lineage.
func (p *Prepared) Version() uint64 { return p.version }

// SetBaseVersion stamps the session version a rehydrated context resumes
// from: recovery prepares the spilled snapshot (version 0 by construction),
// rebases it to the manifest's version, then replays the log suffix so each
// Apply advances the count exactly as the original process did. Call it
// before the Prepared is shared; it is not synchronized.
func (p *Prepared) SetBaseVersion(v uint64) { p.version = v }

// Apply produces a new Prepared for the database obtained by applying delta
// to p's database. Neither p, its database, nor any result extracted from it
// is affected: the child shares untouched structure with the parent (graph
// edge slices, snapshot CSR shards) and carries the parent's
// Stage 1 fixpoint as a warm start, so extracting from the child after a
// small delta costs work proportional to the delta's neighborhood, not the
// database. Results are bit-identical to preparing the mutated database from
// scratch. parallelism bounds the incremental compilation's workers (<= 0
// means one per CPU); it stops at the next checkpoint once ctx is cancelled.
func (p *Prepared) Apply(ctx context.Context, delta *graph.Delta, parallelism int) (*Prepared, *compile.ApplyInfo, error) {
	return p.applyAdvance(ctx, delta, parallelism, 1)
}

// ApplyBatch applies a burst of deltas as one pipeline pass: the batch is
// merged (and, when provably safe, coalesced — cancelling add/remove pairs
// and RemoveObject-subsumed ops dropped) into a single delta, compiled with
// one incremental Apply over the union footprint, and the child's version
// advances by len(deltas) so it is indistinguishable from sequential
// application. The result is bit-identical to applying the deltas one at a
// time; if any delta in the batch would fail, the whole batch fails and p is
// unchanged — callers needing per-delta error attribution fall back to
// sequential Apply calls. ctx and parallelism are as for Apply.
func (p *Prepared) ApplyBatch(ctx context.Context, deltas []*graph.Delta, parallelism int) (*Prepared, *compile.ApplyInfo, error) {
	merged := graph.MergeDeltas(deltas...)
	apply := merged
	if co, ok := merged.Coalesce(p.db); ok {
		apply = co
	}
	// When Coalesce bails the sequence is known to fail sequentially;
	// applying the merged delta surfaces that same error without committing
	// anything.
	child, info, err := p.applyAdvance(ctx, apply, parallelism, uint64(len(deltas)))
	if err != nil {
		return nil, nil, err
	}
	p.stats.recordBatch(len(deltas), merged.Len()-apply.Len())
	return child, info, nil
}

// applyAdvance is the shared Apply body: compile one delta incrementally and
// derive a child advanced by `advance` versions (1 for a single delta, N for
// a batch standing in for N sequential deltas).
func (p *Prepared) applyAdvance(ctx context.Context, delta *graph.Delta, parallelism int, advance uint64) (*Prepared, *compile.ApplyInfo, error) {
	snap, info, err := compile.Apply(p.snap, delta, par.Workers(parallelism), checkFunc(ctx))
	if err != nil {
		return nil, nil, err
	}
	child := &Prepared{db: snap.DB(), snap: snap, version: p.version + advance, stats: p.stats}
	// A warm start needs stable complex positions; whether the snapshot
	// itself was rebuilt incrementally does not matter (Q_D rules name
	// labels by string, so a renumbered label table is harmless).
	if info.PosStable {
		p.mu.Lock()
		if p.s1 != nil {
			child.warm = &perfect.Warm{Parent: p.s1, Touched: info.Touched}
			child.warmKey = p.s1key
		} else if p.warm != nil {
			// No extraction ran between two applies: chain the grandparent's
			// state, accumulating the touched sets of both hops.
			child.warm = &perfect.Warm{
				Parent:  p.warm.Parent,
				Touched: mergeTouched(p.warm.Touched, info.Touched),
			}
			child.warmKey = p.warmKey
		}
		// The Stage 2/3 state survives the delta — its matrix is keyed by
		// class membership and its assignment by ObjectID, both stable across
		// Apply — with this hop's touched objects folded into the debt the
		// next extraction must re-derive.
		if p.s23 != nil {
			s := *p.s23
			s.touched = mergeTouched(s.touched, info.Touched)
			child.s23 = &s
		}
		p.mu.Unlock()
	}
	return child, info, nil
}

// mergeTouched merges two ascending ObjectID slices, deduplicating.
func mergeTouched(a, b []graph.ObjectID) []graph.ObjectID {
	out := make([]graph.ObjectID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// stage1 computes (or replays) the Stage 1 minimal perfect typing. The memo
// holds the single most recent result: repeated extractions with the same
// Stage-1-relevant options — the serving pattern the snapshot cache exists
// for — hit it, an options change recomputes. Stage 1 results are read-only
// downstream (every stage clones before mutating), so sharing is safe.
func (p *Prepared) stage1(opts Options, check func() error) (*perfect.Result, error) {
	key, cacheable := stage1KeyOf(opts)
	var warm *perfect.Warm
	if cacheable {
		p.mu.Lock()
		s1 := p.s1
		hit := s1 != nil && p.s1key == key
		if !hit && p.warmKey == key {
			warm = p.warm
		}
		p.mu.Unlock()
		if hit {
			return s1, nil
		}
	}
	res, err := perfect.Minimal(p.snap, opts.perfectOptions(check), warm)
	if err != nil {
		return nil, err
	}
	if cacheable {
		p.mu.Lock()
		p.s1, p.s1key = res, key
		p.mu.Unlock()
	}
	return res, nil
}

// Extract runs the full three-stage pipeline on db.
func Extract(db *graph.DB, opts Options) (*Result, error) {
	return ExtractContext(context.Background(), db, opts)
}

// ExtractContext is Extract with cooperative cancellation and resource
// budgets: the run stops at the next checkpoint once ctx is cancelled (or
// the Options.Limits wall-clock budget expires) and returns ctx.Err() — or a
// *graph.LimitError for budget violations. Checkpoints only ever abort the
// whole run, so a completed extraction is bit-identical to Extract.
func ExtractContext(ctx context.Context, db *graph.DB, opts Options) (*Result, error) {
	ctx, cancel, wrapWall := opts.Limits.withWallClock(ctx)
	defer cancel()
	if err := opts.Limits.checkGraph(db); err != nil {
		return nil, err
	}
	prep, err := Prepare(ctx, db, opts.Parallelism, 0)
	if err != nil {
		return nil, wrapWall(err)
	}
	res, err := extract(ctx, prep, opts)
	if err != nil {
		return nil, wrapWall(err)
	}
	return res, nil
}

// ExtractPrepared runs the pipeline over a prepared context, skipping the
// snapshot compilation (and, when the Stage-1 options repeat, Stage 1), with
// the same cancellation and budget contract as ExtractContext.
func ExtractPrepared(ctx context.Context, p *Prepared, opts Options) (*Result, error) {
	ctx, cancel, wrapWall := opts.Limits.withWallClock(ctx)
	defer cancel()
	res, err := extract(ctx, p, opts)
	if err != nil {
		return nil, wrapWall(err)
	}
	return res, nil
}

func extract(ctx context.Context, prep *Prepared, opts Options) (*Result, error) {
	if err := opts.Limits.checkGraph(prep.db); err != nil {
		return nil, err
	}
	check := checkFunc(ctx)
	tTotal := time.Now()

	s23, retain := prep.retained(opts)
	resKey, resOK := stage23KeyOf(opts)
	sameOpts := resOK && s23 != nil && s23.res != nil && s23.resKey == resKey

	// Whole-result fast path: an identical extraction already ran in this
	// lineage and no delta has touched anything since (a repeat on the same
	// Prepared, or a chain of empty deltas). The retained result is returned
	// as-is — the snapshots are content-identical — under fresh flags.
	if sameOpts && len(s23.touched) == 0 {
		out := *s23.res
		out.Incr = IncrInfo{FastPath: true, DirtyTypes: -1, DirtyObjects: -1}
		out.Timing = Timing{Total: time.Since(tTotal)}
		prep.stats.record(out.Incr)
		return &out, nil
	}

	t0 := time.Now()
	pc, err := prep.preCluster(opts, check)
	if err != nil {
		return nil, err
	}
	res := &Result{Stage1: pc.stage1, Roles: pc.roles, PerfectTypes: pc.stage1.Program.Len()}
	res.Incr = IncrInfo{Stage1Warm: pc.stage1.WarmUsed, DirtyTypes: -1, DirtyObjects: -1}
	res.Timing.Stage1 = time.Since(t0)

	t0 = time.Now()
	run, state, err := prep.stage2(pc, opts, check, s23, &res.Incr)
	if err != nil {
		return nil, err
	}
	k := opts.K
	if k <= 0 {
		sw, err := sweepRun(check, prep.snap, run, pc.homes, opts)
		if err != nil {
			return nil, err
		}
		k = sw.Knee()
		res.AutoK = k
	}
	res.Program, res.Mapping, res.TotalDistance = run.At(k)
	res.Timing.Stage2 = time.Since(t0)

	res.Homes = mapHomes(pc.homes, res.Mapping)

	// Warm Stage 3: when the full option set matches the retained result and
	// clustering landed on the same final program, reclassify only the dirty
	// closure of the accumulated delta and copy every other assignment row.
	t0 = time.Now()
	var rcWarm *recast.Warm
	if sameOpts && programsAgree(res.Program, s23.res.Program) {
		rcWarm = planRecastWarm(prep.snap, s23, res)
	}
	rc, classified, err := recast.Recast(prep.snap, res.Program, res.Homes, opts.recastOptions(check), rcWarm)
	if err != nil {
		return nil, err
	}
	if rcWarm != nil {
		res.Incr.Stage3Warm = true
		res.Incr.DirtyObjects = classified
	}
	res.Assignment = rc.Assignment
	res.Defect = rc.Defect
	res.Unclassified = rc.Unclassified
	res.Timing.Stage3 = time.Since(t0)
	res.Timing.Total = time.Since(tTotal)
	prep.stats.record(res.Incr)

	// Retain this extraction's state for the next one in the lineage. The
	// full result and the merge run ride along only when the whole option set
	// is memoizable.
	if retain {
		matrixKey, _ := stage1KeyOf(opts)
		ns := &stage23{matrixKey: matrixKey, state: state, classes: pc.stage1.Classes}
		if resOK {
			ns.resKey, ns.res, ns.run = resKey, res, run
		}
		prep.mu.Lock()
		prep.s23 = ns
		prep.mu.Unlock()
	}
	return res, nil
}

// retained returns the lineage's retained Stage 2/3 state when it was
// captured under opts' Stage 1 options (nil otherwise), and whether opts may
// produce such state at all. The state describes the plain Stage 1 program;
// multi-role decomposition and seeding change the pre-clustering program, so
// those runs neither consume nor produce it.
func (p *Prepared) retained(opts Options) (*stage23, bool) {
	key, ok := stage1KeyOf(opts)
	if !ok || opts.MultiRole || opts.Seed != nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.s23 == nil || p.s23.matrixKey != key {
		return nil, true
	}
	return p.s23, true
}

// preClustering is what Stage 2 starts from: the Stage 1 result, its
// multi-role decomposition when asked for, the program to cluster (with any
// pinned seed types appended) and every object's home types in it.
type preClustering struct {
	stage1 *perfect.Result
	roles  *perfect.RolesResult
	prog   *typing.Program
	homes  map[graph.ObjectID][]int
	pinned []bool
}

// preCluster runs (or replays) Stage 1 and derives the program Stage 2
// clusters.
func (p *Prepared) preCluster(opts Options, check func() error) (*preClustering, error) {
	if p.snap.NumComplex() == 0 {
		return nil, errors.New("core: database has no complex objects")
	}
	stage1, err := p.stage1(opts, check)
	if err != nil {
		return nil, err
	}
	pc := &preClustering{stage1: stage1, prog: stage1.Program}
	if opts.MultiRole {
		pc.roles = perfect.ApplyRoles(stage1)
		pc.prog, pc.homes = pc.roles.Program, pc.roles.Homes
	} else {
		pc.homes = make(map[graph.ObjectID][]int, len(stage1.Home))
		for o, h := range stage1.Home {
			pc.homes[o] = []int{h}
		}
	}
	if pc.prog, pc.pinned, err = withSeeds(pc.prog, opts.Seed); err != nil {
		return nil, err
	}
	if err := opts.Limits.checkTypes(pc.prog); err != nil {
		return nil, err
	}
	return pc, nil
}

// stage2 returns the greedy merge run over pc's program, run to its last
// legal move: explicit K, auto-K and the sweep all read their typings off
// prefixes of it (cluster.Run.At). The run is a pure function of the
// pre-clustering program (links, weights, names) and the clustering options
// — it never reads the database or K — so the run s23 retains is adopted
// when every option but K matches and its program is identical. Otherwise
// one engine runs, its distance matrix warm-seeded from s23 where provable.
// It also returns the run's seeded pre-merge matrix for retention, and
// records on incr whether Stage 2 ran warm.
func (p *Prepared) stage2(pc *preClustering, opts Options, check func() error, s23 *stage23, incr *IncrInfo) (*cluster.Run, *cluster.State, error) {
	if key, ok := stage23KeyOf(opts); ok && s23 != nil && s23.run != nil {
		key.k = s23.resKey.k // K only picks a prefix of the run
		if key == s23.resKey && programEqual(pc.prog, s23.run.Program()) {
			incr.Stage2Warm, incr.DirtyTypes = true, 0
			return s23.run, s23.state, nil
		}
	}
	var warm *cluster.Warm
	if s23 != nil {
		warm = planWarm(pc.stage1, s23, incr)
	}
	g := cluster.NewGreedy(pc.prog.Clone(), p.snap, opts.clusterConfig(pc.pinned, check), warm)
	// Capture the seeded matrix before any move mutates it; the capture
	// aliases the triangle (the engine clones it on its first move).
	state := g.State()
	for {
		if _, ok := g.Step(); !ok {
			break
		}
	}
	if err := g.Err(); err != nil {
		return nil, nil, err
	}
	if copied, _ := g.SeedStats(); copied > 0 {
		incr.Stage2Warm = true
	}
	return g.Run(), state, nil
}

// planWarm diffs the child's Stage 1 classes against the retained parent
// state and builds the matrix-seeding plan: classes with identical members
// whose definitions provably mirror a parent slot keep their matrix cells,
// and every other cell is popcounted exactly as a cold seeding would, so the
// plan can only replace popcounts with copies. It records the dirty-type
// count on incr.
func planWarm(stage1 *perfect.Result, s23 *stage23, incr *IncrInfo) *cluster.Warm {
	proposal := perfect.MatchClasses(stage1.Classes, s23.classes)
	m, clean := cluster.MatchDefinitions(stage1.Program, s23.state, proposal)
	incr.DirtyTypes = stage1.Program.Len() - clean
	return &cluster.Warm{State: s23.state, Map: m}
}

// programsAgree reports whether two programs carry identical link lists at
// every type index — the only program inputs Stage 3 classification reads
// (names and weights feed neither pictures nor distances).
func programsAgree(a, b *typing.Program) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Types {
		la, lb := a.Types[i].Links, b.Types[i].Links
		if len(la) != len(lb) {
			return false
		}
		for j := range la {
			if la[j] != lb[j] {
				return false
			}
		}
	}
	return true
}

// programEqual reports whether two programs are identical in every input the
// greedy coalescing reads: positionally equal link lists, weights, and names
// (names do not steer merges but are carried into the output program, so
// adopting a run requires them equal too).
func programEqual(a, b *typing.Program) bool {
	if !programsAgree(a, b) {
		return false
	}
	for i := range a.Types {
		if a.Types[i].Weight != b.Types[i].Weight || a.Types[i].Name != b.Types[i].Name {
			return false
		}
	}
	return true
}

// planRecastWarm computes the dirty-object closure of the accumulated delta
// and builds the warm recast plan. An object must be reclassified when its
// own edge set changed, its homes changed, or a neighbour in either direction
// did either of those — local pictures read the homes of both out-targets and
// in-sources, and a touched atomic value surfaces through its sources'
// pictures. The warm recast classifies the dirty objects exactly as a cold
// one would and copies every other row, so it can only replace
// classifications with copies.
func planRecastWarm(snap *compile.Snapshot, s23 *stage23, res *Result) *recast.Warm {
	parent := s23.res
	nC := len(snap.Complex)
	seed := make([]bool, nC)
	dirty := make([]bool, nC)
	markNeighbors := func(o graph.ObjectID) {
		to, _ := snap.Out(o)
		for _, t := range to {
			if p := snap.Pos[t]; p >= 0 {
				dirty[p] = true
			}
		}
		from, _ := snap.In(o)
		for _, f := range from {
			if p := snap.Pos[f]; p >= 0 {
				dirty[p] = true
			}
		}
	}
	for _, o := range s23.touched {
		if int(o) >= len(snap.Pos) {
			continue
		}
		if p := snap.Pos[o]; p >= 0 {
			seed[p] = true
		} else {
			// Atomic: its value feeds the pictures of its sources.
			markNeighbors(o)
		}
	}
	for i, o := range snap.Complex {
		if !intsEqual(res.Homes[o], parent.Homes[o]) {
			seed[i] = true
		}
	}
	for i, o := range snap.Complex {
		if !seed[i] {
			continue
		}
		dirty[i] = true
		markNeighbors(o)
	}
	return &recast.Warm{Assignment: parent.Assignment, Dirty: dirty}
}

func intsEqual(a, b []int) bool {
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

// withSeeds appends the seed types of a-priori knowledge to the
// pre-clustering program as pinned slots, remapping seed-internal link
// targets and disambiguating name collisions.
func withSeeds(base *typing.Program, seed *typing.Program) (*typing.Program, []bool, error) {
	if seed == nil || seed.Len() == 0 {
		return base, nil, nil
	}
	if err := seed.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: invalid seed program: %v", err)
	}
	out := base.Clone()
	offset := out.Len()
	used := make(map[string]bool, offset)
	for _, t := range out.Types {
		used[t.Name] = true
	}
	for _, st := range seed.Types {
		t := st.Clone()
		for li, l := range t.Links {
			if l.Target != typing.AtomicTarget {
				t.Links[li].Target = l.Target + offset
			}
		}
		orig := t.Name
		for n := 2; used[t.Name]; n++ {
			t.Name = fmt.Sprintf("%s%d", orig, n)
		}
		used[t.Name] = true
		out.Add(t)
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: seeding failed: %v", err)
	}
	pinned := make([]bool, out.Len())
	for i := offset; i < out.Len(); i++ {
		pinned[i] = true
	}
	return out, pinned, nil
}

// mapHomes pushes pre-clustering home types through the cluster mapping,
// dropping types retired to the empty slot and deduplicating.
func mapHomes(base map[graph.ObjectID][]int, mapping []int) map[graph.ObjectID][]int {
	out := make(map[graph.ObjectID][]int, len(base))
	for o, hs := range base {
		var mapped []int
		for _, h := range hs {
			c := mapping[h]
			if c == cluster.EmptySlot {
				continue
			}
			dup := false
			for _, x := range mapped {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				mapped = append(mapped, c)
			}
		}
		out[o] = mapped
	}
	return out
}

// SweepPoint is one point of the §7.2 sensitivity graph.
type SweepPoint struct {
	K             int
	Excess        int
	Deficit       int
	Defect        int
	TotalDistance float64
	Unclassified  int
}

// SweepResult is the full sensitivity curve, ordered by decreasing K (the
// order the greedy run produces it in).
type SweepResult struct {
	Points []SweepPoint
}

// Sweep runs Stage 1 once and then the greedy coalescing from the perfect
// typing down to one type, recasting and measuring the defect at every
// intermediate number of types — the Figure 6 experiment — with the same
// cancellation and budget contract as ExtractContext.
func Sweep(ctx context.Context, db *graph.DB, opts Options) (*SweepResult, error) {
	ctx, cancel, wrapWall := opts.Limits.withWallClock(ctx)
	defer cancel()
	if err := opts.Limits.checkGraph(db); err != nil {
		return nil, err
	}
	prep, err := Prepare(ctx, db, opts.Parallelism, 0)
	if err != nil {
		return nil, wrapWall(err)
	}
	sw, err := sweep(ctx, prep, opts)
	if err != nil {
		return nil, wrapWall(err)
	}
	return sw, nil
}

// SweepPrepared runs the sensitivity sweep over a prepared context, with
// the same contract as Sweep.
func SweepPrepared(ctx context.Context, p *Prepared, opts Options) (*SweepResult, error) {
	ctx, cancel, wrapWall := opts.Limits.withWallClock(ctx)
	defer cancel()
	sw, err := sweep(ctx, p, opts)
	if err != nil {
		return nil, wrapWall(err)
	}
	return sw, nil
}

func sweep(ctx context.Context, prep *Prepared, opts Options) (*SweepResult, error) {
	if err := opts.Limits.checkGraph(prep.db); err != nil {
		return nil, err
	}
	check := checkFunc(ctx)
	pc, err := prep.preCluster(opts, check)
	if err != nil {
		return nil, err
	}
	s23, _ := prep.retained(opts)
	run, _, err := prep.stage2(pc, opts, check, s23, &IncrInfo{})
	if err != nil {
		return nil, err
	}
	return sweepRun(check, prep.snap, run, pc.homes, opts)
}

// sweepRun measures the typing at every prefix of run, from the
// pre-clustering program down to where the run stopped: each typing is
// recast and its defect counted. The typings are independent work, measured
// on all CPUs; results are deterministic (indexed writes).
func sweepRun(check func() error, snap *compile.Snapshot, run *cluster.Run, homes map[graph.ObjectID][]int, opts Options) (*SweepResult, error) {
	n := run.Program().Len()
	sw := &SweepResult{Points: make([]SweepPoint, len(run.Steps())+1)}
	// Each recast runs serially inside its worker (Parallelism: 1) so the
	// sweep doesn't oversubscribe the CPUs.
	rcOpts := opts.recastOptions(check)
	rcOpts.Parallelism = 1
	if err := par.DoItemsErr(par.Workers(opts.Parallelism), len(sw.Points), func(i int) error {
		prog, mapping, total := run.At(n - i)
		rc, _, err := recast.Recast(snap, prog, mapHomes(homes, mapping), rcOpts, nil)
		if err != nil {
			return err
		}
		sw.Points[i] = SweepPoint{
			K:             prog.Len(),
			Excess:        rc.Defect.Excess,
			Deficit:       rc.Defect.Deficit,
			Defect:        rc.Defect.Total(),
			TotalDistance: total,
			Unclassified:  rc.Unclassified,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sw, nil
}

// Knee returns the number of types at the elbow of the defect curve: the
// point with maximum perpendicular distance from the straight line joining
// the curve's endpoints. This is the "optimal trade-off between number of
// types and defect" the paper's sensitivity analysis looks for; ties go to
// the smaller defect, then to the earlier point — the larger K, since points
// run from large K to small.
func (s *SweepResult) Knee() int {
	if len(s.Points) == 0 {
		return 1
	}
	if len(s.Points) <= 2 {
		return s.Points[len(s.Points)-1].K
	}
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	dx := float64(last.K - first.K)
	dy := float64(last.Defect - first.Defect)
	norm := dx*dx + dy*dy
	if norm == 0 {
		return first.K
	}
	bestIdx, bestDist := 0, -1.0
	for i, p := range s.Points {
		// Perpendicular distance from p to the line (first)-(last).
		num := dy*float64(p.K-first.K) - dx*float64(p.Defect-first.Defect)
		if num < 0 {
			num = -num
		}
		d := num
		if d > bestDist || (d == bestDist && p.Defect < s.Points[bestIdx].Defect) {
			bestIdx, bestDist = i, d
		}
	}
	return s.Points[bestIdx].K
}

// At returns the sweep point for a given K, if present.
func (s *SweepResult) At(k int) (SweepPoint, bool) {
	for _, p := range s.Points {
		if p.K == k {
			return p, true
		}
	}
	return SweepPoint{}, false
}
