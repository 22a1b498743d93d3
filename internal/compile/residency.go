// Residency manager: a byte-budgeted LRU of resident shards behind the
// Snapshot.Out/In accessor seam. With a memory budget attached, a
// snapshot's shards live behind shardRefs — shared, immutable-content
// handles that a parent and every delta-derived child alias — and the
// manager spills the least recently used unpinned shard to its write-once
// file whenever resident bytes exceed the budget. An accessor touching a
// non-resident shard faults it back in from the file, checksum-verified.
//
// Invariants:
//   - A shard's file is written exactly once, when a budgeted manager
//     creates the ref (res.add), or comes from a serving-layer spill
//     (res.adopt). Shards are immutable, so the file is never stale and
//     eviction is a pointer drop, never a write. A manager without a budget
//     never evicts, so it writes no file: its refs only fault adopted
//     shards in.
//   - A ref is in the LRU iff the manager has a budget and the shard is
//     resident and unpinned; only LRU members are ever evicted. Pinned
//     shards can therefore overcommit the budget: pins win, the budget is a
//     target, not a hard cap.
//   - Readers holding a *Shard (or slices into one) stay valid across
//     eviction — the GC keeps the arrays alive for exactly as long as
//     anyone uses them. Pinning is an anti-thrash measure for phases that
//     re-enter a shard many times (a GFP propagation round, a dirty-shard
//     rebuild), not a correctness requirement.
//   - Lock order: ref.mu (per-shard fault serialization) before res.mu
//     (LRU bookkeeping). Eviction takes only res.mu and flips the resident
//     pointer atomically, so it never waits on a fault in progress.
//     Residency locks are leaves: nothing is called under them, so callers
//     holding their own locks can fault freely.
//
// A fault that cannot read its shard file panics; the facade's panic
// containment converts that into an *InternalError, the same contract as
// any other broken invariant behind the error-free accessors. Faults inside
// par workers reach that containment because par re-raises worker panics
// on the calling goroutine.
package compile

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"schemex/internal/bitset"
)

// TestMemBudgetEnv, when set to a positive integer (bytes), applies that
// memory budget to every snapshot whose caller did not set one explicitly —
// the residency analogue of TestShardsEnv, letting CI drive the whole test
// suite through constant shard faulting without threading an option into
// every call site. Explicit budgets win.
const TestMemBudgetEnv = "SCHEMEX_TEST_MEM_BUDGET"

// memBudgetFor resolves the effective memory budget: an explicit positive
// budget wins, otherwise the TestMemBudgetEnv override applies, otherwise
// zero (fully resident snapshots, no residency manager).
func memBudgetFor(budget int64) int64 {
	if budget > 0 {
		return budget
	}
	if v, err := strconv.ParseInt(os.Getenv(TestMemBudgetEnv), 10, 64); err == nil && v > 0 {
		return v
	}
	return 0
}

// Process-wide residency counters, aggregated across every manager (serving
// processes hold one per session lineage). Exposed through ResidencyStats
// for /v1/metrics and the CLI's -v reporting.
var (
	statShardFaults atomic.Uint64
	statShardEvicts atomic.Uint64
	statShardPins   atomic.Uint64
)

// ResidencyStatsSnapshot is a point-in-time copy of the process-wide shard
// residency counters.
type ResidencyStatsSnapshot struct {
	// Faults counts shards decoded back in from their spill files.
	Faults uint64
	// Evictions counts resident shards dropped to meet a budget.
	Evictions uint64
	// Pins counts pin acquisitions (GFP phases, dirty-shard rebuilds).
	Pins uint64
}

// ResidencyStats returns the process-wide shard fault/evict/pin counters.
func ResidencyStats() ResidencyStatsSnapshot {
	return ResidencyStatsSnapshot{
		Faults:    statShardFaults.Load(),
		Evictions: statShardEvicts.Load(),
		Pins:      statShardPins.Load(),
	}
}

// shardMeta is the part of a shard the snapshot must answer questions about
// without faulting the shard in: its position range (Apply's offset
// chaining) and edge counts (nLinks, size accounting).
type shardMeta struct {
	posBase, posN int
	nOut, nIn     int
}

// Residency owns the resident-shard budget of one snapshot lineage (a root
// Prepare and every child derived through Apply share the manager, so the
// budget bounds the lineage's live CSR bytes, not each snapshot's). Spill
// files for shards a budgeted manager creates live in a private temp
// directory removed once the lineage is garbage collected; adopted files (a
// serving layer's durable shard spill) are read-only and never deleted here.
type Residency struct {
	budget int64     // <= 0: unlimited (lazy loading without eviction)
	dir    *spillDir // nil without a budget: nothing is ever spilled

	mu   sync.Mutex
	used int64
	seq  int
	lru  *list.List // of *shardRef; front = most recently used
}

// spillDir is a budgeted manager's private temp directory. It carries the
// finalizer that removes the directory, and it stays outside the cycle the
// manager forms with its refs (Residency → lru → shardRef → Residency):
// Go never runs a finalizer on an object that can reach itself, so a
// finalizer on the manager would never run.
type spillDir struct{ path string }

// newResidency creates a manager. budget <= 0 means unlimited: shards still
// load lazily through refs (LoadSnapshot needs that), but nothing is ever
// evicted or spilled, so no spill directory is made.
func newResidency(budget int64) (*Residency, error) {
	r := &Residency{budget: budget, lru: list.New()}
	if budget <= 0 {
		return r, nil
	}
	path, err := os.MkdirTemp("", "schemex-shards-")
	if err != nil {
		return nil, fmt.Errorf("compile: residency spill dir: %w", err)
	}
	// The snapshot lineage reaches the directory for as long as any snapshot
	// lives; once the last one is collected the spill files are garbage.
	r.dir = &spillDir{path: path}
	runtime.SetFinalizer(r.dir, func(d *spillDir) { os.RemoveAll(d.path) })
	return r, nil
}

// shardRef is the shared handle of one spillable shard. Parent and child
// snapshots whose shard si is untouched alias the same ref, so one resident
// copy (or one file) serves the whole lineage. The shard's global-table
// views are value-equal for every sharer — an untouched shard's slice of
// Pos/Sorts/Complex is identical across the Applys that shared it — which
// is why a faulted shard (owned arrays, see DecodeShard) needs no rebinding
// per snapshot.
type shardRef struct {
	res  *Residency
	file string
	size int64 // written and read under res.mu once the ref is published
	meta shardMeta

	mu   sync.Mutex // serializes fault decode for this ref
	pins int
	elem *list.Element // non-nil iff in res.lru (resident && unpinned)
	ptr  atomic.Pointer[Shard]
	hits atomic.Uint32 // fast-path accesses since creation, drives LRU touches
}

// shardSize estimates a shard's resident bytes (array payloads; headers are
// noise at any realistic shard size).
func shardSize(sh *Shard) int64 {
	return int64(4*(len(sh.OutOff)+len(sh.InOff)+len(sh.OutTo)+len(sh.OutLab)+
		len(sh.InFrom)+len(sh.InLab)+len(sh.Pos)+len(sh.Complex)) + len(sh.Sorts))
}

// add registers a freshly built shard resident. Under a budget its spill
// file is written through the codec immediately (write-once; eviction never
// writes) and the shard enters the LRU; without one the shard can never be
// evicted, so it gets neither. Compile attaches every shard this way at the
// end of its fill, and Apply attaches each rebuilt dirty shard.
func (r *Residency) add(sh *Shard) (*shardRef, error) {
	ref := &shardRef{
		res: r, size: shardSize(sh),
		meta: shardMeta{posBase: sh.PosBase, posN: sh.PosN, nOut: len(sh.OutTo), nIn: len(sh.InFrom)},
	}
	if r.budget > 0 {
		r.mu.Lock()
		r.seq++
		ref.file = filepath.Join(r.dir.path, fmt.Sprintf("s%d.shard", r.seq))
		r.mu.Unlock()
		if err := os.WriteFile(ref.file, EncodeShard(sh), 0o644); err != nil {
			return nil, fmt.Errorf("compile: spilling shard: %w", err)
		}
	}
	r.mu.Lock()
	ref.ptr.Store(sh)
	r.used += ref.size
	if r.budget > 0 {
		ref.elem = r.lru.PushFront(ref)
	}
	r.evictLocked()
	r.mu.Unlock()
	return ref, nil
}

// adopt registers an existing shard file (a serving layer's durable spill)
// as a non-resident ref: nothing is read until the first fault. The file is
// not owned — the serving layer controls its lifetime and must keep it
// until the lineage is dropped. size stays zero until the first fault
// measures the decoded shard (fault stores shardSize before any budget
// accounting touches the ref), so adopted refs never charge the budget with
// an estimate — don't use size for admission decisions before a fault.
func (r *Residency) adopt(file string, meta shardMeta) *shardRef {
	return &shardRef{res: r, file: file, meta: meta}
}

// evictLocked drops LRU-tail shards until resident bytes fit the budget.
// Caller holds r.mu.
func (r *Residency) evictLocked() {
	for r.budget > 0 && r.used > r.budget {
		back := r.lru.Back()
		if back == nil {
			return // everything resident is pinned: pins win
		}
		ref := back.Value.(*shardRef)
		r.lru.Remove(back)
		ref.elem = nil
		ref.ptr.Store(nil)
		r.used -= ref.size
		statShardEvicts.Add(1)
	}
}

// lruTouchPeriod bounds how stale a resident shard's LRU recency can get:
// get's lock-free fast path promotes the ref to the LRU front every Nth hit
// rather than on every hit, keeping recency meaningful for hot shards
// without paying a lock per access.
const lruTouchPeriod = 64

// get returns the shard, faulting it in from its file if non-resident. The
// resident fast path is one atomic load plus a counter increment; every
// lruTouchPeriod-th hit additionally refreshes the ref's LRU position so
// eviction order tracks real access recency, not just fault order.
func (ref *shardRef) get() *Shard {
	if sh := ref.ptr.Load(); sh != nil {
		if ref.hits.Add(1)%lruTouchPeriod == 0 {
			ref.touch()
		}
		return sh
	}
	return ref.fault(false)
}

// touch refreshes the ref's LRU recency; a no-op if the shard was evicted
// or pinned in the meantime (elem is nil in both cases).
func (ref *shardRef) touch() {
	r := ref.res
	r.mu.Lock()
	if ref.elem != nil {
		r.lru.MoveToFront(ref.elem)
	}
	r.mu.Unlock()
}

// fault decodes the shard from its spill file and re-registers it resident.
// pin additionally takes a pin before releasing the bookkeeping lock, so
// the caller's pinned shard cannot be evicted in between.
//
// The body is a loop, never a recursive call: ref.mu is held for the whole
// fault and sync.Mutex is not reentrant, so re-entering fault would
// self-deadlock. When eviction races the optimistic resident check (the
// shard is dropped between the ptr load and res.mu), the loop falls through
// to the decode branch on the next iteration — and since ref.mu serializes
// faults, nobody else can flip the shard back to resident in between.
func (ref *shardRef) fault(pin bool) *Shard {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	r := ref.res
	for {
		if sh := ref.ptr.Load(); sh != nil {
			r.mu.Lock()
			sh = ref.ptr.Load()
			if sh != nil { // still resident: touch / pin
				if pin {
					ref.pinLocked()
				} else if ref.elem != nil {
					r.lru.MoveToFront(ref.elem)
				}
			}
			r.mu.Unlock()
			if sh != nil {
				return sh
			}
			continue // evicted between the load and the lock: decode
		}
		data, err := os.ReadFile(ref.file)
		var sh *Shard
		if err == nil {
			sh, err = DecodeShard(data)
		}
		if err != nil {
			// The accessors have no error path; the facade's panic
			// containment turns this into an *InternalError.
			panic(fmt.Errorf("compile: faulting shard: %w", err))
		}
		statShardFaults.Add(1)
		// The true decoded size replaces any pre-fault placeholder so the
		// budget accounts real bytes. It is assigned under r.mu, where
		// evictLocked reads it: an eviction of this same ref may still be
		// reading the old size after dropping the pointer.
		size := shardSize(sh)
		r.mu.Lock()
		ref.size = size
		ref.ptr.Store(sh)
		r.used += ref.size
		if ref.pins == 0 && r.budget > 0 {
			ref.elem = r.lru.PushFront(ref)
		}
		if pin {
			ref.pinLocked()
		}
		r.evictLocked()
		r.mu.Unlock()
		return sh
	}
}

// pin faults the shard in if needed and holds it resident until the
// returned release runs. Pins nest.
func (ref *shardRef) pin() (*Shard, func()) {
	sh := ref.fault(true)
	return sh, ref.unpin
}

// pinLocked takes one pin; caller holds res.mu and the ref is resident.
func (ref *shardRef) pinLocked() {
	ref.pins++
	statShardPins.Add(1)
	if ref.elem != nil {
		ref.res.lru.Remove(ref.elem)
		ref.elem = nil
	}
}

func (ref *shardRef) unpin() {
	r := ref.res
	r.mu.Lock()
	ref.pins--
	if ref.pins == 0 && r.budget > 0 && ref.ptr.Load() != nil && ref.elem == nil {
		ref.elem = r.lru.PushFront(ref)
		r.evictLocked()
	}
	r.mu.Unlock()
}

// attach moves a fully built snapshot's shards behind residency refs: under
// a budget every shard's spill file is written through the codec and the
// resident copies become evictable. Until attach runs the shards are plain
// resident — the compile fill span and Apply's rebuilds operate on
// pinned-equivalent state by construction.
func (s *Snapshot) attach(res *Residency) error {
	if s.refs == nil {
		s.refs = make([]*shardRef, len(s.shards))
	}
	for si, sh := range s.shards {
		if sh == nil {
			continue // already behind a ref (shared from the parent)
		}
		ref, err := res.add(sh)
		if err != nil {
			return err
		}
		s.refs[si] = ref
		s.shards[si] = nil
	}
	s.res = res
	return nil
}

// shard returns shard si, faulting it in when the snapshot is budgeted and
// the shard is not resident.
func (s *Snapshot) shard(si int) *Shard {
	if sh := s.shards[si]; sh != nil {
		return sh
	}
	return s.refs[si].get()
}

// shardMeta answers position-range and edge-count questions about shard si
// without faulting it in.
func (s *Snapshot) shardMeta(si int) shardMeta {
	if sh := s.shards[si]; sh != nil {
		return shardMeta{posBase: sh.PosBase, posN: sh.PosN, nOut: len(sh.OutTo), nIn: len(sh.InFrom)}
	}
	return s.refs[si].meta
}

// PinShards faults every shard in and holds the whole snapshot resident
// until the returned release runs. The shard-parallel GFP propagation wraps
// each run in a pin so no frontier-exchange phase faults mid-round; with a
// budget smaller than the snapshot this deliberately overcommits (pins
// win). A no-op without a residency manager.
func (s *Snapshot) PinShards() (release func()) {
	if s.res == nil {
		return func() {}
	}
	unpins := make([]func(), 0, len(s.refs))
	for si, ref := range s.refs {
		if ref == nil {
			continue // still plain resident (pre-attach)
		}
		_, unpin := ref.pin()
		unpins = append(unpins, unpin)
		_ = si
	}
	return func() {
		for _, u := range unpins {
			u()
		}
	}
}

// MemBudget reports the lineage's resident-shard byte budget (0 when the
// snapshot is fully resident with no residency manager attached).
func (s *Snapshot) MemBudget() int64 {
	if s.res == nil {
		return 0
	}
	if s.res.budget < 0 {
		return 0
	}
	return s.res.budget
}

// bitsetFromPos rebuilds the atomic bitset from the position table:
// Pos[o] == -1 exactly for atomic objects.
func bitsetFromPos(pos []int32) *bitset.Set {
	b := bitset.New(len(pos))
	for i, p := range pos {
		if p < 0 {
			b.Set(i)
		}
	}
	return b
}
