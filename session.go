// Delta sessions: the facade surface for extraction over evolving data. A
// Delta batches edits to a graph; applying one to a Prepared yields a new
// Prepared for the mutated data that shares everything the edits did not
// touch with its parent — the compiled snapshot's CSR shards, the graph's
// edge slices, and (through a warm-started Stage 1 fixpoint)
// most of the minimal perfect typing work. Parent sessions stay fully
// usable: applying never mutates, it branches.
package schemex

import (
	"context"
	"io"

	"schemex/internal/compile"
	"schemex/internal/core"
	"schemex/internal/graph"
)

// Delta is an ordered batch of graph edits, addressed by object name so new
// objects can be introduced alongside references to existing ones. Build one
// with the fluent methods or parse the line format with ParseDelta, then
// hand it to Prepared.ApplyContext. A Delta is independent of any particular
// graph until applied and may be applied to several.
type Delta struct {
	d graph.Delta
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return &Delta{} }

// Link records adding the fact link(from, to, label). Unknown names are
// created as complex objects at apply time.
func (d *Delta) Link(from, to, label string) *Delta {
	d.d.AddLink(from, to, label)
	return d
}

// Unlink records removing link(from, to, label). Applying a delta that
// removes a missing link is an error.
func (d *Delta) Unlink(from, to, label string) *Delta {
	d.d.RemoveLink(from, to, label)
	return d
}

// Atom records declaring name as an atomic object holding value (sort
// inferred from the text, as TryLinkAtom does). Applying fails if the object
// has outgoing edges or a different value.
func (d *Delta) Atom(name, value string) *Delta {
	d.d.AddAtomic(name, graph.Value{Sort: graph.InferSort(value), Text: value})
	return d
}

// Remove records detaching the named object: all incident links and any
// atomic value are removed; the object survives as an isolated complex
// object (object identities are never reclaimed).
func (d *Delta) Remove(name string) *Delta {
	d.d.RemoveObject(name)
	return d
}

// Len reports the number of recorded edits.
func (d *Delta) Len() int { return d.d.Len() }

// String renders the delta in the line format ParseDelta reads.
func (d *Delta) String() string { return d.d.String() }

// ParseDelta reads the line-oriented delta format:
//
//	link <from> <to> <label>
//	unlink <from> <to> <label>
//	atomic <obj> <sort> <value>
//	remove <obj>
//
// Fields follow the graph text format's quoting rules; # starts a comment.
func ParseDelta(r io.Reader) (*Delta, error) {
	gd, err := graph.ParseDelta(r)
	if err != nil {
		return nil, err
	}
	return &Delta{d: *gd}, nil
}

// MergeDeltas concatenates deltas into one, preserving edit order. Applying
// the merged delta is equivalent to applying the originals in sequence,
// except that a failing edit aborts the whole merged application where
// sequential application would keep the effects of the preceding deltas.
func MergeDeltas(ds ...*Delta) *Delta {
	gds := make([]*graph.Delta, len(ds))
	for i, d := range ds {
		if d != nil {
			gds[i] = &d.d
		}
	}
	return &Delta{d: *graph.MergeDeltas(gds...)}
}

// ApplyInfo reports how a delta session was derived.
type ApplyInfo struct {
	// Incremental reports that the compiled snapshot was rebuilt with
	// structural sharing. False means the delta changed the label universe
	// or flipped an object between atomic and complex, forcing a full
	// recompile of the mutated graph — results are identical either way.
	Incremental bool
	// TouchedObjects counts the objects whose incident edges or atomic
	// value changed (including created objects); NewObjects counts the
	// created ones.
	TouchedObjects int
	NewObjects     int
}

// ApplyContext produces the session for p's graph with d applied, with
// cooperative cancellation. p itself, its graph, and every result extracted
// from it remain valid and unchanged; the child shares all untouched
// structure with p and warm-starts its Stage 1 typing from p's, so
// extracting after a small delta costs work proportional to the delta's
// neighborhood. Extractions from the child are bit-identical to loading the
// mutated graph from scratch.
func (p *Prepared) ApplyContext(ctx context.Context, d *Delta) (np *Prepared, info *ApplyInfo, err error) {
	defer recoverInternal(&err)
	cp, ci, err := p.prep.Apply(ctx, &d.d, 0)
	if err != nil {
		return nil, nil, err
	}
	return &Prepared{g: &Graph{db: cp.DB()}, prep: cp}, &ApplyInfo{
		Incremental:    ci.Shared,
		TouchedObjects: len(ci.Touched),
		NewObjects:     ci.NewObjects,
	}, nil
}

// ApplyBatchContext applies a burst of deltas as one pipeline pass, with
// cooperative cancellation: the batch is merged (and, where provably
// equivalent, coalesced — cancelling link/unlink pairs and Remove-subsumed
// edits dropped) into a single delta, compiled with one incremental apply,
// and the child's Version advances by len(ds) so the result is
// indistinguishable from sequential ApplyContext calls — bit-identical state
// at a fraction of the cost. If any delta in the batch would fail, the whole
// batch fails and p is unchanged; callers that need to know which delta
// failed fall back to applying them one at a time.
func (p *Prepared) ApplyBatchContext(ctx context.Context, ds ...*Delta) (np *Prepared, info *ApplyInfo, err error) {
	defer recoverInternal(&err)
	gds := make([]*graph.Delta, 0, len(ds))
	for _, d := range ds {
		if d != nil {
			gds = append(gds, &d.d)
		}
	}
	cp, ci, err := p.prep.ApplyBatch(ctx, gds, 0)
	if err != nil {
		return nil, nil, err
	}
	return &Prepared{g: &Graph{db: cp.DB()}, prep: cp}, &ApplyInfo{
		Incremental:    ci.Shared,
		TouchedObjects: len(ci.Touched),
		NewObjects:     ci.NewObjects,
	}, nil
}

// Version counts the deltas applied since the session's root PrepareOptions:
// 0 for a freshly prepared context, parent+1 for each applied delta.
func (p *Prepared) Version() uint64 { return p.prep.Version() }

// NumShards reports how many fixed-range object shards the session's
// compiled snapshot is partitioned into (about 8192 objects per shard, so
// small graphs stay single-shard). Sessions derived through ApplyContext
// inherit the layout.
func (p *Prepared) NumShards() int { return p.prep.NumShards() }

// SetBaseVersion rebases the session version counter, the hook durable
// recovery uses: a snapshot spilled at version V is re-prepared (version 0),
// rebased to V, and the write-ahead log's suffix is replayed on top so the
// rehydrated session reports the same version the crashed process
// acknowledged. Call it only on a freshly prepared, unshared context.
func (p *Prepared) SetBaseVersion(v uint64) { p.prep.SetBaseVersion(v) }

// IncrStats is a point-in-time snapshot of the incremental-versus-fallback
// counters of a session lineage: how many extractions warm-started each stage
// versus recomputing it, and how many replayed a whole retained result.
type IncrStats struct {
	Stage2Warm, Stage2Full uint64
	Stage3Warm, Stage3Full uint64
	FastPath               uint64
	// Batches / BatchedDeltas count ApplyBatchContext passes and the deltas
	// they covered; CoalescedOps counts edits dropped by coalescing before
	// compilation.
	Batches, BatchedDeltas uint64
	CoalescedOps           uint64
}

// IncrStats reports the incremental-extraction counters accumulated across
// this session's whole lineage (the root PrepareOptions and every session
// derived from it through ApplyContext share one set).
func (p *Prepared) IncrStats() IncrStats {
	s := p.prep.Stats()
	return IncrStats{
		Stage2Warm: s.Stage2Warm, Stage2Full: s.Stage2Full,
		Stage3Warm: s.Stage3Warm, Stage3Full: s.Stage3Full,
		FastPath: s.FastPath,
		Batches:  s.Batches, BatchedDeltas: s.BatchedDeltas,
		CoalescedOps: s.CoalescedOps,
	}
}

// EncodeSnapshotCore serializes the session's compiled snapshot minus its
// shard CSR blocks — label universe, position table, shard geometry — in a
// versioned checksummed format. Together with one
// EncodeShard blob per shard it is a complete shard-granular spill of the
// snapshot; PrepareSpilled reads it back.
func (p *Prepared) EncodeSnapshotCore() []byte { return p.prep.EncodeSnapshotCore() }

// EncodeShard serializes shard si of the session's compiled snapshot in the
// versioned checksummed shard format.
func (p *Prepared) EncodeShard(si int) []byte { return p.prep.EncodeShard(si) }

// PrepareSpilled reconstructs a session from a shard-granular spill: the
// EncodeSnapshotCore blob and one file per shard holding that shard's
// EncodeShard bytes, in shard order. Every shard file is read and checked
// against the core before PrepareSpilled returns, so a missing, damaged or
// mismatched file is an error here and the session it returns reads no file
// again. g must hold the same graph the spilled snapshot was compiled from;
// no field of opts applies.
func PrepareSpilled(ctx context.Context, g *Graph, snapCore []byte, shardFiles []string, opts Options) (p *Prepared, err error) {
	defer recoverInternal(&err)
	cp, err := core.PrepareSpilled(ctx, g.db, snapCore, shardFiles)
	if err != nil {
		return nil, err
	}
	return &Prepared{g: g, prep: cp}, nil
}

// ShardsLoaded reports how many shard files PrepareSpilled has read and
// accepted in this process.
func ShardsLoaded() uint64 { return compile.ShardsLoaded() }
