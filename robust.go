// Robustness surface of the schemex facade: cancellable entry points,
// resource budgets, typed limit errors, panic containment, and
// error-returning graph builders. A host process (the HTTP API, the CLI, or
// an embedding service) drives extraction through ExtractContext /
// SweepAnalysisContext with Options.Limits set, and every failure mode —
// cancellation, deadline, oversized input, internal invariant violation —
// surfaces as an error value instead of a crash or a runaway computation.
package schemex

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"schemex/internal/core"
	"schemex/internal/graph"
)

// Limits bounds the resources a load or an extraction may consume. Zero or
// negative fields mean "unlimited" (except MaxDepth, which falls back to a
// built-in recursion guard). Violations surface as *LimitError.
type Limits struct {
	// MaxBytes caps the raw input size accepted by the limited loaders
	// (ReadGraphLimits, ParseOEMLimits, ParseJSONLimits).
	MaxBytes int64
	// MaxObjects caps the number of objects, complex plus atomic. The
	// loaders enforce it while parsing; the pipeline re-checks it before
	// Stage 1.
	MaxObjects int
	// MaxLinks caps the number of link facts, enforced like MaxObjects.
	MaxLinks int
	// MaxDepth caps OEM/JSON nesting depth. Unset means the built-in
	// parser-recursion guard (graph.DefaultMaxDepth).
	MaxDepth int
	// MaxTypes caps the size of the Stage 1 perfect typing. Stage 2 is
	// quadratic in this count, so the cap bounds clustering memory/time.
	MaxTypes int
	// MaxWallTime caps the wall-clock time of an ExtractContext /
	// SweepAnalysisContext run; expiry returns a *LimitError wrapping
	// context.DeadlineExceeded.
	MaxWallTime time.Duration
}

// loader projects the caps the loaders enforce.
func (l Limits) loader() graph.Limits {
	return graph.Limits{
		MaxBytes:   l.MaxBytes,
		MaxObjects: l.MaxObjects,
		MaxLinks:   l.MaxLinks,
		MaxDepth:   l.MaxDepth,
	}
}

// pipeline projects the caps the extraction pipeline enforces.
func (l Limits) pipeline() core.Limits {
	return core.Limits{
		MaxObjects:  l.MaxObjects,
		MaxLinks:    l.MaxLinks,
		MaxTypes:    l.MaxTypes,
		MaxWallTime: l.MaxWallTime,
	}
}

// LimitError reports a violated resource budget: which resource ("bytes",
// "objects", "links", "depth", "types", "wall-time"), the configured cap,
// and the observed value. Match with errors.As(err, *(*LimitError)).
type LimitError = graph.LimitError

// InternalError wraps a panic recovered at the facade boundary: an internal
// invariant of the extraction machinery failed (or the Graph was built
// without NewGraph). The host process gets an error value instead of a
// crash; Stack carries the panicking goroutine's trace for bug reports.
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery time.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("schemex: internal error: %v", e.Value)
}

// recoverInternal converts a panic escaping the extraction machinery into an
// *InternalError assigned to the caller's named error return. Deferred at
// every facade entry point that runs the pipeline.
func recoverInternal(err *error) {
	if r := recover(); r != nil {
		*err = &InternalError{Value: r, Stack: debug.Stack()}
	}
}

// ExtractContext is Extract with cooperative cancellation and resource
// budgets: the pipeline stops at its next internal checkpoint once ctx is
// cancelled (returning ctx.Err()) or the Options.Limits budgets are violated
// (returning a *LimitError). Checkpoints only ever abort the whole run, so a
// completed extraction is bit-identical to Extract at any Parallelism.
func ExtractContext(ctx context.Context, g *Graph, opts Options) (res *Result, err error) {
	defer recoverInternal(&err)
	co, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	cr, err := core.ExtractContext(ctx, g.db, co)
	if err != nil {
		return nil, err
	}
	return &Result{res: cr}, nil
}

// SweepAnalysisContext computes the sensitivity curve of §7.2: it clusters
// from the perfect typing all the way down to one type, recasting and
// measuring the defect at each size. Cancellation and budgets follow the
// same contract as ExtractContext.
func SweepAnalysisContext(ctx context.Context, g *Graph, opts Options) (sw *Sweep, err error) {
	defer recoverInternal(&err)
	co, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	csw, err := core.Sweep(ctx, g.db, co)
	if err != nil {
		return nil, err
	}
	return toSweep(csw), nil
}

func toSweep(csw *core.SweepResult) *Sweep {
	out := &Sweep{Suggested: csw.Knee()}
	for _, p := range csw.Points {
		out.Points = append(out.Points, SweepPoint{
			K:             p.K,
			Defect:        p.Defect,
			Excess:        p.Excess,
			Deficit:       p.Deficit,
			TotalDistance: p.TotalDistance,
			Unclassified:  p.Unclassified,
		})
	}
	return out
}

// Prepared is a compiled, reusable extraction context for one graph: an
// immutable CSR snapshot of the data (interned labels, dense positions,
// label-sorted edge runs) shared by every extraction stage, plus a memo of the
// most recent Stage 1 typing. Prepare once with PrepareOptions and call
// ExtractPreparedContext / SweepPreparedContext many times — with different
// K, distance, or recast options — to skip the per-call compilation; results
// are bit-identical to ExtractContext / SweepAnalysisContext. A Prepared is
// safe for concurrent use, but the underlying graph must not be mutated
// while it is in use.
type Prepared struct {
	g    *Graph
	prep *core.Prepared
}

// PrepareOptions compiles g into a reusable extraction context, with
// cooperative cancellation, honoring the one preparation-relevant option:
// Parallelism (compile workers), a resource knob only — extraction results
// are bit-identical at any setting.
func PrepareOptions(ctx context.Context, g *Graph, opts Options) (p *Prepared, err error) {
	defer recoverInternal(&err)
	cp, err := core.Prepare(ctx, g.db, opts.Parallelism, 0)
	if err != nil {
		return nil, err
	}
	return &Prepared{g: g, prep: cp}, nil
}

// Graph returns the graph the context was prepared from.
func (p *Prepared) Graph() *Graph { return p.g }

// ExtractPreparedContext is ExtractContext over a prepared context: the
// snapshot compilation is skipped, and when the Stage-1-relevant options
// repeat (sorts, value labels) the minimal perfect typing is reused as well.
// The result is bit-identical to Extract on the same graph; cancellation and
// budgets follow the same contract as ExtractContext.
func ExtractPreparedContext(ctx context.Context, p *Prepared, opts Options) (res *Result, err error) {
	defer recoverInternal(&err)
	co, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	cr, err := core.ExtractPrepared(ctx, p.prep, co)
	if err != nil {
		return nil, err
	}
	return &Result{res: cr}, nil
}

// SweepPreparedContext is SweepAnalysisContext over a prepared context, with
// the same reuse guarantees as ExtractPreparedContext.
func SweepPreparedContext(ctx context.Context, p *Prepared, opts Options) (sw *Sweep, err error) {
	defer recoverInternal(&err)
	co, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	csw, err := core.SweepPrepared(ctx, p.prep, co)
	if err != nil {
		return nil, err
	}
	return toSweep(csw), nil
}

// ReadGraphLimits is ReadGraph with resource budgets: loading fails with a
// *LimitError as soon as the input exceeds the byte, object, or link caps.
func ReadGraphLimits(r io.Reader, lim Limits) (*Graph, error) {
	db, err := graph.ReadLimits(r, lim.loader())
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// ParseOEMLimits is ParseOEM with resource budgets (byte, object, link, and
// nesting-depth caps).
func ParseOEMLimits(r io.Reader, lim Limits) (*Graph, error) {
	db, err := graph.ParseOEMLimits(r, lim.loader())
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// ParseJSONLimits is ParseJSON with resource budgets (byte, object, link,
// and nesting-depth caps).
func ParseJSONLimits(r io.Reader, rootName string, lim Limits) (*Graph, error) {
	db, _, err := graph.FromJSONLimits(r, rootName, lim.loader())
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// TryLink is Link returning the constraint violation as an error instead of
// panicking: linking out of an atomic object is the one reachable violation.
func (g *Graph) TryLink(from, to, label string) error {
	return g.db.AddLink(g.db.Intern(from), g.db.Intern(to), label)
}

// TryAtom is Atom returning the constraint violation as an error instead of
// panicking: redeclaring an atom with a different value, or declaring an
// object with outgoing edges atomic.
func (g *Graph) TryAtom(name, value string) error {
	return g.db.SetAtomic(g.db.Intern(name), graph.Value{Sort: graph.SortString, Text: value})
}

// TryLinkAtom is LinkAtom returning constraint violations as errors instead
// of panicking. Like LinkAtom it names the fresh atomic object
// from+"."+label and infers the value's sort from its text.
func (g *Graph) TryLinkAtom(from, label, value string) error {
	name := from + "." + label
	id := g.db.Intern(name)
	if err := g.db.SetAtomic(id, graph.Value{Sort: graph.InferSort(value), Text: value}); err != nil {
		return err
	}
	return g.db.AddLink(g.db.Intern(from), id, label)
}
