// Package schemex extracts schema from semistructured data, implementing
// Nestorov, Abiteboul and Motwani, "Extracting Schema from Semistructured
// Data" (SIGMOD 1998).
//
// Data is a labeled directed graph of objects (the link/atomic model); a
// schema is a monadic datalog typing program evaluated under greatest-
// fixpoint semantics. Extraction runs in three stages: the minimal perfect
// typing (one defect-free class per distinct recursive object shape), greedy
// clustering of similar types down to a target count, and recasting of the
// objects within the reduced types with a defect (excess + deficit)
// accounting.
//
// Quick start:
//
//	g := schemex.NewGraph()
//	g.Link("gates", "microsoft", "is-manager-of")
//	g.LinkAtom("gates", "name", "Gates")
//	g.LinkAtom("microsoft", "name", "Microsoft")
//	res, err := schemex.Extract(g, schemex.Options{})
//	fmt.Print(res.Schema())
//
// The subpackages under internal implement the substrates (graph store,
// datalog engine, fixpoint evaluators, clustering, defect measures,
// generators); this package is the stable surface.
package schemex

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"schemex/internal/cluster"
	"schemex/internal/compile"
	"schemex/internal/core"
	"schemex/internal/defect"
	"schemex/internal/graph"
	"schemex/internal/query"
	"schemex/internal/recast"
	"schemex/internal/typing"
)

// Graph is a semistructured database: a labeled directed graph over complex
// and atomic objects. Use NewGraph, then Link/Atom/LinkAtom, or load one
// with ReadGraph/ParseOEM.
type Graph struct {
	db *graph.DB
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{db: graph.New()} }

// ReadGraph loads the line-oriented text format ("link from to label" /
// "atomic obj sort value").
func ReadGraph(r io.Reader) (*Graph, error) {
	db, err := graph.Read(r)
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// ParseOEM loads an OEM-style nested-object document (see internal/graph's
// oem syntax: objects in braces, &name definitions, *name references).
func ParseOEM(r io.Reader) (*Graph, error) {
	db, err := graph.ParseOEM(r)
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// ParseOEMString is ParseOEM over a string.
func ParseOEMString(src string) (*Graph, error) {
	db, err := graph.ParseOEMString(src)
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// ParseJSON loads a JSON document into a fresh graph: objects become
// complex objects, members become labeled edges, arrays become repeated
// edges, scalars become sorted atomic values, and nulls are skipped (an
// absent optional attribute). rootName names the document root.
func ParseJSON(r io.Reader, rootName string) (*Graph, error) {
	db, _, err := graph.FromJSON(r, rootName)
	if err != nil {
		return nil, err
	}
	return &Graph{db: db}, nil
}

// AddJSON loads another JSON document into an existing graph (distinct
// root names required) and returns the root object's name.
func (g *Graph) AddJSON(r io.Reader, rootName string) (string, error) {
	id, err := g.db.FromJSON(r, rootName)
	if err != nil {
		return "", err
	}
	return g.db.Name(id), nil
}

// Link records an edge labeled label from object from to object to,
// creating the objects as needed. It panics if from is atomic.
func (g *Graph) Link(from, to, label string) { g.db.Link(from, to, label) }

// Atom declares an atomic object with a value. It panics if the object has
// outgoing edges or a conflicting value.
func (g *Graph) Atom(name, value string) { g.db.Atom(name, value) }

// LinkAtom attaches a fresh atomic attribute to from: it creates an atomic
// object named from+"."+label holding value and links it under label. The
// value's sort (string, int, float, bool) is inferred from its text. For
// several attributes with the same label on one object, use Atom+Link with
// distinct names.
func (g *Graph) LinkAtom(from, label, value string) {
	name := from + "." + label
	id := g.db.Intern(name)
	if err := g.db.SetAtomic(id, graph.Value{Sort: graph.InferSort(value), Text: value}); err != nil {
		panic(err)
	}
	g.db.Link(from, name, label)
}

// Write serializes the graph in the text format.
func (g *Graph) Write(w io.Writer) error { return g.db.Write(w) }

// WriteOEM serializes the graph as an OEM document (complex objects as
// named bindings, atomic values inlined). Complex structure and attribute
// values round-trip; atomic-object identity does not (the OEM syntax cannot
// name atomic objects) — use Write for lossless serialization.
func (g *Graph) WriteOEM(w io.Writer) error { return g.db.WriteOEM(w) }

// Stats summarizes the graph.
func (g *Graph) Stats() string { return g.db.Stats().String() }

// NumObjects returns the number of objects (complex + atomic).
func (g *Graph) NumObjects() int { return g.db.NumObjects() }

// NumLinks returns the number of link facts.
func (g *Graph) NumLinks() int { return g.db.NumLinks() }

// IsBipartite reports whether every edge points at an atomic object
// (relational or record-file data).
func (g *Graph) IsBipartite() bool { return g.db.IsBipartite() }

// DB exposes the underlying database for use with the internal packages
// (cmd tools, benchmarks). External users normally do not need it.
func (g *Graph) DB() *graph.DB { return g.db }

// Options configure extraction.
type Options struct {
	// K is the target number of types. K <= 0 chooses automatically from
	// the defect/size trade-off curve (the paper's sensitivity analysis).
	K int
	// Delta names the Stage 2 weighted distance function: "delta1" ...
	// "delta5" or "weighted-manhattan" (= delta2, the default, used in the
	// paper's experiments).
	Delta string
	// AllowEmpty lets clustering leave groups of objects unclassified (the
	// empty set type) when they fit nowhere cheaply.
	AllowEmpty bool
	// MultiRole decomposes conjunction types into simpler covering types
	// before clustering, giving objects multiple roles (§4.2).
	MultiRole bool
	// KeepHome assigns each object the cluster of its Stage 1 home type
	// during recasting even if some required links are missing (they are
	// counted as deficit). Defaults to true; set SkipHome to disable.
	SkipHome bool
	// MaxDistance leaves an object unclassified when its closest type is
	// farther than this Manhattan distance (negative or zero: no cutoff).
	MaxDistance int
	// UseSorts distinguishes atomic targets by value sort — ->age[0:int]
	// instead of ->age[0] — the Remark 2.1 extension. Objects whose
	// attribute values have different sorts then fall into different types.
	UseSorts bool
	// SeedSchema supplies a-priori known types in arrow notation (the §2
	// extension for integrating data with a known structure). Seed types
	// are pinned: clustering can merge discovered types into them but they
	// always survive into the final schema.
	SeedSchema string
	// ValueLabels lists labels whose atomic values participate in typing —
	// the paper's future-work value predicates. With ValueLabels: ["sex"],
	// objects whose sex value is "Male" and objects whose sex value is
	// "Female" fall into different types (->sex[0="Male"]).
	ValueLabels []string
	// Parallelism bounds the worker goroutines used inside each extraction
	// stage. <= 0 (the default) uses one worker per CPU; 1 runs the exact
	// serial code paths. The extracted schema, assignment, and defect are
	// bit-identical at any setting, so this is purely a resource knob.
	Parallelism int
	// Limits bounds the resources an extraction may consume (object/link/
	// type counts and wall-clock time; the loader-side caps apply to the
	// *Limits loader functions). Violations surface as *LimitError.
	Limits Limits
}

func (o Options) toCore() (core.Options, error) {
	co := core.Options{
		K:           o.K,
		AllowEmpty:  o.AllowEmpty,
		MultiRole:   o.MultiRole,
		UseSorts:    o.UseSorts,
		ValueLabels: o.ValueLabels,
		Parallelism: o.Parallelism,
		Limits:      o.Limits.pipeline(),
	}
	if o.Delta != "" {
		d, ok := cluster.DeltaByName(o.Delta)
		if !ok {
			return co, fmt.Errorf("schemex: unknown distance function %q", o.Delta)
		}
		co.Delta = d
	}
	if o.SeedSchema != "" {
		seed, err := typing.Parse(o.SeedSchema)
		if err != nil {
			return co, fmt.Errorf("schemex: seed schema: %v", err)
		}
		co.Seed = seed
	}
	rc := recast.DefaultOptions()
	rc.KeepHome = !o.SkipHome
	if o.MaxDistance > 0 {
		rc.MaxDistance = o.MaxDistance
	}
	co.Recast = &rc
	return co, nil
}

// TypeInfo describes one extracted type.
type TypeInfo struct {
	Name string
	// Definition is the type's rule in arrow notation, e.g.
	// "type person = <-employs[firm] & ->name[0]".
	Definition string
	// Weight is the number of objects whose home the type is.
	Weight int
	// Size is the number of typed links in the definition.
	Size int
}

// Result is the outcome of Extract.
type Result struct {
	res *core.Result
}

// PerfectTypes returns the number of types in the minimal perfect typing
// (Stage 1) — the defect-free but typically large schema.
func (r *Result) PerfectTypes() int { return r.res.PerfectTypes }

// NumTypes returns the number of types in the final approximate typing.
func (r *Result) NumTypes() int { return r.res.Program.Len() }

// Schema returns the final typing program in arrow notation (parsable by
// ParseSchema).
func (r *Result) Schema() string { return r.res.Program.String() }

// PerfectSchema returns the Stage 1 minimal perfect typing program.
func (r *Result) PerfectSchema() string { return r.res.Stage1.Program.String() }

// Datalog returns the final typing program as monadic datalog rules over
// link/3 and atomic/2.
func (r *Result) Datalog() string {
	return typing.CompileDatalog(r.res.Program).String()
}

// Types lists the final types.
func (r *Result) Types() []TypeInfo {
	out := make([]TypeInfo, 0, r.res.Program.Len())
	for i, t := range r.res.Program.Types {
		out = append(out, TypeInfo{
			Name:       t.Name,
			Definition: r.res.Program.TypeString(i),
			Weight:     t.Weight,
			Size:       len(t.Links),
		})
	}
	return out
}

// Defect returns the total defect (excess + deficit) of the recast
// assignment.
func (r *Result) Defect() int { return r.res.Defect.Total() }

// Excess returns the number of link facts not justified by any type.
func (r *Result) Excess() int { return r.res.Defect.Excess }

// Deficit returns the number of facts that would have to be invented to make
// every assigned type derivable.
func (r *Result) Deficit() int { return r.res.Defect.Deficit }

// Unclassified returns the number of objects assigned no type.
func (r *Result) Unclassified() int { return r.res.Unclassified }

// AutoK returns the automatically chosen number of types (0 when Options.K
// was set explicitly).
func (r *Result) AutoK() int { return r.res.AutoK }

// TypesOf returns the names of the types assigned to the named object.
func (r *Result) TypesOf(object string) []string {
	id := r.res.Assignment.DB.Lookup(object)
	if id == graph.NoObject {
		return nil
	}
	var names []string
	for _, ti := range r.res.Assignment.Of(id) {
		names = append(names, r.res.Program.Types[ti].Name)
	}
	sort.Strings(names)
	return names
}

// Members returns the objects assigned to the named type, in name order.
func (r *Result) Members(typeName string) []string {
	ti := r.res.Program.IndexOf(typeName)
	if ti < 0 {
		return nil
	}
	var names []string
	db := r.res.Assignment.DB
	for o, ts := range r.res.Assignment.Types {
		for _, t := range ts {
			if t == ti {
				names = append(names, db.Name(o))
				break
			}
		}
	}
	sort.Strings(names)
	return names
}

// ClassifyNew types an object that was added to the graph after extraction
// (§6 of the paper): the object is assigned every type it satisfies
// completely under the extracted assignment, or the closest type by the
// Manhattan distance d; with maxDistance >= 0, objects farther than that
// from every type stay unclassified. The returned names are sorted.
//
// The object must already be in the graph the result was extracted from
// (add it with Link/LinkAtom first).
func (r *Result) ClassifyNew(object string, maxDistance int) []string {
	id := r.res.Assignment.DB.Lookup(object)
	if id == graph.NoObject || r.res.Assignment.DB.IsAtomic(id) {
		return nil
	}
	var names []string
	for _, ti := range recast.TypeNewObject(r.res.Assignment, id, maxDistance) {
		names = append(names, r.res.Program.Types[ti].Name)
	}
	sort.Strings(names)
	return names
}

// IncrementalInfo describes how much of one extraction was derived from
// retained session state rather than recomputed. Observability only: every
// combination yields bit-identical results.
type IncrementalInfo struct {
	// Stage1Warm / Stage2Warm / Stage3Warm report that the perfect typing
	// was maintained incrementally, the clustering adopted the merge run of
	// an earlier extraction with the same program and options but K (or
	// seeded its matrix from the previous extraction), and the recast
	// reclassified only the delta's dirty objects, respectively.
	Stage1Warm bool
	Stage2Warm bool
	Stage3Warm bool
	// FastPath reports that the whole result was replayed from an identical
	// earlier extraction (same options, nothing changed since).
	FastPath bool
	// DirtyTypes / DirtyObjects count the Stage 1 types reseeded by warm
	// clustering and the objects reclassified by the warm recast (-1 when
	// the corresponding stage ran cold).
	DirtyTypes   int
	DirtyObjects int
}

// Incremental reports which stages of this extraction ran incrementally.
func (r *Result) Incremental() IncrementalInfo {
	in := r.res.Incr
	return IncrementalInfo{
		Stage1Warm:   in.Stage1Warm,
		Stage2Warm:   in.Stage2Warm,
		Stage3Warm:   in.Stage3Warm,
		FastPath:     in.FastPath,
		DirtyTypes:   in.DirtyTypes,
		DirtyObjects: in.DirtyObjects,
	}
}

// StageTiming is the per-stage wall clock of one extraction. Stage2 includes
// the auto-K sweep when one ran; fast-path results carry only Total.
type StageTiming struct {
	Stage1, Stage2, Stage3, Total time.Duration
}

// Timing returns the wall-clock time this extraction spent per stage.
func (r *Result) Timing() StageTiming {
	t := r.res.Timing
	return StageTiming{Stage1: t.Stage1, Stage2: t.Stage2, Stage3: t.Stage3, Total: t.Total}
}

// Internal exposes the full pipeline result for advanced use (cmd tools,
// experiments).
func (r *Result) Internal() *core.Result { return r.res }

// DriftReport quantifies how far the graph has drifted from the extracted
// typing — the input to §6's open problem ("deciding how many new objects is
// too many"). NewObjects are complex objects added after extraction;
// IllFitting counts those farther than maxDistance from every type (with
// maxDistance < 0, only objects matching no type at any distance).
type DriftReport struct {
	NewObjects   int
	IllFitting   int
	TotalObjects int
}

// ShouldReextract is a simple policy over the report: re-extract when more
// than the given fraction of the objects are new, or any new object fits no
// type within the cutoff.
func (d DriftReport) ShouldReextract(maxNewFraction float64) bool {
	if d.TotalObjects == 0 {
		return false
	}
	if float64(d.NewObjects)/float64(d.TotalObjects) > maxNewFraction {
		return true
	}
	return d.IllFitting > 0
}

// Drift classifies every complex object added to the graph since this
// result was extracted and reports how well the old typing still covers
// the data.
func (r *Result) Drift(maxDistance int) DriftReport {
	a := r.res.Assignment
	var rep DriftReport
	for _, o := range a.DB.ComplexObjects() {
		rep.TotalObjects++
		if len(a.Of(o)) > 0 {
			continue // covered at extraction time
		}
		rep.NewObjects++
		if len(recast.TypeNewObject(a, o, maxDistance)) == 0 {
			rep.IllFitting++
		}
	}
	return rep
}

// CheckReport is the result of validating a graph against a schema.
type CheckReport struct {
	// Types maps each type name to the number of objects in its greatest-
	// fixpoint extent.
	Types map[string]int
	// Excess is the number of link facts justified by no type.
	Excess int
	// Unclassified is the number of complex objects in no type.
	Unclassified int
}

// Conforms reports whether the data fits the schema perfectly: no excess
// and every complex object classified.
func (c *CheckReport) Conforms() bool { return c.Excess == 0 && c.Unclassified == 0 }

// Check validates a graph against a schema written in the arrow notation
// (as produced by Result.Schema): it computes the schema's greatest
// fixpoint on the data and reports extent sizes, excess facts, and
// unclassified objects. This is the conformance direction of the paper's
// defect measure: under greatest-fixpoint semantics there can be excess but
// never deficit (§2). The fixpoint stops at its next checkpoint once ctx is
// cancelled or past its deadline, returning ctx.Err().
func Check(ctx context.Context, g *Graph, schema string) (report *CheckReport, err error) {
	defer recoverInternal(&err)
	p, err := typing.Parse(schema)
	if err != nil {
		return nil, err
	}
	snap, err := compile.Compile(g.db, 0, 1, ctx.Err)
	if err != nil {
		return nil, err
	}
	ext, err := typing.EvalGFP(p, snap, 1, ctx.Err)
	if err != nil {
		return nil, err
	}
	report = &CheckReport{Types: make(map[string]int, len(p.Types))}
	for ti, t := range p.Types {
		report.Types[t.Name] = ext.Count(ti)
	}
	report.Excess = defect.Excess(p, g.db, ext.Member)
	for _, o := range g.db.ComplexObjects() {
		if len(ext.TypesOf(o)) == 0 {
			report.Unclassified++
		}
	}
	return report, nil
}

// Extract runs the three-stage extraction on g. Internal invariant panics
// are recovered into *InternalError; use ExtractContext to also get
// cancellation and wall-clock budgets.
func Extract(g *Graph, opts Options) (*Result, error) {
	return ExtractContext(context.Background(), g, opts)
}

// SweepPoint is one point of the sensitivity analysis: the defect and
// cumulative clustering distance of the best typing with K types.
type SweepPoint struct {
	K             int
	Defect        int
	Excess        int
	Deficit       int
	TotalDistance float64
	Unclassified  int
}

// Sweep holds the full defect-versus-number-of-types curve.
type Sweep struct {
	Points    []SweepPoint
	Suggested int // elbow of the defect curve
}

// FindPath returns the names of the complex objects that have an outgoing
// path matching the dotted path expression (labels, '*' for any single
// edge, '#' for any sequence), evaluated naively against the data.
func (g *Graph) FindPath(path string) ([]string, error) {
	p, err := query.ParsePath(path)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, o := range query.Find(g.db, p) {
		names = append(names, g.db.Name(o))
	}
	return names, nil
}

// PathValues returns the atomic values reachable from the named object
// along the path expression, sorted.
func (g *Graph) PathValues(from, path string) ([]string, error) {
	p, err := query.ParsePath(path)
	if err != nil {
		return nil, err
	}
	id := g.db.Lookup(from)
	if id == graph.NoObject {
		return nil, fmt.Errorf("schemex: unknown object %q", from)
	}
	return query.Values(g.db, []graph.ObjectID{id}, p), nil
}

// FindPath answers the same query as Graph.FindPath, but schema-guided: the
// path is first solved over the minimal perfect typing (which has zero
// excess, so no matches can be missed) and only objects of realizable types
// are inspected — the paper's §1 motivation that structure speeds up query
// processing.
func (r *Result) FindPath(path string) ([]string, error) {
	p, err := query.ParsePath(path)
	if err != nil {
		return nil, err
	}
	stage1 := r.res.Stage1
	guide := query.NewGuide(stage1.DB(), stage1.Program, stage1.Extent.Member)
	var names []string
	for _, o := range guide.Find(p) {
		names = append(names, stage1.DB().Name(o))
	}
	return names, nil
}

// ParseSchema parses a typing program in the arrow notation produced by
// Result.Schema, returning its canonical re-rendering. It is a convenience
// for validating hand-written schemas.
func ParseSchema(src string) (string, error) {
	p, err := typing.Parse(src)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}
