// Package cli implements the schemex command line. cmd/schemex is a thin
// wrapper; keeping the logic here makes every command unit-testable with
// in-memory readers and writers.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"schemex"
	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/perfect"
	"schemex/internal/synth"
	"schemex/internal/wal"
)

// Env carries the command environment (streams and a file opener), so tests
// can run commands without touching the real file system for stdin/stdout.
type Env struct {
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
}

// DefaultEnv is the process environment.
func DefaultEnv() *Env {
	return &Env{Stdin: os.Stdin, Stdout: os.Stdout, Stderr: os.Stderr}
}

// Run dispatches a schemex command line (without the program name) and
// returns the exit code. SIGINT/SIGTERM cancel the running command
// gracefully: extraction stops at its next checkpoint, partial stats are
// printed, and the process exits with the conventional code 130.
func Run(args []string, env *Env) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return RunContext(ctx, args, env)
}

// RunContext is Run under a caller-supplied context (no signal handling),
// which makes cancellation behaviour unit-testable. Exit codes: 0 success,
// 1 command error (including deadline expiry), 2 usage error, 130
// cancellation.
func RunContext(ctx context.Context, args []string, env *Env) int {
	if env == nil {
		env = DefaultEnv()
	}
	if len(args) < 1 {
		usage(env.Stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "extract":
		err = cmdExtract(ctx, rest, env)
	case "apply":
		err = cmdApply(ctx, rest, env)
	case "perfect":
		err = cmdPerfect(rest, env)
	case "sweep":
		err = cmdSweep(ctx, rest, env)
	case "assign":
		err = cmdAssign(ctx, rest, env)
	case "gen":
		err = cmdGen(rest, env)
	case "query":
		err = cmdQuery(rest, env)
	case "convert":
		err = cmdConvert(rest, env)
	case "check":
		err = cmdCheck(ctx, rest, env)
	case "validate":
		err = cmdValidate(rest, env)
	case "stats":
		err = cmdStats(rest, env)
	case "help", "-h", "--help":
		usage(env.Stdout)
		return 0
	default:
		fmt.Fprintf(env.Stderr, "schemex: unknown command %q\n", cmd)
		usage(env.Stderr)
		return 2
	}
	if err != nil {
		if err == flag.ErrHelp {
			return 2
		}
		fmt.Fprintln(env.Stderr, "schemex:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		if errors.Is(err, context.Canceled) {
			return 130 // the conventional "terminated by SIGINT" code
		}
		return 1
	}
	return 0
}

// usageError marks a flag-parsing failure, mapped to exit code 2.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usageErr(err error) error {
	if err == flag.ErrHelp {
		return err
	}
	return usageError{err}
}

// withTimeout arms a -timeout flag value on ctx; zero means no limit.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// reportPartial prints the loaded graph's stats to stderr when extraction
// was cancelled or timed out, so an interrupted run still reports what it
// was working on. The error is returned unchanged.
func reportPartial(env *Env, g *schemex.Graph, err error) error {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		fmt.Fprintf(env.Stderr, "# interrupted; partial stats: %s\n", g.Stats())
	}
	return err
}

func usage(w io.Writer) {
	fmt.Fprint(w, `schemex — schema extraction from semistructured data (SIGMOD '98)

commands:
  extract   run the full three-stage extraction and print the typing
  apply     apply a delta file to a dataset (print or re-extract the result)
  perfect   print the minimal perfect typing (Stage 1 only)
  sweep     print the defect/#types sensitivity curve
  assign    print the per-object type assignment
  gen       generate a built-in dataset (Table 1 presets or DBG)
  query     answer a path query (naive or schema-guided)
  convert   convert between data formats (text, oem, json in; text, oem out)
  check     validate data against a schema file (conformance report)
  validate  check a data file against the model constraints
  stats     print dataset statistics

run "schemex <command> -h" for flags.
`)
}

func newFlagSet(name string, env *Env) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	return fs
}

func loadGraph(path string, oem bool, env *Env) (*schemex.Graph, error) {
	return loadGraphFmt(path, oem, false, env)
}

func loadGraphFmt(path string, oem, jsonIn bool, env *Env) (*schemex.Graph, error) {
	var r io.Reader
	if path == "-" {
		r = env.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch {
	case oem && jsonIn:
		return nil, fmt.Errorf("pass at most one of -oem and -json")
	case oem:
		return schemex.ParseOEM(r)
	case jsonIn:
		return schemex.ParseJSON(r, "root")
	default:
		return schemex.ReadGraph(r)
	}
}

func fileArg(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one input file (or -), got %d args", fs.NArg())
	}
	return fs.Arg(0), nil
}

func cmdExtract(ctx context.Context, args []string, env *Env) error {
	fs := newFlagSet("extract", env)
	k := fs.Int("k", 0, "target number of types (0 = automatic)")
	delta := fs.String("delta", "", "distance function: delta1..delta5 or weighted-manhattan")
	multiRole := fs.Bool("multirole", false, "decompose conjunction types (multiple roles)")
	empty := fs.Bool("empty", false, "allow the empty type (unclassified objects)")
	sorts := fs.Bool("sorts", false, "distinguish atomic values by sort (int, string, ...)")
	seedPath := fs.String("seed", "", "file with a-priori known types in arrow notation")
	oem := fs.Bool("oem", false, "input is OEM syntax")
	jsonIn := fs.Bool("json", false, "input is a JSON document")
	showPerfect := fs.Bool("show-perfect", false, "also print the minimal perfect typing")
	datalog := fs.Bool("datalog", false, "also print the typing as datalog rules")
	parallel := fs.Int("p", 0, "worker goroutines per stage (0 = one per CPU, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort extraction after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraphFmt(path, *oem, *jsonIn, env)
	if err != nil {
		return err
	}
	opts := schemex.Options{
		K: *k, Delta: *delta, MultiRole: *multiRole, AllowEmpty: *empty, UseSorts: *sorts,
		Parallelism: *parallel,
	}
	if *seedPath != "" {
		seed, err := os.ReadFile(*seedPath)
		if err != nil {
			return err
		}
		opts.SeedSchema = string(seed)
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	res, err := schemex.ExtractContext(ctx, g, opts)
	if err != nil {
		return reportPartial(env, g, err)
	}
	fmt.Fprintf(env.Stdout, "# %s\n", g.Stats())
	fmt.Fprintf(env.Stdout, "# perfect typing: %d types; approximate typing: %d types", res.PerfectTypes(), res.NumTypes())
	if res.AutoK() > 0 {
		fmt.Fprintf(env.Stdout, " (chosen automatically)")
	}
	fmt.Fprintf(env.Stdout, "\n# defect: %d (excess %d + deficit %d); unclassified objects: %d\n\n",
		res.Defect(), res.Excess(), res.Deficit(), res.Unclassified())
	fmt.Fprint(env.Stdout, res.Schema())
	if *showPerfect {
		fmt.Fprintf(env.Stdout, "\n# minimal perfect typing:\n%s", res.PerfectSchema())
	}
	if *datalog {
		fmt.Fprintf(env.Stdout, "\n# datalog form:\n%s", res.Datalog())
	}
	return nil
}

// cmdApply loads a dataset, applies one or more delta files in order through
// the session API, and either writes the mutated graph (default) or
// re-extracts a schema from it. -v narrates each step's apply path, which is
// how a user can see whether edits stayed on the incremental fast path.
func cmdApply(ctx context.Context, args []string, env *Env) error {
	fs := newFlagSet("apply", env)
	var deltas deltaFiles
	fs.Var(&deltas, "d", "delta file in link/unlink/atomic/remove line format (repeatable, - for stdin)")
	oem := fs.Bool("oem", false, "input is OEM syntax")
	jsonIn := fs.Bool("json", false, "input is a JSON document")
	extract := fs.Bool("extract", false, "extract a schema from the mutated data instead of printing it")
	k := fs.Int("k", 0, "target number of types for -extract (0 = automatic)")
	parallel := fs.Int("p", 0, "worker goroutines per stage (0 = one per CPU, 1 = serial)")
	verbose := fs.Bool("v", false, "report each delta's apply path on stderr")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no limit)")
	logPath := fs.String("log", "", "write-ahead log: replay its deltas first, then append each -d delta (created if missing)")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	if len(deltas) == 0 && *logPath == "" {
		return usageErr(fmt.Errorf("apply needs at least one -d delta file (or -log)"))
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraphFmt(path, *oem, *jsonIn, env)
	if err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	sess, err := schemex.PrepareOptions(ctx, g, schemex.Options{Parallelism: *parallel})
	if err != nil {
		return reportPartial(env, g, err)
	}
	var wlog *wal.Log
	if *logPath != "" {
		if sess, wlog, err = openApplyLog(ctx, *logPath, sess, *verbose, *parallel, env); err != nil {
			return err
		}
		defer wlog.Close()
	}
	// Parse every -d file up front, then apply them as one coalesced batch:
	// one incremental apply over the union footprint and one WAL group append
	// instead of an apply and an fsync per file. Results are bit-identical to
	// applying the files in order.
	parsed := make([]*schemex.Delta, 0, len(deltas))
	for _, dpath := range deltas {
		var r io.Reader
		if dpath == "-" {
			r = env.Stdin
		} else {
			f, err := os.Open(dpath)
			if err != nil {
				return err
			}
			r = f
		}
		d, err := schemex.ParseDelta(r)
		if c, ok := r.(io.Closer); ok {
			c.Close()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", dpath, err)
		}
		parsed = append(parsed, d)
	}
	if len(parsed) > 0 {
		next, info, err := sess.ApplyBatchContext(ctx, parsed...)
		if err != nil {
			// Nothing committed. Re-run the files sequentially on a scratch
			// branch purely to name the one that fails.
			scratch := sess
			for i, d := range parsed {
				if scratch, _, err = scratch.ApplyContext(ctx, d); err != nil {
					return fmt.Errorf("applying %s: %w", deltas[i], err)
				}
			}
			return fmt.Errorf("applying delta batch: %w", err)
		}
		if *verbose {
			ops := 0
			for _, d := range parsed {
				ops += d.Len()
			}
			path := "incremental"
			if !info.Incremental {
				path = "full recompile"
			}
			st := next.IncrStats()
			fmt.Fprintf(env.Stderr, "# batch: %d deltas, %d ops (%d coalesced away), %s, touched %d objects (%d new)\n",
				len(parsed), ops, st.CoalescedOps, path, info.TouchedObjects, info.NewObjects)
		}
		if wlog != nil {
			payloads := make([][]byte, len(parsed))
			for i, d := range parsed {
				payloads[i] = []byte(d.String())
			}
			if _, err := wlog.AppendAll(wal.KindDelta, payloads); err != nil {
				return fmt.Errorf("logging delta batch: %w", err)
			}
		}
		sess = next
	}
	if !*extract {
		return sess.Graph().Write(env.Stdout)
	}
	res, err := schemex.ExtractPreparedContext(ctx, sess, schemex.Options{K: *k, Parallelism: *parallel})
	if err != nil {
		return reportPartial(env, sess.Graph(), err)
	}
	fmt.Fprintf(env.Stdout, "# %s (after %d deltas)\n", sess.Graph().Stats(), len(deltas))
	fmt.Fprintf(env.Stdout, "# defect: %d; unclassified objects: %d\n\n", res.Defect(), res.Unclassified())
	fmt.Fprint(env.Stdout, res.Schema())
	return nil
}

// openApplyLog wires cmdApply's -log flag: an existing log is replayed on top
// of the freshly prepared session (a base record replaces the state outright,
// delta records apply in order), then reopened for appending — a torn final
// frame from an interrupted earlier run is dropped with a warning. A missing
// log is created, seeded with the session's graph as its base record so the
// log replays standalone next time. parallel is -p: a base record is compiled
// with it, like the data file.
func openApplyLog(ctx context.Context, path string, sess *schemex.Prepared, verbose bool, parallel int, env *Env) (*schemex.Prepared, *wal.Log, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		l, err := wal.Create(path, wal.SyncPolicy{})
		if err != nil {
			return nil, nil, err
		}
		var base strings.Builder
		if err := sess.Graph().Write(&base); err != nil {
			l.Close()
			return nil, nil, err
		}
		if _, err := l.Append(wal.KindBase, []byte(base.String())); err != nil {
			l.Close()
			return nil, nil, err
		}
		if verbose {
			fmt.Fprintf(env.Stderr, "# %s: created, base %d objects\n", path, sess.Graph().NumObjects())
		}
		return sess, l, nil
	}
	replayed := 0
	_, torn, err := wal.Replay(path, 0, func(r wal.Record) error {
		switch r.Kind {
		case wal.KindBase:
			g, err := schemex.ReadGraph(strings.NewReader(string(r.Payload)))
			if err != nil {
				return fmt.Errorf("base record at offset %d: %w", r.Offset, err)
			}
			p, err := schemex.PrepareOptions(ctx, g, schemex.Options{Parallelism: parallel})
			if err != nil {
				return err
			}
			sess = p
		case wal.KindDelta:
			d, err := schemex.ParseDelta(strings.NewReader(string(r.Payload)))
			if err != nil {
				return fmt.Errorf("delta record at offset %d: %w", r.Offset, err)
			}
			next, _, err := sess.ApplyContext(ctx, d)
			if err != nil {
				return fmt.Errorf("replaying delta at offset %d: %w", r.Offset, err)
			}
			sess = next
			replayed++
		}
		return nil
	})
	if err != nil {
		// *wal.CorruptError already names the file and offset.
		var ce *wal.CorruptError
		if errors.As(err, &ce) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if torn {
		fmt.Fprintf(env.Stderr, "# %s: dropped torn final record (interrupted write)\n", path)
	}
	if verbose {
		fmt.Fprintf(env.Stderr, "# %s: replayed %d logged deltas\n", path, replayed)
	}
	l, err := wal.Open(path, wal.SyncPolicy{})
	if err != nil {
		return nil, nil, err // wal errors name the file
	}
	return sess, l, nil
}

// deltaFiles collects repeated -d flags in order.
type deltaFiles []string

func (d *deltaFiles) String() string { return strings.Join(*d, ",") }
func (d *deltaFiles) Set(s string) error {
	*d = append(*d, s)
	return nil
}

func cmdPerfect(args []string, env *Env) error {
	fs := newFlagSet("perfect", env)
	oem := fs.Bool("oem", false, "input is OEM syntax")
	sorts := fs.Bool("sorts", false, "distinguish atomic values by sort")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	snap, err := compile.Compile(g.DB(), 0, 0, nil)
	if err != nil {
		return err
	}
	res, err := perfect.Minimal(snap, perfect.Options{UseSorts: *sorts}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Stdout, "# %s\n# minimal perfect typing: %d types\n\n", g.Stats(), res.Program.Len())
	fmt.Fprint(env.Stdout, res.Program.String())
	return nil
}

func cmdSweep(ctx context.Context, args []string, env *Env) error {
	fs := newFlagSet("sweep", env)
	delta := fs.String("delta", "", "distance function")
	oem := fs.Bool("oem", false, "input is OEM syntax")
	csv := fs.Bool("csv", false, "emit CSV for plotting")
	parallel := fs.Int("p", 0, "worker goroutines (0 = one per CPU, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	sw, err := schemex.SweepAnalysisContext(ctx, g, schemex.Options{Delta: *delta, Parallelism: *parallel})
	if err != nil {
		return reportPartial(env, g, err)
	}
	if *csv {
		fmt.Fprintln(env.Stdout, "types,defect,excess,deficit,total_distance,unclassified")
		for i := len(sw.Points) - 1; i >= 0; i-- {
			p := sw.Points[i]
			fmt.Fprintf(env.Stdout, "%d,%d,%d,%d,%.1f,%d\n",
				p.K, p.Defect, p.Excess, p.Deficit, p.TotalDistance, p.Unclassified)
		}
		return nil
	}
	fmt.Fprintln(env.Stdout, "types  defect  excess  deficit  total-distance  unclassified")
	for i := len(sw.Points) - 1; i >= 0; i-- {
		p := sw.Points[i]
		fmt.Fprintf(env.Stdout, "%5d  %6d  %6d  %7d  %14.1f  %12d\n",
			p.K, p.Defect, p.Excess, p.Deficit, p.TotalDistance, p.Unclassified)
	}
	fmt.Fprintf(env.Stdout, "# suggested number of types: %d\n", sw.Suggested)
	return nil
}

func cmdAssign(ctx context.Context, args []string, env *Env) error {
	fs := newFlagSet("assign", env)
	k := fs.Int("k", 0, "target number of types (0 = automatic)")
	oem := fs.Bool("oem", false, "input is OEM syntax")
	parallel := fs.Int("p", 0, "worker goroutines (0 = one per CPU, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort the assignment after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	res, err := schemex.ExtractContext(ctx, g, schemex.Options{K: *k, Parallelism: *parallel})
	if err != nil {
		return reportPartial(env, g, err)
	}
	for _, ti := range res.Types() {
		members := res.Members(ti.Name)
		fmt.Fprintf(env.Stdout, "%s (%d members):\n", ti.Name, len(members))
		for _, m := range members {
			fmt.Fprintf(env.Stdout, "  %s\n", m)
		}
	}
	return nil
}

func cmdGen(args []string, env *Env) error {
	fs := newFlagSet("gen", env)
	preset := fs.Int("preset", 0, "Table 1 preset number (1-8)")
	useDBG := fs.Bool("dbg", false, "generate the DBG dataset")
	specPath := fs.String("spec", "", "generate from a JSON spec file (see internal/synth)")
	out := fs.String("out", "-", "output file")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}

	w := env.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch {
	case *useDBG:
		db, _ := dbg.Generate(dbg.Options{})
		return db.Write(w)
	case *specPath != "":
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		defer f.Close()
		spec, err := synth.ReadSpec(f)
		if err != nil {
			return err
		}
		db, err := spec.Generate()
		if err != nil {
			return err
		}
		return db.Write(w)
	case *preset >= 1 && *preset <= 8:
		p := synth.Presets()[*preset-1]
		db, err := p.Build()
		if err != nil {
			return err
		}
		return db.Write(w)
	default:
		return fmt.Errorf("gen: pass -dbg, -preset 1..8, or -spec file.json")
	}
}

func cmdQuery(args []string, env *Env) error {
	fs := newFlagSet("query", env)
	pathExpr := fs.String("path", "", "path expression, e.g. member.publication.conference (required)")
	guided := fs.Bool("guided", false, "use the extracted schema to prune the search")
	oem := fs.Bool("oem", false, "input is OEM syntax")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	if *pathExpr == "" {
		return fmt.Errorf("query: -path is required")
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	var matches []string
	if *guided {
		res, err := schemex.Extract(g, schemex.Options{K: 1})
		if err != nil {
			return err
		}
		matches, err = res.FindPath(*pathExpr)
		if err != nil {
			return err
		}
	} else {
		matches, err = g.FindPath(*pathExpr)
		if err != nil {
			return err
		}
	}
	for _, m := range matches {
		fmt.Fprintln(env.Stdout, m)
	}
	fmt.Fprintf(env.Stdout, "# %d objects match %s\n", len(matches), *pathExpr)
	return nil
}

func cmdConvert(args []string, env *Env) error {
	fs := newFlagSet("convert", env)
	oem := fs.Bool("oem", false, "input is OEM syntax")
	jsonIn := fs.Bool("json", false, "input is a JSON document")
	to := fs.String("to", "text", "output format: text or oem")
	out := fs.String("out", "-", "output file")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraphFmt(path, *oem, *jsonIn, env)
	if err != nil {
		return err
	}
	w := env.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *to {
	case "text":
		return g.Write(w)
	case "oem":
		return g.WriteOEM(w)
	default:
		return fmt.Errorf("convert: unknown output format %q (text, oem)", *to)
	}
}

func cmdCheck(ctx context.Context, args []string, env *Env) error {
	fs := newFlagSet("check", env)
	schemaPath := fs.String("schema", "", "schema file in arrow notation (required)")
	oem := fs.Bool("oem", false, "input is OEM syntax")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	if *schemaPath == "" {
		return fmt.Errorf("check: -schema is required")
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	schemaBytes, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	report, err := schemex.Check(ctx, g, string(schemaBytes))
	if err != nil {
		return err
	}
	names := make([]string, 0, len(report.Types))
	for n := range report.Types {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(env.Stdout, "%6d  %s\n", report.Types[n], n)
	}
	fmt.Fprintf(env.Stdout, "excess facts: %d; unclassified objects: %d\n", report.Excess, report.Unclassified)
	if report.Conforms() {
		fmt.Fprintln(env.Stdout, "data conforms to the schema")
		return nil
	}
	return fmt.Errorf("data does not conform to the schema")
}

func cmdValidate(args []string, env *Env) error {
	fs := newFlagSet("validate", env)
	oem := fs.Bool("oem", false, "input is OEM syntax")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Stdout, "ok: %s\n", g.Stats())
	return nil
}

func cmdStats(args []string, env *Env) error {
	fs := newFlagSet("stats", env)
	oem := fs.Bool("oem", false, "input is OEM syntax")
	topLabels := fs.Int("top", 10, "show the N most frequent labels")
	if err := fs.Parse(args); err != nil {
		return usageErr(err)
	}
	path, err := fileArg(fs)
	if err != nil {
		return err
	}
	g, err := loadGraph(path, *oem, env)
	if err != nil {
		return err
	}
	db := g.DB()
	fmt.Fprintln(env.Stdout, g.Stats())
	counts := make(map[string]int)
	db.Links(func(e graph.Edge) { counts[e.Label]++ })
	type lc struct {
		label string
		n     int
	}
	ranked := make([]lc, 0, len(counts))
	for l, n := range counts {
		ranked = append(ranked, lc{l, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].label < ranked[j].label
	})
	if *topLabels > len(ranked) {
		*topLabels = len(ranked)
	}
	for _, r := range ranked[:*topLabels] {
		fmt.Fprintf(env.Stdout, "%6d  %s\n", r.n, r.label)
	}
	return nil
}
