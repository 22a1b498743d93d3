package cli

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemex/internal/wal"
)

// run executes a command line with captured streams.
func run(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	env := &Env{Stdin: strings.NewReader(stdin), Stdout: &out, Stderr: &errb}
	code = Run(args, env)
	return code, out.String(), errb.String()
}

const sampleData = `link gates microsoft is-manager-of
link jobs apple is-manager-of
link microsoft gates is-managed-by
link apple jobs is-managed-by
link gates gn name
link jobs jn name
link microsoft mn name
link apple an name
atomic gn string Gates
atomic jn string Jobs
atomic mn string Microsoft
atomic an string Apple
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNoArgsUsage(t *testing.T) {
	code, _, stderr := run(t, "")
	if code != 2 || !strings.Contains(stderr, "commands:") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, stderr := run(t, "", "frobnicate")
	if code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestHelp(t *testing.T) {
	code, stdout, _ := run(t, "", "help")
	if code != 0 || !strings.Contains(stdout, "extract") {
		t.Fatalf("code=%d stdout=%q", code, stdout)
	}
}

func TestExtractFromStdin(t *testing.T) {
	code, stdout, stderr := run(t, sampleData, "extract", "-k", "2", "-")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "perfect typing: 2 types") {
		t.Errorf("missing perfect-typing line:\n%s", stdout)
	}
	if !strings.Contains(stdout, "type ") || !strings.Contains(stdout, "->name[0]") {
		t.Errorf("missing schema:\n%s", stdout)
	}
}

func TestExtractShowPerfectAndDatalog(t *testing.T) {
	code, stdout, _ := run(t, sampleData, "extract", "-k", "2", "-show-perfect", "-datalog", "-")
	if code != 0 {
		t.Fatal("extract failed")
	}
	if !strings.Contains(stdout, "# minimal perfect typing:") {
		t.Error("missing perfect typing section")
	}
	if !strings.Contains(stdout, ":- link(") {
		t.Error("missing datalog section")
	}
}

func TestPerfectCommand(t *testing.T) {
	path := writeTemp(t, "data.txt", sampleData)
	code, stdout, stderr := run(t, "", "perfect", path)
	if code != 0 {
		t.Fatalf("stderr=%q", stderr)
	}
	if !strings.Contains(stdout, "minimal perfect typing: 2 types") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestSweepCommand(t *testing.T) {
	code, stdout, _ := run(t, sampleData, "sweep", "-")
	if code != 0 {
		t.Fatal("sweep failed")
	}
	if !strings.Contains(stdout, "types  defect") || !strings.Contains(stdout, "suggested number of types") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestSweepCSV(t *testing.T) {
	code, stdout, _ := run(t, sampleData, "sweep", "-csv", "-")
	if code != 0 {
		t.Fatal("sweep -csv failed")
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if lines[0] != "types,defect,excess,deficit,total_distance,unclassified" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) < 2 || !strings.Contains(lines[1], ",") {
		t.Fatalf("csv body:\n%s", stdout)
	}
}

func TestAssignCommand(t *testing.T) {
	code, stdout, _ := run(t, sampleData, "assign", "-k", "2", "-")
	if code != 0 {
		t.Fatal("assign failed")
	}
	if !strings.Contains(stdout, "gates") || !strings.Contains(stdout, "members") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestGenAndRoundtrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dbg.txt")
	code, _, stderr := run(t, "", "gen", "-dbg", "-out", out)
	if code != 0 {
		t.Fatalf("gen failed: %q", stderr)
	}
	code, stdout, _ := run(t, "", "validate", out)
	if code != 0 || !strings.Contains(stdout, "ok:") {
		t.Fatalf("validate failed: %q", stdout)
	}
	code, stdout, _ = run(t, "", "stats", "-top", "3", out)
	if code != 0 || !strings.Contains(stdout, "name") {
		t.Fatalf("stats failed:\n%s", stdout)
	}
}

func TestGenPreset(t *testing.T) {
	code, stdout, _ := run(t, "", "gen", "-preset", "1")
	if code != 0 {
		t.Fatal("gen preset failed")
	}
	if !strings.Contains(stdout, "link ") {
		t.Error("preset output missing link facts")
	}
	code, _, stderr := run(t, "", "gen")
	if code != 1 || !strings.Contains(stderr, "-dbg, -preset 1..8, or -spec") {
		t.Fatalf("gen without args: code=%d stderr=%q", code, stderr)
	}
}

func TestQueryCommand(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	code, stdout, _ := run(t, "", "query", "-path", "is-manager-of.name", data)
	if code != 0 {
		t.Fatal("query failed")
	}
	if !strings.Contains(stdout, "gates") || !strings.Contains(stdout, "jobs") ||
		!strings.Contains(stdout, "2 objects match") {
		t.Errorf("output:\n%s", stdout)
	}
	// Guided mode returns the same matches.
	code, guidedOut, _ := run(t, "", "query", "-guided", "-path", "is-manager-of.name", data)
	if code != 0 || !strings.Contains(guidedOut, "2 objects match") {
		t.Errorf("guided output:\n%s", guidedOut)
	}
	// Missing -path.
	code, _, stderr := run(t, "", "query", data)
	if code != 1 || !strings.Contains(stderr, "-path is required") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	// Bad path expression.
	code, _, _ = run(t, "", "query", "-path", "a..b", data)
	if code != 1 {
		t.Fatal("bad path accepted")
	}
}

func TestConvertCommand(t *testing.T) {
	// JSON -> OEM -> text: every hop must parse.
	code, oemOut, stderr := run(t, `{"a": 1, "kids": [{"x": true}, {"x": false}]}`,
		"convert", "-json", "-to", "oem", "-")
	if code != 0 {
		t.Fatalf("json->oem failed: %q", stderr)
	}
	if !strings.Contains(oemOut, "&root") || !strings.Contains(oemOut, "kids:") {
		t.Fatalf("oem output:\n%s", oemOut)
	}
	code, textOut, _ := run(t, oemOut, "convert", "-oem", "-to", "text", "-")
	if code != 0 {
		t.Fatal("oem->text failed")
	}
	if !strings.Contains(textOut, "link root ") {
		t.Fatalf("text output:\n%s", textOut)
	}
	// Unknown output format.
	code, _, stderr = run(t, "{}", "convert", "-json", "-to", "xml", "-")
	if code != 1 || !strings.Contains(stderr, "unknown output format") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestCheckCommand(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	schema := writeTemp(t, "schema.types", `
type person = ->is-manager-of[firm] & ->name[0] & <-is-managed-by[firm]
type firm = ->is-managed-by[person] & ->name[0] & <-is-manager-of[person]
`)
	code, stdout, _ := run(t, "", "check", "-schema", schema, data)
	if code != 0 {
		t.Fatalf("conforming data rejected:\n%s", stdout)
	}
	if !strings.Contains(stdout, "data conforms") {
		t.Errorf("output:\n%s", stdout)
	}

	// Non-conforming data exits 1.
	bad := writeTemp(t, "bad.txt", sampleData+"link stray gn has-name\n")
	code, stdout, stderr := run(t, "", "check", "-schema", schema, bad)
	if code != 1 {
		t.Fatalf("non-conforming data accepted: %q %q", stdout, stderr)
	}

	// Missing -schema flag.
	code, _, stderr = run(t, "", "check", data)
	if code != 1 || !strings.Contains(stderr, "-schema is required") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestExtractWithSeedAndSorts(t *testing.T) {
	data := writeTemp(t, "d.txt", `
link r1 a1 id
link r2 a2 id
atomic a1 int 1
atomic a2 int 2
`)
	seed := writeTemp(t, "seed.types", "type numbered = ->id[0:int]\n")
	code, stdout, stderr := run(t, "", "extract", "-k", "1", "-sorts", "-seed", seed, data)
	if code != 0 {
		t.Fatalf("stderr=%q", stderr)
	}
	if !strings.Contains(stdout, "type numbered") || !strings.Contains(stdout, "[0:int]") {
		t.Errorf("seeded sorted schema missing:\n%s", stdout)
	}
}

func TestJSONInput(t *testing.T) {
	code, stdout, stderr := run(t, `{"name": "x", "tags": ["a", "b"], "nested": {"k": 1}}`,
		"extract", "-json", "-k", "2", "-")
	if code != 0 {
		t.Fatalf("json extract failed: %q", stderr)
	}
	if !strings.Contains(stdout, "->tags[0]") || !strings.Contains(stdout, "->nested[") {
		t.Errorf("output:\n%s", stdout)
	}
	// -oem and -json together is an error.
	code, _, stderr = run(t, `{}`, "extract", "-json", "-oem", "-")
	if code != 1 || !strings.Contains(stderr, "at most one") {
		t.Fatalf("conflicting flags: code=%d stderr=%q", code, stderr)
	}
}

func TestOEMInput(t *testing.T) {
	code, stdout, _ := run(t, `&a { name: "x", friend: *b } &b { name: "y", friend: *a }`,
		"extract", "-k", "1", "-oem", "-")
	if code != 0 {
		t.Fatal("oem extract failed")
	}
	if !strings.Contains(stdout, "->friend[") {
		t.Errorf("output:\n%s", stdout)
	}
}

func TestBadInputErrors(t *testing.T) {
	code, _, stderr := run(t, "garbage here\n", "extract", "-")
	if code != 1 || stderr == "" {
		t.Fatalf("bad input accepted: code=%d", code)
	}
	code, _, _ = run(t, "", "extract", "/nonexistent/file.txt")
	if code != 1 {
		t.Fatal("missing file accepted")
	}
	code, _, _ = run(t, "", "extract") // no file arg
	if code != 1 {
		t.Fatal("missing file arg accepted")
	}
}

// runCtx executes a command line under a caller-supplied context.
func runCtx(t *testing.T, ctx context.Context, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	env := &Env{Stdin: strings.NewReader(stdin), Stdout: &out, Stderr: &errb}
	code = RunContext(ctx, args, env)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	dataFile := writeTemp(t, "data.txt", sampleData)
	cases := []struct {
		name  string
		ctx   context.Context
		stdin string
		args  []string
		want  int
	}{
		{"success", context.Background(), sampleData, []string{"extract", "-k", "2", "-"}, 0},
		{"no args", context.Background(), "", nil, 2},
		{"unknown command", context.Background(), "", []string{"frobnicate"}, 2},
		{"bad flag", context.Background(), "", []string{"extract", "-no-such-flag"}, 2},
		{"missing file", context.Background(), "", []string{"extract", "/no/such/file"}, 1},
		{"bad data", context.Background(), "not a record\n", []string{"extract", "-"}, 1},
		{"cancelled extract", cancelled, sampleData, []string{"extract", "-k", "2", dataFile}, 130},
		{"cancelled sweep", cancelled, sampleData, []string{"sweep", dataFile}, 130},
		{"cancelled assign", cancelled, sampleData, []string{"assign", "-k", "2", dataFile}, 130},
		{"timeout", context.Background(), "", []string{"extract", "-timeout", "1ns", dataFile}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCtx(t, c.ctx, c.stdin, c.args...)
			if code != c.want {
				t.Fatalf("exit code %d, want %d (stderr: %q)", code, c.want, stderr)
			}
		})
	}
}

func TestCancelledExtractPrintsPartialStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dataFile := writeTemp(t, "data.txt", sampleData)
	code, _, stderr := runCtx(t, ctx, "", "extract", "-k", "2", dataFile)
	if code != 130 {
		t.Fatalf("exit code %d, want 130", code)
	}
	if !strings.Contains(stderr, "partial stats") || !strings.Contains(stderr, "objects") {
		t.Fatalf("no partial stats on cancel; stderr: %q", stderr)
	}
}

func TestTimeoutFlagParses(t *testing.T) {
	// A generous timeout must not interfere with a successful run.
	code, stdout, stderr := run(t, sampleData, "extract", "-k", "2", "-timeout", "1m", "-")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "type ") {
		t.Fatalf("no schema printed:\n%s", stdout)
	}
}

func TestApplyPrintsMutatedGraph(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	delta := writeTemp(t, "delta.txt", "link gates jobs knows\nunlink gates gn name\n")
	code, stdout, stderr := run(t, "", "apply", "-d", delta, data)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "link gates jobs knows") {
		t.Errorf("added link missing:\n%s", stdout)
	}
	if strings.Contains(stdout, "link gates gn name") {
		t.Errorf("removed link still present:\n%s", stdout)
	}
}

func TestApplyExtractAndVerbose(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	d1 := writeTemp(t, "d1.txt", "link torvalds linux is-manager-of\nlink linux torvalds is-managed-by\n"+
		"link torvalds tn name\nlink linux ln name\natomic tn string Torvalds\natomic ln string Linux\n")
	d2 := writeTemp(t, "d2.txt", "link gates jobs rival\n")
	code, stdout, stderr := run(t, "", "apply", "-d", d1, "-d", d2, "-extract", "-k", "2", "-v", data)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "after 2 deltas") || !strings.Contains(stdout, "type ") {
		t.Errorf("missing extraction output:\n%s", stdout)
	}
	// Repeated -d files are applied as one coalesced batch; verbose reports
	// the batch and which apply path it took.
	if !strings.Contains(stderr, "# batch: 2 deltas") {
		t.Errorf("verbose batch line missing:\n%s", stderr)
	}
	if !strings.Contains(stderr, "incremental") && !strings.Contains(stderr, "full recompile") {
		t.Errorf("verbose apply path missing:\n%s", stderr)
	}
}

func TestApplyDeltaFromStdin(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	code, stdout, stderr := run(t, "remove gates\n", "apply", "-d", "-", data)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if strings.Contains(stdout, "link gates microsoft is-manager-of") {
		t.Errorf("detached object still linked:\n%s", stdout)
	}
}

func TestApplyLogReplaysAcrossRuns(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	logPath := filepath.Join(t.TempDir(), "apply.wal")

	// First run creates the log and appends one delta.
	code, _, stderr := run(t, "", "apply", "-log", logPath,
		"-d", writeTemp(t, "d1.txt", "link gates jobs knows\n"), data)
	if code != 0 {
		t.Fatalf("first run: code=%d stderr=%q", code, stderr)
	}
	// Second run replays it — no -d needed — so the earlier edit shows in
	// the printed graph alongside the new one.
	code, stdout, stderr := run(t, "", "apply", "-log", logPath, "-v",
		"-d", writeTemp(t, "d2.txt", "link jobs gates knows\n"), data)
	if code != 0 {
		t.Fatalf("second run: code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "link gates jobs knows") || !strings.Contains(stdout, "link jobs gates knows") {
		t.Errorf("logged delta not replayed:\n%s", stdout)
	}
	if !strings.Contains(stderr, "replayed 1 logged deltas") {
		t.Errorf("verbose replay note missing: %q", stderr)
	}
	// Third run with only -log (no -d) replays both.
	code, stdout, _ = run(t, "", "apply", "-log", logPath, data)
	if code != 0 || !strings.Contains(stdout, "link jobs gates knows") {
		t.Fatalf("log-only run: code=%d\n%s", code, stdout)
	}
}

func TestApplyLogTornTailWarning(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	logPath := filepath.Join(t.TempDir(), "apply.wal")
	if code, _, stderr := run(t, "", "apply", "-log", logPath,
		"-d", writeTemp(t, "d.txt", "link gates jobs knows\n"), data); code != 0 {
		t.Fatalf("seed run: code=%d stderr=%q", code, stderr)
	}
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.TruncateAt(logPath, st.Size()-4); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := run(t, "", "apply", "-log", logPath, data)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "torn final record") {
		t.Errorf("no torn-tail warning: %q", stderr)
	}
	// The torn delta dropped; the graph is the base state.
	if strings.Contains(stdout, "link gates jobs knows") {
		t.Errorf("torn delta applied anyway:\n%s", stdout)
	}
}

func TestApplyErrors(t *testing.T) {
	data := writeTemp(t, "data.txt", sampleData)
	if code, _, _ := run(t, "", "apply", data); code != 2 {
		t.Fatalf("missing -d: code=%d, want 2", code)
	}
	bad := writeTemp(t, "bad.txt", "unlink gates apple nope\n")
	code, _, stderr := run(t, "", "apply", "-d", bad, data)
	if code != 1 || !strings.Contains(stderr, "applying") {
		t.Fatalf("invalid delta: code=%d stderr=%q", code, stderr)
	}
	garbled := writeTemp(t, "garbled.txt", "frobnicate x\n")
	if code, _, _ := run(t, "", "apply", "-d", garbled, data); code != 1 {
		t.Fatalf("garbled delta: code=%d, want 1", code)
	}
}
