package schemex_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"schemex"
)

func buildSample(t *testing.T) *schemex.Graph {
	t.Helper()
	g := schemex.NewGraph()
	g.Link("gates", "microsoft", "is-manager-of")
	g.Link("jobs", "apple", "is-manager-of")
	g.Link("microsoft", "gates", "is-managed-by")
	g.Link("apple", "jobs", "is-managed-by")
	g.LinkAtom("gates", "name", "Gates")
	g.LinkAtom("jobs", "name", "Jobs")
	g.LinkAtom("microsoft", "name", "Microsoft")
	g.LinkAtom("apple", "name", "Apple")
	return g
}

func TestExtractContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := schemex.ExtractContext(ctx, buildSample(t), schemex.Options{K: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestExtractContextCompletesLikeExtract(t *testing.T) {
	g := buildSample(t)
	plain, err := schemex.Extract(g, schemex.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := schemex.ExtractContext(context.Background(), g, schemex.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Schema() != ctxed.Schema() {
		t.Fatal("context run produced a different schema")
	}
}

func TestSweepAnalysisContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := schemex.SweepAnalysisContext(ctx, buildSample(t), schemex.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestOptionsLimits(t *testing.T) {
	g := buildSample(t)
	var le *schemex.LimitError
	_, err := schemex.Extract(g, schemex.Options{K: 2, Limits: schemex.Limits{MaxObjects: 2}})
	if !errors.As(err, &le) || le.Resource != "objects" {
		t.Fatalf("got %v, want objects *LimitError", err)
	}
	_, err = schemex.Extract(g, schemex.Options{K: 2, Limits: schemex.Limits{MaxWallTime: time.Nanosecond}})
	if !errors.As(err, &le) || le.Resource != "wall-time" {
		t.Fatalf("got %v, want wall-time *LimitError", err)
	}
}

func TestLimitedLoaders(t *testing.T) {
	var le *schemex.LimitError

	text := "link a b l\nlink b c l\n"
	if _, err := schemex.ReadGraphLimits(strings.NewReader(text), schemex.Limits{MaxBytes: 4}); !errors.As(err, &le) || le.Resource != "bytes" {
		t.Fatalf("text bytes cap: got %v", err)
	}
	if _, err := schemex.ReadGraphLimits(strings.NewReader(text), schemex.Limits{}); err != nil {
		t.Fatalf("uncapped load failed: %v", err)
	}

	deepOEM := strings.Repeat("{ a: ", 40) + "1" + strings.Repeat(" }", 40)
	if _, err := schemex.ParseOEMLimits(strings.NewReader(deepOEM), schemex.Limits{MaxDepth: 10}); !errors.As(err, &le) || le.Resource != "depth" {
		t.Fatalf("oem depth cap: got %v", err)
	}

	deepJSON := strings.Repeat(`{"a":`, 40) + "1" + strings.Repeat("}", 40)
	if _, err := schemex.ParseJSONLimits(strings.NewReader(deepJSON), "root", schemex.Limits{MaxDepth: 10}); !errors.As(err, &le) || le.Resource != "depth" {
		t.Fatalf("json depth cap: got %v", err)
	}
	if _, err := schemex.ParseJSONLimits(strings.NewReader(`{"a": [1,2,3]}`), "root", schemex.Limits{MaxObjects: 2}); !errors.As(err, &le) || le.Resource != "objects" {
		t.Fatalf("json objects cap: got %v", err)
	}
}

func TestTryBuildersReturnErrors(t *testing.T) {
	g := schemex.NewGraph()
	if err := g.TryLink("a", "b", "l"); err != nil {
		t.Fatalf("valid TryLink failed: %v", err)
	}
	if err := g.TryAtom("v", "hello"); err != nil {
		t.Fatalf("valid TryAtom failed: %v", err)
	}
	if err := g.TryAtom("v", "other"); err == nil {
		t.Fatal("conflicting TryAtom succeeded")
	}
	if err := g.TryLink("v", "b", "l"); err == nil {
		t.Fatal("TryLink out of an atomic object succeeded")
	}
	if err := g.TryLinkAtom("a", "name", "Ann"); err != nil {
		t.Fatalf("valid TryLinkAtom failed: %v", err)
	}
	if err := g.TryLinkAtom("a", "name", "Bob"); err == nil {
		t.Fatal("TryLinkAtom with a conflicting value succeeded")
	}
	// The panicking builders must still panic (compatibility), while Try*
	// covered the same violations as errors above.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Atom with conflicting value did not panic")
			}
		}()
		g.Atom("v", "other")
	}()
}

func TestInternalErrorRecovery(t *testing.T) {
	// A Graph built without NewGraph has a nil database: the extraction
	// machinery panics on it, and the facade must contain that panic.
	var g schemex.Graph
	_, err := schemex.Extract(&g, schemex.Options{})
	var ie *schemex.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *InternalError", err)
	}
	if len(ie.Stack) == 0 || ie.Value == nil {
		t.Fatal("InternalError carries no panic value or stack")
	}
	if !strings.Contains(ie.Error(), "internal error") {
		t.Fatalf("unhelpful message %q", ie.Error())
	}

	if _, err := schemex.Check(context.Background(), &g, "type a = ->x[0]"); !errors.As(err, &ie) {
		t.Fatalf("Check: got %v, want *InternalError", err)
	}
	if _, err := schemex.SweepAnalysisContext(context.Background(), &g, schemex.Options{}); !errors.As(err, &ie) {
		t.Fatalf("SweepAnalysisContext: got %v, want *InternalError", err)
	}
}
