package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"schemex/internal/dbg"
	"schemex/internal/graph"
)

func dbgGraph(t *testing.T) *graph.DB {
	t.Helper()
	db, _ := dbg.Generate(dbg.Options{})
	return db
}

func TestExtractContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExtractContext(ctx, dbgGraph(t), Options{K: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestExtractContextCancelMidRun(t *testing.T) {
	// Cancel while the pipeline is running (the DBG extraction takes well
	// over 10ms) and require the call to return ctx.Err() within 100ms of
	// the cancellation — the acceptance bound for checkpoint spacing.
	db := dbgGraph(t)
	for _, p := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := ExtractContext(ctx, db, Options{K: 3, Parallelism: p})
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		start := time.Now()
		cancel()
		select {
		case err := <-done:
			// A fast machine may legitimately finish before the cancel.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d: got %v, want context.Canceled or nil", p, err)
			}
			if took := time.Since(start); took > 100*time.Millisecond {
				t.Fatalf("p=%d: cancellation honoured after %v, want <100ms", p, took)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("p=%d: extraction ignored cancellation", p)
		}
	}
}

func TestCancelledExtractLeaksNoGoroutines(t *testing.T) {
	db := dbgGraph(t)
	for _, p := range []int{1, 2, 8} {
		baseline := runtime.NumGoroutine()
		for i := 0; i < 3; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			_, _ = ExtractContext(ctx, db, Options{K: 3, Parallelism: p})
			cancel()
		}
		// Give exiting goroutines (the cancel helpers above and any worker
		// in its final return) a moment to unwind before counting.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > baseline {
			t.Fatalf("p=%d: %d goroutines before, %d after cancelled extracts", p, baseline, got)
		}
	}
}

func TestSweepContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, dbgGraph(t), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestExtractLimitObjects(t *testing.T) {
	db := dbgGraph(t)
	_, err := Extract(db, Options{K: 3, Limits: Limits{MaxObjects: 10}})
	var le *graph.LimitError
	if !errors.As(err, &le) || le.Resource != "objects" {
		t.Fatalf("got %v, want objects *LimitError", err)
	}
	if int(le.Actual) != db.NumObjects() {
		t.Fatalf("Actual = %d, want %d", le.Actual, db.NumObjects())
	}
}

func TestExtractLimitLinks(t *testing.T) {
	_, err := Extract(dbgGraph(t), Options{K: 3, Limits: Limits{MaxLinks: 5}})
	var le *graph.LimitError
	if !errors.As(err, &le) || le.Resource != "links" {
		t.Fatalf("got %v, want links *LimitError", err)
	}
}

func TestExtractLimitTypes(t *testing.T) {
	// DBG's perfect typing has well over 3 types.
	_, err := Extract(dbgGraph(t), Options{K: 3, Limits: Limits{MaxTypes: 3}})
	var le *graph.LimitError
	if !errors.As(err, &le) || le.Resource != "types" {
		t.Fatalf("got %v, want types *LimitError", err)
	}
}

func TestExtractLimitWallTime(t *testing.T) {
	_, err := Extract(dbgGraph(t), Options{K: 3, Limits: Limits{MaxWallTime: time.Nanosecond}})
	var le *graph.LimitError
	if !errors.As(err, &le) || le.Resource != "wall-time" {
		t.Fatalf("got %v, want wall-time *LimitError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("wall-time error should wrap context.DeadlineExceeded")
	}
}

func TestCallerDeadlineIsNotRewritten(t *testing.T) {
	// When the CALLER's deadline expires, the error must stay a plain
	// context error — the wall-time LimitError is only for our own budget.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := ExtractContext(ctx, dbgGraph(t), Options{K: 3})
	var le *graph.LimitError
	if errors.As(err, &le) {
		t.Fatalf("caller deadline rewritten to %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestCancelledRunMatchesUncancelled(t *testing.T) {
	// A run that completes under a generous budget must be bit-identical to
	// one with no budget at all: checkpoints may only abort, never perturb.
	db := dbgGraph(t)
	plain, err := Extract(db, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := ExtractContext(context.Background(), db, Options{K: 3, Limits: Limits{MaxWallTime: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Program.String() != budgeted.Program.String() {
		t.Fatal("budgeted run produced a different schema")
	}
	if plain.Defect != budgeted.Defect {
		t.Fatal("budgeted run produced a different defect")
	}
}
