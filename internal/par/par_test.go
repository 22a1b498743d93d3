package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestDoCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 101} {
			seen := make([]int32, n)
			Do(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestDoItemsCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 101} {
			seen := make([]int32, n)
			DoItems(workers, n, func(i int) {
				atomic.AddInt32(&seen[i], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestSerialRunsInline(t *testing.T) {
	// With one worker the callback must run on the calling goroutine (no
	// allocation, deterministic order): verify order for DoItems.
	var order []int
	DoItems(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial DoItems out of order: %v", order)
		}
	}
}

func TestDoErrNilOnSuccess(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := DoErr(workers, 50, func(lo, hi int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
	}
}

func TestDoErrSmallestChunkWins(t *testing.T) {
	// Every chunk fails with an error naming its start index; the chunk with
	// the smallest start must win regardless of scheduling.
	for _, workers := range []int{1, 2, 4, 8} {
		err := DoErr(workers, 64, func(lo, hi int) error {
			return fmt.Errorf("chunk %d", lo)
		})
		if err == nil || err.Error() != "chunk 0" {
			t.Fatalf("workers=%d: got %v, want chunk 0", workers, err)
		}
	}
}

func TestDoItemsErrSmallestIndexWins(t *testing.T) {
	// Indexes are claimed in increasing order, so index 50 is always reached
	// and its error beats any later one in the deterministic fold.
	for _, workers := range []int{1, 2, 4, 8} {
		err := DoItemsErr(workers, 100, func(i int) error {
			if i >= 50 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 50" {
			t.Fatalf("workers=%d: got %v, want item 50", workers, err)
		}
	}
}

func TestDoItemsErrStopsClaiming(t *testing.T) {
	// After the first error, workers must stop claiming fresh indexes: with
	// a serial run the count is exact; with parallel workers it can overshoot
	// only by in-flight items (< n).
	var count atomic.Int32
	err := DoItemsErr(1, 1000, func(i int) error {
		count.Add(1)
		if i == 10 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || count.Load() != 11 {
		t.Fatalf("serial: err=%v count=%d, want 11", err, count.Load())
	}
	count.Store(0)
	err = DoItemsErr(4, 100000, func(i int) error {
		if i == 0 {
			return fmt.Errorf("boom")
		}
		count.Add(1)
		return nil
	})
	if err == nil {
		t.Fatal("parallel: expected error")
	}
	if got := count.Load(); got > 1000 {
		t.Fatalf("parallel: %d items ran after the first error — workers did not stop claiming", got)
	}
}

func TestErrVariantsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		DoErr(8, 64, func(lo, hi int) error { return fmt.Errorf("x") })
		DoItemsErr(8, 64, func(i int) error { return fmt.Errorf("x") })
	}
	// Both helpers join every worker before returning, so the count must be
	// back at (or below) the baseline immediately.
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutines grew from %d to %d after failed runs", base, got)
	}
}

// TestWorkerPanicReachesCaller: a panic inside a worker is recovered there,
// every worker is joined, and the panic from the smallest index is re-raised
// on the calling goroutine with its original value — so the caller's own
// recover contains it on the parallel path exactly as on the serial one.
func TestWorkerPanicReachesCaller(t *testing.T) {
	const n = 64
	helpers := map[string]func(workers int, fn func(i int) error){
		"Do": func(w int, fn func(i int) error) {
			Do(w, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					_ = fn(i)
				}
			})
		},
		"DoErr": func(w int, fn func(i int) error) {
			_ = DoErr(w, n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					if err := fn(i); err != nil {
						return err
					}
				}
				return nil
			})
		},
		"DoItems": func(w int, fn func(i int) error) {
			DoItems(w, n, func(i int) { _ = fn(i) })
		},
		"DoItemsErr": func(w int, fn func(i int) error) { _ = DoItemsErr(w, n, fn) },
	}
	for name, run := range helpers {
		for _, workers := range []int{1, 4} {
			// Items 40 and 50 both panic; the chunked helpers split 64 items
			// into 16-item chunks at 4 workers, so each sits in its own
			// chunk and the smaller index must win.
			var running atomic.Int32
			got := func() (r any) {
				defer func() { r = recover() }()
				run(workers, func(i int) error {
					running.Add(1)
					defer running.Add(-1)
					if i == 40 || i == 50 {
						panic(fmt.Sprintf("boom %d", i))
					}
					return nil
				})
				return nil
			}()
			if got != "boom 40" {
				t.Fatalf("%s workers=%d: recovered %v, want boom 40", name, workers, got)
			}
			if r := running.Load(); r != 0 {
				t.Fatalf("%s workers=%d: %d workers still running after the panic reached the caller", name, workers, r)
			}
		}
	}
}

// TestWorkerPanicBeatsLaterError: errors and panics share one fold, so an
// error at a smaller index wins over a later panic and vice versa.
func TestWorkerPanicBeatsLaterError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := DoItemsErr(workers, 64, func(i int) error {
			switch i {
			case 10:
				return fmt.Errorf("item %d", i)
			case 60:
				panic("late")
			}
			return nil
		})
		if err == nil || err.Error() != "item 10" {
			t.Fatalf("workers=%d: got %v, want item 10", workers, err)
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = DoItemsErr(workers, 64, func(i int) error {
				switch i {
				case 10:
					panic("early")
				case 60:
					return fmt.Errorf("late")
				}
				return nil
			})
			return nil
		}()
		if got != "early" {
			t.Fatalf("workers=%d: recovered %v, want early", workers, got)
		}
	}
}
