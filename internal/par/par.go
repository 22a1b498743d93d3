// Package par is the tiny fork-join helper behind Options.Parallelism: the
// extraction kernels shard their O(n²)/O(n·k) loops over a bounded set of
// goroutines. Callers keep per-shard writes disjoint and fold shard results
// with index tie-breaks, so every pipeline result is bit-identical to a
// serial run at any worker count.
//
// Failure containment: every helper recovers a panic inside each worker,
// joins all workers, and re-raises the panic from the smallest index on the
// calling goroutine — so a caller's deferred recover sees a worker panic
// exactly as it would on the serial path, and no panic escapes on a
// goroutine nobody can recover.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a Parallelism option: values <= 0 mean one worker per
// available CPU (runtime.GOMAXPROCS(0)).
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Do splits [0, n) into one contiguous chunk per worker and runs fn(lo, hi)
// on each concurrently. With one worker (or n <= 1) it runs inline with no
// goroutine or allocation. Use for loops whose per-index cost is roughly
// uniform.
func Do(workers, n int, fn func(lo, hi int)) {
	if Workers(workers) <= 1 || n <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	_ = DoErr(workers, n, func(lo, hi int) error {
		fn(lo, hi)
		return nil
	})
}

// DoItems runs fn(i) for every i in [0, n), handing indexes to workers
// dynamically through an atomic counter. Use for loops with uneven per-index
// cost (e.g. triangular distance-matrix rows, where early rows hold more
// pairs than late ones). With one worker it runs inline in index order.
func DoItems(workers, n int, fn func(i int)) {
	if Workers(workers) <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	_ = DoItemsErr(workers, n, func(i int) error {
		fn(i)
		return nil
	})
}

// failures folds worker outcomes deterministically: the error or panic at
// the smallest index wins, no matter which worker reports first.
type failures struct {
	mu       sync.Mutex
	set      bool
	idx      int
	err      error
	panicked bool
	val      any
}

func (f *failures) record(i int, err error, panicked bool, val any) {
	f.mu.Lock()
	if !f.set || i < f.idx {
		f.set, f.idx, f.err, f.panicked, f.val = true, i, err, panicked, val
	}
	f.mu.Unlock()
}

// catch is deferred by every worker: it records a panic raised while the
// worker was at index *i. stop, when non-nil, keeps the other workers from
// claiming fresh indexes.
func (f *failures) catch(i *int, stop *atomic.Bool) {
	if r := recover(); r != nil {
		f.record(*i, nil, true, r)
		if stop != nil {
			stop.Store(true)
		}
	}
}

// result re-raises the winning panic on the caller's goroutine, or returns
// the winning error. Call it only after every worker has been joined.
func (f *failures) result() error {
	if f.panicked {
		panic(f.val)
	}
	return f.err
}

// DoErr is Do with error propagation: chunks run concurrently, and the first
// error (by chunk start index, so the choice is deterministic) is returned.
// Chunks that already started still run to completion — fn is responsible for
// its own early exit (typically by consulting the same cancellation check
// that made a sibling fail) — and every worker is joined before DoErr
// returns, so cancellation never leaks goroutines.
func DoErr(workers, n int, fn func(lo, hi int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			return fn(0, n)
		}
		return nil
	}
	chunk := (n + workers - 1) / workers
	var col failures
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer col.catch(&lo, nil)
			if err := fn(lo, hi); err != nil {
				col.record(lo, err, false, nil)
			}
		}(lo, hi)
	}
	wg.Wait()
	return col.result()
}

// DoItemsErr is DoItems with error propagation and early stop: once any item
// fails, workers stop claiming new indexes, drain, and the error produced at
// the smallest index is returned. All workers are joined before return — a
// cancelled run leaves no goroutines behind. With one worker it runs inline
// in index order and stops at the first error.
func DoItemsErr(workers, n int, fn func(i int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	var col failures
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1
			defer col.catch(&i, &stop)
			for !stop.Load() {
				i = int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					col.record(i, err, false, nil)
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return col.result()
}
