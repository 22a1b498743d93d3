package main

import "fmt"

// replayOps is how many operations the stateless replays cover: enough for
// a median with its ten-sample tail.
const replayOps = 2*minTail + 4

// replayer runs operation i of a replay, with spans when tr is not nil. It
// returns the operation's time when the operation is of the kind whose HTTP
// latency the run reports, and -1 otherwise.
type replayer func(tr *tracer, i int) (float64, error)

// finishReplay runs operations first .. first+ops-1 on two replayers, one
// untraced and one traced, and, when httpOp is not nil, the same operations
// over HTTP. Which side goes first alternates from one operation to the
// next, so that none gains from running warm on data another just used. It
// fills the span-derived layer metrics, the tracing overhead (traced minus
// untraced replay time per operation) and the HTTP layer's overhead: the
// median of HTTP minus untraced replay time per operation, or without
// httpOp the untraced run's p50 request latency (httpMS) minus the untraced
// replay's p50.
func finishReplay(out *outcome, newReplayer func() (replayer, error), first, ops int, httpMS []float64, httpOp func(i int) (float64, error)) error {
	plain, err := newReplayer()
	if err != nil {
		return err
	}
	traced, err := newReplayer()
	if err != nil {
		return err
	}
	tr := newTracer()
	var plainMS, httpDiff []float64
	var traceDiff float64
	for i := first; i < first+ops; i++ {
		var a, b, h float64
		runPlain := func() (err error) { a, err = plain(nil, i); return err }
		runTraced := func() (err error) { b, err = traced(tr, i); return err }
		runHTTP := func() (err error) {
			h = -1
			if httpOp != nil {
				h, err = httpOp(i)
			}
			return err
		}
		order := []func() error{runHTTP, runPlain, runTraced}
		if i%2 == 1 {
			order = []func() error{runTraced, runPlain, runHTTP}
		}
		for _, run := range order {
			if err := run(); err != nil {
				return fmt.Errorf("replay op %d: %v", i, err)
			}
		}
		if a >= 0 {
			plainMS = append(plainMS, a)
			traceDiff += b - a
			if h >= 0 {
				httpDiff = append(httpDiff, h-a)
			}
		}
	}
	out.tr = tr
	if err := layerTimes(tr, out.layers); err != nil {
		return err
	}
	out.layers["trace.overhead_ms"] = traceDiff / float64(len(plainMS))
	if httpOp != nil {
		out.layers["httpapi.overhead_ms"], err = percentile(httpDiff, 50)
		return err
	}
	hp, err := percentile(httpMS, 50)
	if err != nil {
		return err
	}
	pp, err := percentile(plainMS, 50)
	if err != nil {
		return err
	}
	out.layers["httpapi.overhead_ms"] = hp - pp
	return nil
}
