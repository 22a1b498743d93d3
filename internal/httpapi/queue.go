// Batched write pipeline: every session mutation is enqueued on a per-session
// mutation queue and applied by that session's single drainer goroutine,
// which drains bursts as one batch — one coalesced compile.Apply, one WAL
// group append (one fsync under the sync policy), one head swap — completing
// all covered jobs at once. Requests pick ?mode=sync (default: respond after
// the batch commits, durability before acknowledgment unchanged) or
// ?mode=async (202 + job id immediately; GET /v1/session/{id}/job/{jobID}
// reports queued/applied/failed). A full queue sheds load with 429 +
// Retry-After.
//
// Single writer: a.queues is keyed by session id and enqueue starts a
// drainer only when none is active, so each session has exactly one drainer,
// and applySessionBatch — run only by that drainer — is the only code that
// advances a session's head. Lock order: a.queuesMu > q.mu for enqueue; the
// drainer takes q.mu alone, then s.mu only around the head read and the
// persist-and-swap.
package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"schemex"
)

// DefaultQueueDepth bounds queued-but-unapplied mutations per session when
// Config leaves QueueDepth unset; past it the server sheds with 429.
const DefaultQueueDepth = 1024

// DefaultBatchMax caps how many queued deltas one drainer pass applies as a
// single batch when Config leaves BatchMax unset.
const DefaultBatchMax = 256

// doneRetain bounds terminal jobs remembered per session for the job-status
// endpoint; older outcomes expire (the endpoint then reports 404).
const doneRetain = 1024

// Job states on the wire.
const (
	jobQueued  = "queued"
	jobApplied = "applied"
	jobFailed  = "failed"
)

// job is one accepted mutation. Its terminal fields (status, resp, err) are
// written under the owning queue's mutex before done is closed; a sync waiter
// reads them after <-done, the status endpoint under the queue mutex.
type job struct {
	id    uint64
	delta *schemex.Delta
	done  chan struct{}

	status    string
	resp      *mutateResponse
	errStatus int
	err       error
}

// mutQueue is one session's mutation queue: a FIFO of accepted jobs, the
// in-flight batch, and a bounded memory of terminal outcomes. active marks a
// live drainer; exactly one runs per queue.
type mutQueue struct {
	id string

	mu       sync.Mutex
	jobs     []*job
	inflight []*job
	nextID   uint64
	active   bool
	done     map[uint64]*job
	doneIDs  []uint64
}

// enqueue admits one mutation to the session's queue, lazily starting the
// drainer. Returns the job, or (0, status, error) when shedding (429 on a
// full queue, 503 during shutdown).
func (a *api) enqueue(id string, d *schemex.Delta) (*job, int, error) {
	a.queuesMu.Lock()
	if a.queuesClosed {
		a.queuesMu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server shutting down")
	}
	q, ok := a.queues[id]
	if !ok {
		q = &mutQueue{id: id, done: make(map[uint64]*job)}
		a.queues[id] = q
	}
	q.mu.Lock()
	if len(q.jobs) >= a.queueDepth {
		q.mu.Unlock()
		a.queuesMu.Unlock()
		metricQueueShed.Add(1)
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("session %s: mutation queue full (%d queued); retry later", id, a.queueDepth)
	}
	q.nextID++
	j := &job{id: q.nextID, delta: d, done: make(chan struct{}), status: jobQueued}
	q.jobs = append(q.jobs, j)
	depth := len(q.jobs)
	start := !q.active
	if start {
		q.active = true
		// Registered under queuesMu, where closeQueues also runs: a drainer
		// can never start after Server.Close has begun waiting.
		a.queueWG.Add(1)
	}
	q.mu.Unlock()
	a.queuesMu.Unlock()
	setQueueDepth(id, depth)
	if start {
		go a.drainQueue(q)
	}
	return j, 0, nil
}

// dropQueue forgets a session's queue (DELETE). A live drainer keeps its
// pointer and finishes the jobs it already holds — they fail terminally once
// the session is gone — so nothing is ever left "queued" silently.
func (a *api) dropQueue(id string) {
	a.queuesMu.Lock()
	delete(a.queues, id)
	a.queuesMu.Unlock()
	setQueueDepth(id, 0)
}

// drainQueue is the session's single drainer: it repeatedly pops up to
// batchMax queued jobs and applies them as one batch, exiting when the queue
// is empty. Server.Close waits for every drainer, so queued jobs always reach
// a terminal state before the WAL closes.
func (a *api) drainQueue(q *mutQueue) {
	defer a.queueWG.Done()
	for {
		if a.batchWindow > 0 {
			// Let a burst accumulate so one pass covers it.
			time.Sleep(a.batchWindow)
		}
		q.mu.Lock()
		n := len(q.jobs)
		if n == 0 {
			q.active = false
			q.mu.Unlock()
			setQueueDepth(q.id, 0)
			return
		}
		if n > a.batchMax {
			n = a.batchMax
		}
		batch := make([]*job, n)
		copy(batch, q.jobs)
		q.jobs = q.jobs[n:]
		q.inflight = batch
		depth := len(q.jobs)
		q.mu.Unlock()
		setQueueDepth(q.id, depth)
		recordBatchSize(n)

		a.applyJobs(q, batch)

		q.mu.Lock()
		q.inflight = nil
		q.mu.Unlock()
	}
}

// applyJobs applies one popped batch. The happy path lands every job with the
// batch's single apply; a failing batch of more than one job falls back to
// per-job application so each good delta still commits (in order) and the bad
// one fails with its exact error — the same per-request semantics as before
// batching.
func (a *api) applyJobs(q *mutQueue, jobs []*job) {
	deltas := make([]*schemex.Delta, len(jobs))
	for i, j := range jobs {
		deltas[i] = j.delta
	}
	resp, status, err := a.applySessionBatch(q.id, deltas)
	if err == nil {
		// Every covered job sees the batch-final state: version and counts
		// after the whole batch, not its own delta alone.
		for _, j := range jobs {
			q.finish(j, resp, 0, nil)
		}
		return
	}
	if len(jobs) == 1 {
		q.finish(jobs[0], nil, status, err)
		return
	}
	for _, j := range jobs {
		r, st, err := a.applySessionBatch(q.id, []*schemex.Delta{j.delta})
		q.finish(j, r, st, err)
	}
}

// finish records a job's terminal state and wakes its waiters.
func (q *mutQueue) finish(j *job, resp *mutateResponse, status int, err error) {
	q.mu.Lock()
	if err != nil {
		j.status, j.errStatus, j.err = jobFailed, status, err
	} else {
		j.status, j.resp = jobApplied, resp
	}
	q.done[j.id] = j
	q.doneIDs = append(q.doneIDs, j.id)
	if len(q.doneIDs) > doneRetain {
		delete(q.done, q.doneIDs[0])
		q.doneIDs = q.doneIDs[1:]
	}
	q.mu.Unlock()
	close(j.done)
}

// applySessionBatch applies one batch of deltas to the session: one
// ApplyBatch compiles the whole batch outside the session mutex, then one
// group append makes all N deltas durable before the head advances. The
// caller is the session's drainer, the only writer of s.prep, so the head
// read before the apply is still the head at the swap; the one event that
// can intervene is an LRU eviction, after which the batch is retried on the
// rehydrated copy. On error nothing is committed and the caller decides
// between failing the job and per-job fallback.
func (a *api) applySessionBatch(id string, deltas []*schemex.Delta) (*mutateResponse, int, error) {
	s, ok := a.sessions.get(id)
	if !ok && a.dataDir != "" {
		s, ok = a.rehydrate(id)
	}
	if !ok {
		return nil, http.StatusNotFound, errUnknownSession(id)
	}
	for {
		s.mu.Lock()
		for s.evicted {
			// Flushed by the LRU (or deleted) since we resolved it. Durable
			// sessions still exist on disk: re-resolve and retry on the fresh
			// copy. In-memory ones are gone.
			s.mu.Unlock()
			if a.dataDir == "" {
				return nil, http.StatusNotFound, errUnknownSession(s.id)
			}
			if s, ok = a.rehydrate(s.id); !ok {
				return nil, http.StatusNotFound, errUnknownSession(id)
			}
			s.mu.Lock()
		}
		cur := s.prep
		s.mu.Unlock()

		next, info, err := cur.ApplyBatchContext(context.Background(), deltas...)
		if err != nil {
			// Nothing committed: a bad delta rejects the batch atomically.
			return nil, http.StatusUnprocessableEntity, err
		}

		s.mu.Lock()
		if s.evicted {
			s.mu.Unlock()
			continue
		}
		// Durability before acknowledgment, batch-wide: all N delta records
		// are appended (one write, one fsync under the default policy) before
		// the session advances and any covered job is acknowledged. A failed
		// append leaves the session on its old state with every job
		// unacknowledged.
		if err := s.persistLocked(a, deltas, next); err != nil {
			s.mu.Unlock()
			return nil, http.StatusInternalServerError, fmt.Errorf("logging delta batch: %v", err)
		}
		s.prep = next
		s.mu.Unlock()

		if info.Incremental {
			metricApplyIncremental.Add(1)
		} else {
			metricApplyFallback.Add(1)
		}
		return &mutateResponse{
			sessionInfo:    infoOf(s, next),
			Incremental:    info.Incremental,
			TouchedObjects: info.TouchedObjects,
			NewObjects:     info.NewObjects,
		}, 0, nil
	}
}

// jobStatusResponse reports one mutation job on the wire.
type jobStatusResponse struct {
	Session string `json:"session"`
	Job     uint64 `json:"job"`
	Status  string `json:"status"` // queued | applied | failed
	// Version is the session version the job's batch committed (applied only).
	Version uint64          `json:"version,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  *mutateResponse `json:"result,omitempty"`
}

// handleJobStatus serves GET /v1/session/{id}/job/{jobID}: queued (accepted,
// not yet terminal — including in-flight), applied (with the committed batch
// result), failed (with the error), or 404 for a job that was never accepted
// or whose outcome has expired from the bounded memory.
func (a *api) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jobID, err := strconv.ParseUint(r.PathValue("jobID"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("jobID")))
		return
	}
	a.queuesMu.Lock()
	q := a.queues[id]
	a.queuesMu.Unlock()
	if q == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %d for session %q", jobID, id))
		return
	}
	resp := jobStatusResponse{Session: id, Job: jobID}
	q.mu.Lock()
	switch j, ok := q.done[jobID]; {
	case ok && j.err != nil:
		resp.Status, resp.Error = jobFailed, j.err.Error()
	case ok:
		resp.Status, resp.Version, resp.Result = jobApplied, j.resp.Version, j.resp
	default:
		for _, pending := range [2][]*job{q.jobs, q.inflight} {
			for _, pj := range pending {
				if pj.id == jobID {
					resp.Status = jobQueued
				}
			}
		}
	}
	q.mu.Unlock()
	if resp.Status == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %d for session %q (never accepted, or outcome expired)", jobID, id))
		return
	}
	writeJSON(w, resp)
}
