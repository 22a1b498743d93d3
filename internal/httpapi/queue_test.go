package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func getJSON(t *testing.T, srv *httptest.Server, path string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]interface{} {
	t.Helper()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

// mutateAsync posts one delta in async mode and returns the accepted job id.
func mutateAsync(t *testing.T, srv *httptest.Server, id, delta string) uint64 {
	t.Helper()
	status, out := post(t, srv, "/v1/session/"+id+"/mutate?mode=async",
		mustJSON(t, map[string]interface{}{"delta": delta}))
	if status != http.StatusAccepted {
		t.Fatalf("async mutate status %d: %v", status, out)
	}
	if out["status"] != jobQueued {
		t.Fatalf("async mutate status field %v", out["status"])
	}
	return uint64(out["job"].(float64))
}

// pollJob polls the job-status endpoint until the job leaves "queued".
func pollJob(t *testing.T, srv *httptest.Server, id string, job uint64) map[string]interface{} {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, out := getJSON(t, srv, fmt.Sprintf("/v1/session/%s/job/%d", id, job))
		if status != 200 {
			t.Fatalf("job status %d: %v", status, out)
		}
		if out["status"] != jobQueued {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck queued", job)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sessionVersion(t *testing.T, srv *httptest.Server, id string) float64 {
	t.Helper()
	status, out := getJSON(t, srv, "/v1/session/"+id)
	if status != 200 {
		t.Fatalf("session get status %d: %v", status, out)
	}
	return out["version"].(float64)
}

// TestMutateAsyncLifecycle drives a burst through the async path: every
// mutation is accepted with 202 + a job id, every job reaches "applied" via
// the status endpoint, and the burst lands in fewer drainer passes than jobs
// (i.e. it actually batched).
func TestMutateAsyncLifecycle(t *testing.T) {
	a := newAPI(Config{BatchWindow: 100 * time.Millisecond})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()
	id := createSession(t, srv, sampleText)

	queueMetrics.mu.Lock()
	batchesBefore := queueMetrics.batches.count
	queueMetrics.mu.Unlock()

	const n = 8
	jobs := make([]uint64, n)
	for i := range jobs {
		jobs[i] = mutateAsync(t, srv, id, nthDelta(i))
	}
	for _, job := range jobs {
		out := pollJob(t, srv, id, job)
		if out["status"] != jobApplied {
			t.Fatalf("job %d: %v", job, out)
		}
		if out["version"].(float64) < 1 {
			t.Fatalf("applied job %d missing version: %v", job, out)
		}
	}
	if v := sessionVersion(t, srv, id); v != n {
		t.Fatalf("final version %v, want %d", v, n)
	}

	queueMetrics.mu.Lock()
	batches := queueMetrics.batches.count - batchesBefore
	queueMetrics.mu.Unlock()
	if batches >= n {
		t.Fatalf("burst of %d took %d drainer passes: no batching happened", n, batches)
	}

	// Job-status edge cases.
	if status, _ := getJSON(t, srv, "/v1/session/"+id+"/job/9999"); status != 404 {
		t.Fatalf("unknown job id: status %d", status)
	}
	if status, _ := getJSON(t, srv, "/v1/session/"+id+"/job/abc"); status != 400 {
		t.Fatalf("malformed job id: status %d", status)
	}
	if status, _ := getJSON(t, srv, "/v1/session/deadbeef/job/1"); status != 404 {
		t.Fatalf("unknown session: status %d", status)
	}
	status, _ := post(t, srv, "/v1/session/"+id+"/mutate?mode=bogus",
		mustJSON(t, map[string]interface{}{"delta": nthDelta(99)}))
	if status != 400 {
		t.Fatalf("bogus mode: status %d", status)
	}
}

// TestMutateSyncBatchEquivalence fires a concurrent sync burst at a batching
// server and the same deltas sequentially at a BatchMax=1 (per-request)
// server: every request succeeds and the two sessions end bit-identical.
func TestMutateSyncBatchEquivalence(t *testing.T) {
	batched := newAPI(Config{BatchWindow: 30 * time.Millisecond})
	srvB := httptest.NewServer(batched.routes())
	defer srvB.Close()
	serial := newAPI(Config{BatchMax: 1})
	srvS := httptest.NewServer(serial.routes())
	defer srvS.Close()

	idB := createSession(t, srvB, sampleText)
	idS := createSession(t, srvS, sampleText)

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, out := post(t, srvB, "/v1/session/"+idB+"/mutate",
				mustJSON(t, map[string]interface{}{"delta": nthDelta(i)}))
			if status != 200 {
				errs <- fmt.Errorf("mutate %d: status %d: %v", i, status, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mutateOK(t, srvS, idS, nthDelta(i))
	}

	if vb, vs := sessionVersion(t, srvB, idB), sessionVersion(t, srvS, idS); vb != n || vs != n {
		t.Fatalf("versions batched=%v serial=%v, want %d", vb, vs, n)
	}
	if gb, gs := extractSchema(t, srvB, idB), extractSchema(t, srvS, idS); gb != gs {
		t.Fatalf("batched and per-request schemas diverge:\n%s\nvs\n%s", gb, gs)
	}
}

// TestMutateQueueBackpressure fills a depth-2 queue behind a slow drainer:
// overflow requests shed with 429 + Retry-After and bump the shed counter,
// while every accepted job still applies.
func TestMutateQueueBackpressure(t *testing.T) {
	a := newAPI(Config{QueueDepth: 2, BatchWindow: 300 * time.Millisecond})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()
	id := createSession(t, srv, sampleText)

	shedBefore := metricQueueShed.Value()
	body := func(i int) string {
		return mustJSON(t, map[string]interface{}{"delta": nthDelta(i)})
	}
	var accepted []uint64
	sheds := 0
	for i := 0; i < 6; i++ {
		resp, err := http.Post(srv.URL+"/v1/session/"+id+"/mutate?mode=async",
			"application/json", strings.NewReader(body(i)))
		if err != nil {
			t.Fatal(err)
		}
		out := decodeBody(t, resp)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted = append(accepted, uint64(out["job"].(float64)))
		case http.StatusTooManyRequests:
			sheds++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After")
			}
		default:
			t.Fatalf("mutate %d: status %d: %v", i, resp.StatusCode, out)
		}
	}
	if sheds == 0 || len(accepted) == 0 {
		t.Fatalf("expected both accepts and sheds, got %d accepted / %d shed", len(accepted), sheds)
	}
	if got := metricQueueShed.Value() - shedBefore; got < int64(sheds) {
		t.Fatalf("shed metric advanced %d, want >= %d", got, sheds)
	}
	for _, job := range accepted {
		if out := pollJob(t, srv, id, job); out["status"] != jobApplied {
			t.Fatalf("accepted job %d: %v", job, out)
		}
	}
	if v := sessionVersion(t, srv, id); v != float64(len(accepted)) {
		t.Fatalf("final version %v, want %d", v, len(accepted))
	}
}

// TestMutateBatchPartialFailure lands a good/bad/good burst in one batch: the
// batch apply rejects, the per-job fallback commits both good deltas in order
// and fails only the bad one — the same semantics as three serial requests.
func TestMutateBatchPartialFailure(t *testing.T) {
	a := newAPI(Config{BatchWindow: 150 * time.Millisecond})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()
	id := createSession(t, srv, sampleText)

	good1 := mutateAsync(t, srv, id, nthDelta(0))
	bad := mutateAsync(t, srv, id, "unlink gates apple nope\n")
	good2 := mutateAsync(t, srv, id, nthDelta(1))

	if out := pollJob(t, srv, id, good1); out["status"] != jobApplied {
		t.Fatalf("good1: %v", out)
	}
	out := pollJob(t, srv, id, bad)
	if out["status"] != jobFailed || out["error"] == nil {
		t.Fatalf("bad job: %v", out)
	}
	if out := pollJob(t, srv, id, good2); out["status"] != jobApplied {
		t.Fatalf("good2: %v", out)
	}
	if v := sessionVersion(t, srv, id); v != 2 {
		t.Fatalf("final version %v, want 2", v)
	}
}

// TestServerCloseDrainsQueuedJobs is the graceful-shutdown regression: Close
// must let the drainer flush jobs that are still queued, so no accepted job
// is left "queued" and every applied one is durable for the next server over
// the same DataDir.
func TestServerCloseDrainsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, Config{
		DataDir:     dir,
		SyncEvery:   8, // batched fsync policy: Close must still flush
		BatchWindow: 200 * time.Millisecond,
	})
	id := createSession(t, ts, sampleText)

	const n = 12
	for i := 0; i < n; i++ {
		mutateAsync(t, ts, id, nthDelta(i))
	}
	// Close while the drainer is still inside its batch window, with all n
	// jobs queued behind it.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	applied := 0
	s.a.queuesMu.Lock()
	for _, q := range s.a.queues {
		q.mu.Lock()
		if len(q.jobs) != 0 || q.inflight != nil {
			q.mu.Unlock()
			s.a.queuesMu.Unlock()
			t.Fatalf("jobs still pending after Close")
		}
		for _, j := range q.done {
			switch j.status {
			case jobApplied:
				applied++
			case jobQueued:
				q.mu.Unlock()
				s.a.queuesMu.Unlock()
				t.Fatalf("job %d left queued after Close", j.id)
			}
		}
		q.mu.Unlock()
	}
	s.a.queuesMu.Unlock()
	if applied != n {
		t.Fatalf("%d jobs applied across Close, want %d", applied, n)
	}

	// Every job acknowledged as applied must have survived the restart.
	_, ts2 := durableServer(t, Config{DataDir: dir})
	if v := sessionVersion(t, ts2, id); v != n {
		t.Fatalf("recovered version %v, want %d", v, n)
	}
}

// TestQueueStress hammers one session from many async producers; CI also runs
// it under -race with SCHEMEX_TEST_SHARDS=4 to cross the batch path with
// multi-shard snapshots. Every job must terminate applied and the version
// must account for every producer's every delta.
func TestQueueStress(t *testing.T) {
	a := newAPI(Config{BatchWindow: 10 * time.Millisecond})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()
	id := createSession(t, srv, sampleText)

	const producers, each = 6, 8
	var mu sync.Mutex
	var jobs []uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				job := mutateAsync(t, srv, id, nthDelta(p*each+i))
				mu.Lock()
				jobs = append(jobs, job)
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	for _, job := range jobs {
		if out := pollJob(t, srv, id, job); out["status"] != jobApplied {
			t.Fatalf("job %d: %v", job, out)
		}
	}
	if v := sessionVersion(t, srv, id); v != producers*each {
		t.Fatalf("final version %v, want %d", v, producers*each)
	}
}

// TestMetricsSurfaceQueue asserts the new observability lands on /v1/metrics:
// per-route percentiles under schemex_http (keyed by mux pattern) and the
// write-pipeline gauges under schemex_queue.
func TestMetricsSurfaceQueue(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	id := createSession(t, srv, sampleText)
	mutateOK(t, srv, id, nthDelta(0))

	status, out := getJSON(t, srv, "/v1/metrics")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	httpStats, ok := out["schemex_http"].(map[string]interface{})
	if !ok {
		t.Fatalf("schemex_http missing: %v", out["schemex_http"])
	}
	route, ok := httpStats["POST /v1/session/{id}/mutate"].(map[string]interface{})
	if !ok {
		t.Fatalf("mutate route missing from schemex_http: %v", httpStats)
	}
	for _, k := range []string{"count", "latencyMsP50", "latencyMsP90", "latencyMsP99", "bytesP50", "bytesP99"} {
		if _, ok := route[k]; !ok {
			t.Fatalf("mutate route stats missing %q: %v", k, route)
		}
	}
	if route["count"].(float64) < 1 {
		t.Fatalf("mutate route count %v", route["count"])
	}
	qStats, ok := out["schemex_queue"].(map[string]interface{})
	if !ok {
		t.Fatalf("schemex_queue missing: %v", out["schemex_queue"])
	}
	if qStats["batches"].(float64) < 1 {
		t.Fatalf("no batches recorded: %v", qStats)
	}
	if _, ok := qStats["depth"].(map[string]interface{}); !ok {
		t.Fatalf("queue depth gauge missing: %v", qStats)
	}
}
