package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/wal"
)

// chainData renders a chain graph n0 -> n1 -> ... -> n<n-1> in the text
// format: n objects, n-1 links, IDs assigned in name order so the object-ID
// ranges of the snapshot's shards are predictable.
func chainData(n int) string {
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "link n%d n%d next\n", i, i+1)
	}
	return b.String()
}

// TestSessionConcurrentShardedMutate hammers one multi-shard session with
// concurrent mutations that land on different shards. Every delta must be
// applied exactly once — the session's single drainer serializes them, it
// never drops an edit — so the final version and link count are exact.
func TestSessionConcurrentShardedMutate(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	id := createSession(t, srv, chainData(256))

	status, out := post(t, srv, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 1},
	}))
	if status != 200 {
		t.Fatalf("baseline extract status %d: %v", status, out)
	}

	const goroutines, perG = 8, 5
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				// Each goroutine links objects inside its own 32-object
				// region, so footprints of different goroutines usually map
				// to different shards (and never duplicate a chain edge).
				delta := fmt.Sprintf("link n%d n%d next\n", g*32+j, g*32+j+16)
				body := mustJSON(t, map[string]interface{}{"delta": delta})
				resp, err := http.Post(srv.URL+"/v1/session/"+id+"/mutate", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("goroutine %d delta %d: status %d: %s", g, j, resp.StatusCode, buf.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if v := info["version"].(float64); v != goroutines*perG {
		t.Errorf("version = %v, want %d (a concurrent mutation was dropped)", v, goroutines*perG)
	}
	if l := info["links"].(float64); l != 255+goroutines*perG {
		t.Errorf("links = %v, want %d", l, 255+goroutines*perG)
	}
	if sh := info["shards"].(float64); sh != 4 {
		t.Errorf("shards = %v, want 4 (%s not honored)", sh, compile.TestShardsEnv)
	}

	// The mutated session still extracts: concurrent mutation never leaves
	// a half-applied snapshot visible.
	status, out = post(t, srv, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 1},
	}))
	if status != 200 {
		t.Fatalf("final extract status %d: %v", status, out)
	}
}

// TestMetricsEndpoint: /v1/metrics serves the expvar surface and the schemex
// counters move with traffic. Counters are process-global, so the test
// asserts deltas, never absolutes.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	read := func() map[string]float64 {
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		var all map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for k, v := range all {
			if f, ok := v.(float64); ok && strings.HasPrefix(k, "schemex_") {
				out[k] = f
			}
		}
		return out
	}

	before := read()
	for _, k := range []string{
		"schemex_snapshot_cache_hits", "schemex_snapshot_cache_misses", "schemex_snapshot_cache_evictions",
		"schemex_session_store_hits", "schemex_session_store_misses", "schemex_session_store_evictions",
		"schemex_apply_incremental", "schemex_apply_fallback",
	} {
		if _, ok := before[k]; !ok {
			t.Errorf("metrics endpoint missing %s", k)
		}
	}

	// Two identical extracts: one snapshot-cache miss then one hit.
	req := mustJSON(t, map[string]interface{}{"data": sampleText, "options": map[string]interface{}{"k": 2}})
	for i := 0; i < 2; i++ {
		if status, out := post(t, srv, "/v1/extract", req); status != 200 {
			t.Fatalf("extract status %d: %v", status, out)
		}
	}
	// One incremental mutate and one fallback (new label) mutate.
	id := createSession(t, srv, sampleText)
	mutateOK(t, srv, id, nthDelta(1))
	mutateOK(t, srv, id, "link gates jobs rival\n")

	after := read()
	diff := func(k string) float64 { return after[k] - before[k] }
	if diff("schemex_snapshot_cache_misses") < 1 || diff("schemex_snapshot_cache_hits") < 1 {
		t.Errorf("snapshot cache counters did not move: before=%v after=%v", before, after)
	}
	if diff("schemex_session_store_hits") < 2 {
		t.Errorf("session store hits moved by %v, want >= 2", diff("schemex_session_store_hits"))
	}
	if diff("schemex_apply_incremental") < 1 || diff("schemex_apply_fallback") < 1 {
		t.Errorf("apply counters did not move: incremental +%v, fallback +%v",
			diff("schemex_apply_incremental"), diff("schemex_apply_fallback"))
	}
}

// TestSpillBytesTrigger: with SpillBytes=1 every logged delta pushes the log
// past the byte threshold, so each mutation rotates to a fresh snapshot
// generation even though SpillEvery is far away.
func TestSpillBytesTrigger(t *testing.T) {
	dir := t.TempDir()
	_, ts := durableServer(t, Config{DataDir: dir, SpillEvery: 1000, SpillBytes: 1})
	id := createSession(t, ts, sampleText)

	for i := 1; i <= 3; i++ {
		mutateOK(t, ts, id, nthDelta(i))
		m, err := wal.ReadManifest(filepath.Join(dir, sessionsSubdir, id))
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != uint64(i) {
			t.Fatalf("after delta %d: manifest at version %d, want %d (byte spill did not rotate)", i, m.Version, i)
		}
		if m.Snapshot != fmt.Sprintf("snapshot-%d.graph", i) {
			t.Fatalf("after delta %d: snapshot %s", i, m.Snapshot)
		}
	}
	// Old generations are retired: exactly one graph snapshot, one core blob,
	// and one log remain, and every generation file (shard files included)
	// belongs to the current version.
	entries, err := os.ReadDir(filepath.Join(dir, sessionsSubdir, id))
	if err != nil {
		t.Fatal(err)
	}
	snaps, cores, logs, shards := 0, 0, 0, 0
	for _, e := range entries {
		n := e.Name()
		switch {
		case strings.HasSuffix(n, ".graph"):
			snaps++
		case strings.HasSuffix(n, ".core"):
			cores++
		case strings.HasPrefix(n, "wal-"):
			logs++
		case strings.HasPrefix(n, "shard-"):
			shards++
		}
		if n != wal.ManifestName && !strings.Contains(n, "-3") {
			t.Errorf("stale generation file survived cleanup: %s", n)
		}
	}
	if snaps != 1 || cores != 1 || logs != 1 || shards < 1 {
		t.Fatalf("generation cleanup: %d graphs, %d cores, %d logs, %d shards (want 1/1/1/>=1)",
			snaps, cores, logs, shards)
	}
}

// TestRecoverManySessionsPooled: startup recovery over more sessions than
// the worker cap rehydrates every one of them, at any pool width.
func TestRecoverManySessionsPooled(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})
	const n = DefaultRecoverConcurrency + 4
	ids := make([]string, n)
	for i := range ids {
		ids[i] = createSession(t, ts1, sampleText)
		mutateOK(t, ts1, ids[i], nthDelta(i))
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 0} { // 0 = default pool width
		s2, err := NewServer(Config{DataDir: dir, RecoverConcurrency: workers})
		if err != nil {
			t.Fatalf("RecoverConcurrency=%d: %v", workers, err)
		}
		if got := s2.a.sessions.len(); got != n {
			t.Errorf("RecoverConcurrency=%d: recovered %d sessions, want %d", workers, got, n)
		}
		ts2 := httptest.NewServer(s2.Handler())
		for _, id := range ids {
			resp, err := http.Get(ts2.URL + "/v1/session/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var info map[string]interface{}
			json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if resp.StatusCode != 200 || info["version"].(float64) != 1 {
				t.Errorf("RecoverConcurrency=%d: session %s: status %d info %v", workers, id, resp.StatusCode, info)
			}
		}
		ts2.Close()
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
