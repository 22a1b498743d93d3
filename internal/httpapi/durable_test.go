package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"schemex"
	"schemex/internal/dbg"
	"schemex/internal/wal"
)

// durableServer starts an httptest server backed by a durable Server over
// dir. The caller owns both Close calls via the returned cleanup.
func durableServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// mutateOK posts one delta and fails the test on any non-200.
func mutateOK(t *testing.T, ts *httptest.Server, id, delta string) map[string]interface{} {
	t.Helper()
	status, out := post(t, ts, "/v1/session/"+id+"/mutate", mustJSON(t, map[string]interface{}{"delta": delta}))
	if status != 200 {
		t.Fatalf("mutate status %d: %v", status, out)
	}
	return out
}

// extractSchema runs a k=2 extraction and returns the schema text, so tests
// can compare recovered sessions bit-for-bit against live ones.
func extractSchema(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	status, out := post(t, ts, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 2},
	}))
	if status != 200 {
		t.Fatalf("extract status %d: %v", status, out)
	}
	return out["schema"].(string)
}

// nthDelta yields a small always-incremental delta distinct per i.
func nthDelta(i int) string {
	return fmt.Sprintf("link p%d f%d is-manager-of\nlink f%d p%d is-managed-by\n", i, i, i, i)
}

// TestDurableRestartServesSameSchema: a restarted durable session serves the
// extraction it served before the restart. The compiled spill is keyed by
// ObjectID, so the graph text persisted beside it must re-read with every ID
// in place; on this DBG graph nearly every ID moved when the text named only
// isolated objects, and the recovered session answered with another schema.
func TestDurableRestartServesSameSchema(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{Seed: 11, Scale: 1})
	var text strings.Builder
	if err := db.Write(&text); err != nil {
		t.Fatal(err)
	}
	extract := func(ts *httptest.Server, id string) (string, float64) {
		t.Helper()
		status, out := post(t, ts, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
			"options": map[string]interface{}{"k": 6},
		}))
		if status != 200 {
			t.Fatalf("extract status %d: %v", status, out)
		}
		return out["schema"].(string), out["defect"].(float64)
	}
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})
	id := createSession(t, ts1, text.String())
	wantSchema, wantDefect := extract(ts1, id)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := durableServer(t, Config{DataDir: dir})
	gotSchema, gotDefect := extract(ts2, id)
	if gotDefect != wantDefect || gotSchema != wantSchema {
		t.Fatalf("restart changed the extraction: defect %v -> %v\nbefore:\n%s\nafter:\n%s",
			wantDefect, gotDefect, wantSchema, gotSchema)
	}
}

func TestDurableRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})

	id := createSession(t, ts1, sampleText)
	for i := 0; i < 5; i++ {
		mutateOK(t, ts1, id, nthDelta(i))
	}
	want := extractSchema(t, ts1, id)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second server over the same DataDir recovers the session with the
	// same version and a bit-identical extraction.
	_, ts2 := durableServer(t, Config{DataDir: dir})
	status, out := post(t, ts2, "/v1/session/"+id+"/extract", `{}`)
	if status != 200 {
		t.Fatalf("recovered extract status %d: %v", status, out)
	}
	resp, err := http.Get(ts2.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]interface{}
	if err := jsonDecode(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info["version"].(float64) != 5 {
		t.Fatalf("recovered version: %v", info)
	}
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("recovered schema differs:\n%s\nvs\n%s", got, want)
	}
	// The recovered session keeps accepting mutations.
	if out := mutateOK(t, ts2, id, nthDelta(99)); out["version"].(float64) != 6 {
		t.Fatalf("post-recovery mutate: %v", out)
	}
}

func jsonDecode(resp *http.Response, dst interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}

func TestDurableSpillRotatesLog(t *testing.T) {
	dir := t.TempDir()
	_, ts := durableServer(t, Config{DataDir: dir, SpillEvery: 3})
	id := createSession(t, ts, sampleText)
	for i := 0; i < 7; i++ {
		mutateOK(t, ts, id, nthDelta(i))
	}
	// 7 deltas with SpillEvery=3 spill at v3 and v6: exactly one generation —
	// graph snapshot, core blob, shard files, log — remains, named for the
	// last spill.
	sdir := filepath.Join(dir, sessionsSubdir, id)
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, want := range []string{"MANIFEST", "snapshot-6.graph", "snapshot-6.core", "shard-6-0.shard", "wal-6.log"} {
		if _, err := os.Stat(filepath.Join(sdir, want)); err != nil {
			t.Fatalf("missing %s after spills; dir holds %v", want, names)
		}
	}
	for _, n := range names {
		if n != "MANIFEST" && !strings.Contains(n, "-6") {
			t.Fatalf("stale generation file survived cleanup: %s (dir holds %v)", n, names)
		}
	}
	m, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 6 || m.Snapshot != "snapshot-6.graph" || m.Log != "wal-6.log" {
		t.Fatalf("manifest: %+v", m)
	}
}

func TestDurableMissingSnapshotFullReplay(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})
	id := createSession(t, ts1, sampleText)
	for i := 0; i < 4; i++ {
		mutateOK(t, ts1, id, nthDelta(i))
	}
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	// Lose the snapshot file: the log's leading base record must carry the
	// session by itself.
	m, err := wal.ReadManifest(filepath.Join(dir, sessionsSubdir, id))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, sessionsSubdir, id, m.Snapshot)); err != nil {
		t.Fatal(err)
	}

	_, ts2 := durableServer(t, Config{DataDir: dir})
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("full-replay schema differs:\n%s\nvs\n%s", got, want)
	}
}

func TestDurableTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})
	id := createSession(t, ts1, sampleText)
	for i := 0; i < 3; i++ {
		mutateOK(t, ts1, id, nthDelta(i))
	}
	ts1.Close()
	s1.Close()

	// Tear the final frame as a crash mid-append would: the last delta
	// drops, everything before it survives.
	sdir := filepath.Join(dir, sessionsSubdir, id)
	m, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(sdir, m.Log)
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.TruncateAt(logPath, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	_, ts2 := durableServer(t, Config{DataDir: dir})
	resp, err := http.Get(ts2.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]interface{}
	if err := jsonDecode(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info["version"].(float64) != 2 {
		t.Fatalf("torn tail: recovered version %v, want 2", info["version"])
	}
	// The truncated log accepts appends again.
	if out := mutateOK(t, ts2, id, nthDelta(7)); out["version"].(float64) != 3 {
		t.Fatalf("append after torn-tail repair: %v", out)
	}
}

func TestDurableInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})
	id := createSession(t, ts1, sampleText)
	for i := 0; i < 3; i++ {
		mutateOK(t, ts1, id, nthDelta(i))
	}
	ts1.Close()
	s1.Close()

	// Flip a payload bit in the middle of the log (inside the base record,
	// well before the tail): a complete frame with a bad CRC is corruption,
	// not a torn tail, and the session must be refused.
	sdir := filepath.Join(dir, sessionsSubdir, id)
	m, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.FlipBit(filepath.Join(sdir, m.Log), int64(wal.MagicLen+20)); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("NewServer must not fail for one corrupt session: %v", err)
	}
	defer s2.Close()
	s2.a.recoverMu.Lock()
	verdict := s2.a.corrupt[id]
	s2.a.recoverMu.Unlock()
	var ce *wal.CorruptError
	if !errors.As(verdict, &ce) {
		t.Fatalf("verdict %v, want *wal.CorruptError", verdict)
	}

	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if status, _ := post(t, ts2, "/v1/session/"+id+"/extract", `{}`); status != 404 {
		t.Fatalf("corrupt session served: status %d", status)
	}
	// DELETE clears the corrupt state so the id's disk space is reclaimed.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/v1/session/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete of corrupt session: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(sdir); !os.IsNotExist(err) {
		t.Fatalf("corrupt session dir not removed: %v", err)
	}
}

func TestDurableManifestPastEOFRefused(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir})
	id := createSession(t, ts1, sampleText)
	mutateOK(t, ts1, id, nthDelta(0))
	ts1.Close()
	s1.Close()

	// Truncate the log to before the manifest's replay offset: the manifest
	// promises durable state the file no longer holds — corruption, not a
	// torn tail.
	sdir := filepath.Join(dir, sessionsSubdir, id)
	m, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.TruncateAt(filepath.Join(sdir, m.Log), m.LogOffset-3); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.a.recoverMu.Lock()
	verdict := s2.a.corrupt[id]
	s2.a.recoverMu.Unlock()
	var ce *wal.CorruptError
	if !errors.As(verdict, &ce) {
		t.Fatalf("verdict %v, want *wal.CorruptError", verdict)
	}
}

func TestDurableEvictionFlushesAndRehydrates(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, Config{DataDir: dir, SessionEntries: 1})

	id1 := createSession(t, ts, sampleText)
	mutateOK(t, ts, id1, nthDelta(0))
	schema1 := extractSchema(t, ts, id1)

	// Creating a second session evicts the first (cap 1) — flushing, not
	// forgetting it.
	id2 := createSession(t, ts, sampleText)
	if got := s.SessionEvictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if n := s.a.sessions.len(); n != 1 {
		t.Fatalf("store len %d, want 1", n)
	}

	// The evicted session rehydrates on demand, same state (this in turn
	// evicts id2 — the cap still holds).
	resp, err := http.Get(ts.URL + "/v1/session/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	var info map[string]interface{}
	if err := jsonDecode(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info["version"].(float64) != 1 {
		t.Fatalf("rehydrated version: %v", info)
	}
	if got := extractSchema(t, ts, id1); got != schema1 {
		t.Fatalf("rehydrated schema differs:\n%s\nvs\n%s", got, schema1)
	}
	if got := s.SessionEvictions(); got != 2 {
		t.Fatalf("evictions after rehydrate = %d, want 2", got)
	}
	// And id2 rehydrates back in turn.
	if out := mutateOK(t, ts, id2, nthDelta(1)); out["version"].(float64) != 1 {
		t.Fatalf("mutate rehydrated id2: %v", out)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStoreEvictingVisibleUntilFlush(t *testing.T) {
	// An evicted session must stay reachable via evicting() for the whole
	// window between leaving entries and its onEvict flush completing —
	// that window is what rehydration keys off to avoid double-opening the
	// session's WAL.
	st := sessionStore{max: 1}
	block := make(chan struct{})
	st.onEvict = func(s *session) { <-block }
	st.add(&session{id: "aaaa"})
	done := make(chan struct{})
	go func() {
		st.add(&session{id: "bbbb"})
		close(done)
	}()
	waitFor(t, func() bool { _, ok := st.evicting("aaaa"); return ok })
	if _, ok := st.get("aaaa"); ok {
		t.Fatal("evicted session still in entries")
	}
	close(block)
	<-done
	if _, ok := st.evicting("aaaa"); ok {
		t.Fatal("flush finished but session still pending")
	}
}

func TestRehydrateWaitsForEvictionFlush(t *testing.T) {
	// The acknowledged-delta-loss race from the review: an eviction whose
	// flush is blocked on an in-flight mutate must not let a concurrent
	// request rehydrate the same id and reopen its WAL while the old handle
	// is live. Rehydration has to wait for the flush; the delta the
	// in-flight mutate appends must survive into the rehydrated copy.
	dir := t.TempDir()
	srv, ts := durableServer(t, Config{DataDir: dir, SessionEntries: 1})
	id1 := createSession(t, ts, sampleText)
	s1, ok := srv.a.sessions.get(id1)
	if !ok {
		t.Fatal("created session not in store")
	}

	// Hold the session lock the way an in-flight mutate does.
	s1.mu.Lock()

	// Creating a second session evicts id1; the eviction flush blocks on
	// s1.mu, so it runs in the background.
	body := mustJSON(t, map[string]interface{}{"data": sampleText})
	createDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("create status %d", resp.StatusCode)
			}
		}
		createDone <- err
	}()
	waitFor(t, func() bool { _, ok := srv.a.sessions.evicting(id1); return ok })

	// A concurrent request for the evicted id: it misses the store and must
	// block in rehydrate until the old log handle closes.
	type getResult struct {
		version float64
		err     error
	}
	getDone := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/session/" + id1)
		if err != nil {
			getDone <- getResult{err: err}
			return
		}
		var info map[string]interface{}
		if err := jsonDecode(resp, &info); err != nil {
			getDone <- getResult{err: err}
			return
		}
		v, _ := info["version"].(float64)
		getDone <- getResult{version: v}
	}()

	// Complete the "in-flight mutate" on the old handle: append one delta,
	// advance the state, release the lock. This is exactly the acknowledged
	// write the race would lose.
	d, err := schemex.ParseDelta(strings.NewReader(nthDelta(0)))
	if err != nil {
		s1.mu.Unlock()
		t.Fatal(err)
	}
	next, _, err := s1.prep.ApplyContext(context.Background(), d)
	if err != nil {
		s1.mu.Unlock()
		t.Fatal(err)
	}
	if err := s1.persistLocked(srv.a, []*schemex.Delta{d}, next); err != nil {
		s1.mu.Unlock()
		t.Fatalf("append on in-flight session: %v", err)
	}
	s1.prep = next
	s1.mu.Unlock()

	if err := <-createDone; err != nil {
		t.Fatal(err)
	}
	got := <-getDone
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.version != 1 {
		t.Fatalf("rehydrated version %v, want 1 (acknowledged delta lost)", got.version)
	}
	// The rehydrated session keeps accepting writes on a consistent log.
	if out := mutateOK(t, ts, id1, nthDelta(1)); out["version"].(float64) != 2 {
		t.Fatalf("mutate after rehydrate: %v", out)
	}
}

func TestDeleteWaitsForEvictionFlush(t *testing.T) {
	// DELETE racing an eviction flush (and any rehydration) must leave the
	// id fully gone: no live session serving an unlinked directory.
	dir := t.TempDir()
	srv, ts := durableServer(t, Config{DataDir: dir, SessionEntries: 1})
	id1 := createSession(t, ts, sampleText)
	s1, ok := srv.a.sessions.get(id1)
	if !ok {
		t.Fatal("created session not in store")
	}
	s1.mu.Lock()

	body := mustJSON(t, map[string]interface{}{"data": sampleText})
	createDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != 200 {
				err = fmt.Errorf("create status %d", resp.StatusCode)
			}
		}
		createDone <- err
	}()
	waitFor(t, func() bool { _, ok := srv.a.sessions.evicting(id1); return ok })

	delDone := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id1, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			delDone <- -1
			return
		}
		resp.Body.Close()
		delDone <- resp.StatusCode
	}()

	s1.mu.Unlock()
	if err := <-createDone; err != nil {
		t.Fatal(err)
	}
	if code := <-delDone; code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, sessionsSubdir, id1)); !os.IsNotExist(err) {
		t.Fatalf("session dir survives delete: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/session/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("deleted id still serving: status %d", resp.StatusCode)
	}
}

func TestInMemoryEvictionStays404(t *testing.T) {
	// Without DataDir, eviction forgets the session; the 404 shape matches
	// an unknown id, and the evictions counter still advances.
	s, ts := durableServer(t, Config{SessionEntries: 1})
	id1 := createSession(t, ts, sampleText)
	createSession(t, ts, sampleText)
	if got := s.SessionEvictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	status, out := post(t, ts, "/v1/session/"+id1+"/mutate", mustJSON(t, map[string]interface{}{"delta": nthDelta(0)}))
	if status != 404 || out["error"] == nil || !strings.Contains(out["error"].(string), "unknown session") {
		t.Fatalf("evicted in-memory session: status %d: %v", status, out)
	}
}

func TestDurableDeleteRemovesDir(t *testing.T) {
	dir := t.TempDir()
	_, ts := durableServer(t, Config{DataDir: dir})
	id := createSession(t, ts, sampleText)
	sdir := filepath.Join(dir, sessionsSubdir, id)
	if _, err := os.Stat(sdir); err != nil {
		t.Fatalf("session dir not created: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if _, err := os.Stat(sdir); !os.IsNotExist(err) {
		t.Fatalf("session dir survives delete: %v", err)
	}
	// Deleting again (or any further use) is a plain 404.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("second delete status %d", resp.StatusCode)
	}
}

func TestInMemoryLeavesNoFiles(t *testing.T) {
	// DataDir unset: sessions must not touch the filesystem. Run a full
	// lifecycle and confirm an empty scratch dir stays empty.
	scratch := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(scratch); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	_, ts := durableServer(t, Config{})
	id := createSession(t, ts, sampleText)
	mutateOK(t, ts, id, nthDelta(0))
	entries, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("in-memory session wrote files: %v", entries)
	}
}

func TestInMemoryMutateNoExtraAllocations(t *testing.T) {
	// The durable hook must be free when DataDir is unset: persistLocked on
	// a log-less session performs zero allocations.
	g, err := schemex.ReadGraph(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := schemex.PrepareOptions(context.Background(), g, schemex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := &session{id: "0123456789abcdef0123456789abcdef", prep: prep}
	a := newAPI(Config{})
	ds := []*schemex.Delta{schemex.NewDelta().Link("x", "y", "l")}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.persistLocked(a, ds, prep); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("persistLocked allocates %v times on the in-memory path", allocs)
	}
}

func TestValidSessionID(t *testing.T) {
	ok := "0123456789abcdef0123456789abcdef"
	for _, tc := range []struct {
		id   string
		want bool
	}{
		{ok, true},
		{"", false},
		{"../../../../etc/passwd", false},
		{ok[:31], false},
		{ok + "0", false},
		{strings.ToUpper(ok), false},
		{"0123456789abcdef0123456789abcde/", false},
		{"0123456789abcdef0123456789abcdeg", false},
	} {
		if got := validSessionID(tc.id); got != tc.want {
			t.Errorf("validSessionID(%q) = %v, want %v", tc.id, got, tc.want)
		}
	}
}
