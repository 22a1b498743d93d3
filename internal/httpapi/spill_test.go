package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemex/internal/compile"
	"schemex/internal/wal"
)

// readShardFaults fetches schemex_shard_faults, the count of shard files
// recovery has loaded, from /v1/metrics.
func readShardFaults(t *testing.T, ts *httptest.Server) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
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
	f, ok := all["schemex_shard_faults"].(float64)
	if !ok {
		t.Fatal("metric schemex_shard_faults missing from /v1/metrics")
	}
	return f
}

// TestTwoServersOneProcess: constructing a second Server (and with it a
// second pass over the metric registrations) in one process must not panic —
// expvar refuses duplicate names, so registration has to be idempotent. Both
// servers serve the shared process-wide counters.
func TestTwoServersOneProcess(t *testing.T) {
	s1, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Server{s1, s2} {
		ts := httptest.NewServer(s.Handler())
		readShardFaults(t, ts)
		id := createSession(t, ts, sampleText)
		mutateOK(t, ts, id, nthDelta(i))
		ts.Close()
	}
}

// TestShardGranularRecovery: a restart recovers a spilled session from its
// core blob and shard files without recompiling — schemex_shard_faults counts
// every shard file it loaded — and the recovered session extracts the
// identical schema.
func TestShardGranularRecovery(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	id := createSession(t, ts1, chainData(256))
	for i := 0; i < 4; i++ {
		mutateOK(t, ts1, id, fmt.Sprintf("link n%d n%d next\n", i*8, i*8+64))
	}
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	// The committed manifest names the shard-granular spill.
	m, err := wal.ReadManifest(filepath.Join(dir, sessionsSubdir, id))
	if err != nil {
		t.Fatal(err)
	}
	if m.Core == "" || len(m.Shards) == 0 {
		t.Fatalf("manifest is not shard-granular: %+v", m)
	}
	for _, n := range append([]string{m.Core}, m.Shards...) {
		if _, err := os.Stat(filepath.Join(dir, sessionsSubdir, id, n)); err != nil {
			t.Fatalf("manifest names missing file %s: %v", n, err)
		}
	}

	before := float64(compile.ShardsLoaded())
	s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	if got := readShardFaults(t, ts2) - before; got != float64(len(m.Shards)) {
		t.Fatalf("recovery loaded %v shard files, want %d", got, len(m.Shards))
	}
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("recovered schema differs:\n%s\nvs\n%s", got, want)
	}
	// The recovered session keeps accepting mutations and spilling.
	mutateOK(t, ts2, id, "link n1 n200 next\n")
	mutateOK(t, ts2, id, "link n2 n201 next\n")
	ts2.Close()
	s2.Close()
}

// TestMissingShardFileFallsBackToRecompile: recovery with a missing shard
// file must not refuse the session — the spill is an optimization, so the
// failed load routes recovery to a recompile from the graph snapshot and the
// session serves the identical schema.
func TestMissingShardFileFallsBackToRecompile(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
	id := createSession(t, ts1, chainData(256))
	mutateOK(t, ts1, id, "link n255 n256 next\n")
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	m, err := wal.ReadManifest(filepath.Join(dir, sessionsSubdir, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) < 2 {
		t.Fatalf("want multiple shard files, got %v", m.Shards)
	}
	if err := os.Remove(filepath.Join(dir, sessionsSubdir, id, m.Shards[1])); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
	defer func() { ts2.Close(); s2.Close() }()
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("schema after missing-shard fallback differs:\n%s\nvs\n%s", got, want)
	}
}

// TestTruncatedShardFileFallsBackToRecompile: a shard file damaged after the
// spill fails the checked load at recovery, so the session recompiles from
// its graph snapshot and serves the schema it served before the restart.
func TestTruncatedShardFileFallsBackToRecompile(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
	id := createSession(t, ts1, chainData(256))
	mutateOK(t, ts1, id, "link n0 n64 next\n")
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	m, err := wal.ReadManifest(filepath.Join(dir, sessionsSubdir, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) < 2 {
		t.Fatalf("want multiple shard files, got %v", m.Shards)
	}
	if err := os.Truncate(filepath.Join(dir, sessionsSubdir, id, m.Shards[1]), 5); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
	defer func() { ts2.Close(); s2.Close() }()
	status, out := post(t, ts2, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 2},
	}))
	if status != 200 {
		t.Fatalf("extract over truncated shard: status %d, body %v", status, out)
	}
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("schema after truncated-shard fallback differs:\n%s\nvs\n%s", got, want)
	}
}

// TestOldFormatSpillRecovers: a data dir spilled by a build whose core or
// shard format had an older version is refused at load by its magic, so
// recovery loads no shard file, recompiles from the graph snapshot, and
// serves the schema the session served before the restart.
func TestOldFormatSpillRecovers(t *testing.T) {
	t.Setenv(compile.TestShardsEnv, "4")
	for _, tc := range []struct {
		name, magic string
		file        func(m wal.Manifest) string
	}{
		{"core", "SXCORE01", func(m wal.Manifest) string { return m.Core }},
		{"shard", "SXSHRD01", func(m wal.Manifest) string { return m.Shards[1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
			id := createSession(t, ts1, chainData(256))
			mutateOK(t, ts1, id, "link n0 n64 next\n")
			want := extractSchema(t, ts1, id)
			ts1.Close()
			s1.Close()

			sdir := filepath.Join(dir, sessionsSubdir, id)
			m, err := wal.ReadManifest(sdir)
			if err != nil {
				t.Fatal(err)
			}
			if m.Core == "" || len(m.Shards) < 2 {
				t.Fatalf("want a shard-granular spill with several shards, got %+v", m)
			}
			path := filepath.Join(sdir, tc.file(m))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, tc.magic)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			before := float64(compile.ShardsLoaded())
			s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 1})
			defer func() { ts2.Close(); s2.Close() }()
			if got := readShardFaults(t, ts2) - before; got != 0 {
				t.Fatalf("recovery loaded %v shard files of an old-format spill, want 0", got)
			}
			status, out := post(t, ts2, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
				"options": map[string]interface{}{"k": 2},
			}))
			if status != 200 {
				t.Fatalf("extract after an old-format spill: status %d, body %v", status, out)
			}
			if got := extractSchema(t, ts2, id); got != want {
				t.Fatalf("schema after an old-format spill differs:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestInterruptedSpillRecoversAndSweeps: a spill that dies between writing
// its generation files and the manifest rename leaves the old generation
// authoritative. Recovery serves the old state, and the next committed spill
// sweeps the orphaned files.
func TestInterruptedSpillRecoversAndSweeps(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	id := createSession(t, ts1, sampleText)
	mutateOK(t, ts1, id, nthDelta(1))
	mutateOK(t, ts1, id, nthDelta(2)) // spills generation 2
	want := extractSchema(t, ts1, id)
	ts1.Close()
	s1.Close()

	// Simulate a crash mid-spill of generation 9: generation files exist but
	// the manifest still names generation 2.
	sdir := filepath.Join(dir, sessionsSubdir, id)
	old, err := wal.ReadManifest(sdir)
	if err != nil {
		t.Fatal(err)
	}
	retired := map[string]bool{old.Snapshot: true, old.Core: true, old.Log: true}
	for _, n := range old.Shards {
		retired[n] = true
	}
	if old.Version != 2 || old.Core == "" || len(old.Shards) == 0 {
		t.Fatalf("want a shard-granular generation 2, got %+v", old)
	}
	for _, n := range []string{"snapshot-9.graph", "snapshot-9.core", "shard-9-0.shard", "wal-9.log"} {
		if err := os.WriteFile(filepath.Join(sdir, n), []byte("orphaned partial spill"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, ts2 := durableServer(t, Config{DataDir: dir, SpillEvery: 2})
	defer func() { ts2.Close(); s2.Close() }()
	if got := extractSchema(t, ts2, id); got != want {
		t.Fatalf("schema after interrupted spill differs:\n%s\nvs\n%s", got, want)
	}
	// Two more deltas commit a fresh generation, whose sweep removes the
	// orphans alongside the retired old generation.
	mutateOK(t, ts2, id, nthDelta(3))
	mutateOK(t, ts2, id, nthDelta(4))
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "-9") {
			t.Fatalf("orphaned spill file survived the sweep: %s", e.Name())
		}
		// Every file of the retired generation is gone, its core and shard
		// files included: the recovered session read them once, at load.
		if retired[e.Name()] {
			t.Fatalf("retired generation survived the sweep: %s", e.Name())
		}
	}
}
