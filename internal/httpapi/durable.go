// Durable sessions: every accepted delta is appended to a per-session
// write-ahead log before it is acknowledged, the session's graph is spilled
// to a snapshot file every SpillEvery deltas (rotating the log), and a
// restart rehydrates each session log-suffix-over-snapshot. The on-disk
// layout under Config.DataDir is
//
//	<DataDir>/sessions/<id>/
//	    MANIFEST             {version, snapshot, log, logOffset, core, shards}, atomic
//	    snapshot-<V>.graph   graph text serialization at version V
//	    snapshot-<V>.core    compiled-snapshot core blob (labels, Pos, shard geometry)
//	    shard-<V>-<i>.shard  one codec file per CSR shard, in shard order
//	    wal-<V>.log          base record (same graph) + one delta per record
//
// The log's leading base record makes it self-sufficient: recovery prefers
// the compiled spill (core + shard files, every one read and checked against
// the core, so nothing is recompiled and no file is read again), falls back
// to recompiling the snapshot graph when any spill file is missing or
// damaged, and a missing snapshot falls back to a full replay from the base
// record. A torn final frame (crash mid-append) is dropped; interior
// corruption surfaces as a typed *wal.CorruptError and the session is
// refused, not served wrong.
package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"schemex"
	"schemex/internal/par"
	"schemex/internal/wal"
)

// sessionsSubdir is the directory under DataDir holding one directory per
// durable session.
const sessionsSubdir = "sessions"

// DefaultSpillEvery is the number of logged deltas between snapshot spills
// when Config leaves SpillEvery unset. Between spills a restart replays at
// most this many deltas per session.
const DefaultSpillEvery = 64

// DefaultRecoverConcurrency caps how many sessions startup recovery
// rehydrates at once when Config leaves RecoverConcurrency unset.
const DefaultRecoverConcurrency = 8

func (a *api) sessionDir(id string) string {
	return filepath.Join(a.dataDir, sessionsSubdir, id)
}

// validSessionID accepts exactly the ids newSessionID mints (32 lowercase
// hex digits), keeping path traversal out of sessionDir.
func validSessionID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// makeDurable creates the session's directory and its first generation
// (snapshot-0, wal-0, manifest). Called before the session is shared, so no
// locking is needed; on failure the directory is removed and the create
// request fails rather than serving an unlogged session.
func (a *api) makeDurable(s *session) error {
	dir := a.sessionDir(s.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.dir = dir
	if err := s.spillTo(s.prep, a.pol); err != nil {
		os.RemoveAll(dir)
		s.dir = ""
		return err
	}
	return nil
}

// persistLocked logs a just-applied batch of deltas as len(ds) individual
// records with one write and one fsync (wal.AppendAll), keeping the log
// replay-identical to sequential application — recovery replays one
// ApplyContext per record, reproducing the same per-delta version advance the
// batch took in one step. Every spillEvery records, or once the log passes
// spillBytes (when set), it spills a fresh snapshot generation. The caller
// holds s.mu and has not yet advanced s.prep; a nil return means the whole
// batch is durable per the sync policy and the session may advance.
// In-memory sessions (nil log) return immediately without allocating — the
// DataDir-unset mutate path is unchanged, which an allocation-regression test
// pins.
func (s *session) persistLocked(a *api, ds []*schemex.Delta, next *schemex.Prepared) error {
	if s.log == nil {
		return nil
	}
	payloads := make([][]byte, len(ds))
	for i, d := range ds {
		payloads[i] = []byte(d.String())
	}
	if _, err := s.log.AppendAll(wal.KindDelta, payloads); err != nil {
		return err
	}
	s.sinceSpill += len(ds)
	if s.sinceSpill >= a.spillEvery || (a.spillBytes > 0 && s.log.Size() >= a.spillBytes) {
		if err := s.spillTo(next, a.pol); err != nil {
			// The batch is already durable in the current log; a failed
			// spill only delays compaction. Keep serving, retry after
			// another spillEvery deltas.
			log.Printf("httpapi: session %s: snapshot spill failed (will retry): %v", s.id, err)
			s.sinceSpill = 0
		}
	}
	return nil
}

// spillTo writes a new durable generation for the given state: graph
// snapshot file, compiled-snapshot core blob plus one file per CSR shard
// (the shard-granular spill that lets recovery skip recompilation), a fresh
// log seeded with a base record, then the manifest rename that commits the
// switch. Every step before the rename leaves the previous generation
// authoritative, so a crash (or an error return) anywhere in between —
// including between the shard-file writes and the manifest rename — recovers
// to the old generation with nothing lost; only after the commit are the old
// files retired and stale leftovers swept.
func (s *session) spillTo(prep *schemex.Prepared, pol wal.SyncPolicy) error {
	v := prep.Version()
	var base bytes.Buffer
	if err := prep.Graph().Write(&base); err != nil {
		return err
	}
	snapName := fmt.Sprintf("snapshot-%d.graph", v)
	coreName := fmt.Sprintf("snapshot-%d.core", v)
	logName := fmt.Sprintf("wal-%d.log", v)
	if err := wal.WriteFileAtomic(filepath.Join(s.dir, snapName), func(w io.Writer) error {
		_, err := w.Write(base.Bytes())
		return err
	}); err != nil {
		return err
	}
	shardNames := make([]string, prep.NumShards())
	for si := range shardNames {
		shardNames[si] = fmt.Sprintf("shard-%d-%d.shard", v, si)
		blob := prep.EncodeShard(si)
		if err := wal.WriteFileAtomic(filepath.Join(s.dir, shardNames[si]), func(w io.Writer) error {
			_, err := w.Write(blob)
			return err
		}); err != nil {
			return err
		}
	}
	core := prep.EncodeSnapshotCore()
	if err := wal.WriteFileAtomic(filepath.Join(s.dir, coreName), func(w io.Writer) error {
		_, err := w.Write(core)
		return err
	}); err != nil {
		return err
	}
	logPath := filepath.Join(s.dir, logName)
	os.Remove(logPath) // leftovers from a crash mid-spill
	nl, err := wal.Create(logPath, pol)
	if err != nil {
		return err
	}
	off, err := nl.Append(wal.KindBase, base.Bytes())
	if err == nil {
		err = nl.Sync() // the base record must be durable before the commit
	}
	if err == nil {
		err = wal.WriteManifest(s.dir, wal.Manifest{
			Version: v, Snapshot: snapName, Log: logName, LogOffset: off,
			Core: coreName, Shards: shardNames,
		})
	}
	if err != nil {
		nl.Close()
		os.Remove(logPath)
		return err
	}
	// Committed: retire the previous generation and sweep anything a crashed
	// or failed spill left behind.
	if s.log != nil {
		s.log.Close()
	}
	s.log, s.snapFile, s.coreFile, s.logFile = nl, snapName, coreName, logName
	s.shardFiles, s.sinceSpill = shardNames, 0
	s.sweepStale()
	return nil
}

// sweepStale removes generation files (snapshot-*, shard-*, wal-*) that are
// not part of the current generation. Called after a committed spill, it
// retires the previous generation and cleans up leftovers of spills that
// failed or crashed before their manifest rename. Errors are ignored: a file
// that cannot be removed today is swept after the next spill.
func (s *session) sweepStale() {
	keep := map[string]bool{
		wal.ManifestName: true,
		s.snapFile:       true, s.coreFile: true, s.logFile: true,
	}
	for _, n := range s.shardFiles {
		keep[n] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if keep[n] || e.IsDir() {
			continue
		}
		if strings.HasPrefix(n, "snapshot-") || strings.HasPrefix(n, "shard-") || strings.HasPrefix(n, "wal-") {
			os.Remove(filepath.Join(s.dir, n))
		}
	}
}

// deleteSession implements DELETE: it removes the id from the store, waits
// out any in-flight eviction flush, clears the corruption verdict, and
// deletes the on-disk state. The store removal and the disk removal happen
// under one recoverMu critical section, so a concurrent request cannot
// rehydrate the session in between and keep serving an id whose directory
// is gone. Reports whether anything (in memory or on disk) was removed.
func (a *api) deleteSession(id string) (bool, error) {
	// Forget the mutation queue first: new mutates for the id start fresh
	// (and fail 404 once the session is gone); jobs a live drainer already
	// holds reach a terminal failed state the same way.
	a.dropQueue(id)
	if a.dataDir == "" {
		s, ok := a.sessions.remove(id)
		if ok {
			s.close()
		}
		return ok, nil
	}
	a.recoverMu.Lock()
	defer a.recoverMu.Unlock()
	found := false
	if s, ok := a.sessions.remove(id); ok {
		found = true
		if err := s.close(); err != nil {
			// The state is being deleted anyway; a failed final flush only
			// matters as a log line.
			log.Printf("httpapi: session %s: closing log on delete: %v", id, err)
		}
	}
	if old, ok := a.sessions.evicting(id); ok {
		// An LRU flush of this id is still in flight: wait for its log
		// handle to close before unlinking the files under it.
		old.close()
	}
	if !validSessionID(id) {
		return found, nil
	}
	delete(a.corrupt, id)
	dir := a.sessionDir(id)
	if _, err := os.Stat(dir); err != nil {
		return found, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return found, fmt.Errorf("removing session state: %v", err)
	}
	return true, nil
}

// rehydrate loads an evicted (or restart-orphaned) durable session back into
// the store. Corruption verdicts are sticky: a session refused once is not
// re-parsed on every request.
func (a *api) rehydrate(id string) (*session, bool) {
	if !validSessionID(id) {
		return nil, false
	}
	a.recoverMu.Lock()
	defer a.recoverMu.Unlock()
	if s, ok := a.sessions.get(id); ok {
		return s, true // lost a race with another rehydration
	}
	if old, ok := a.sessions.evicting(id); ok {
		// The LRU just evicted this id and its flush may still be blocked on
		// an in-flight mutation. Close the old session ourselves (close is
		// idempotent and serializes on its mutex): when it returns, the old
		// log handle is closed and every acknowledged delta is in the file,
		// so reopening it below cannot race a live writer.
		if err := old.close(); err != nil {
			log.Printf("httpapi: session %s: flushing evicted log before rehydrate: %v", id, err)
		}
	}
	if _, refused := a.corrupt[id]; refused {
		return nil, false
	}
	if _, err := os.Stat(a.sessionDir(id)); err != nil {
		return nil, false
	}
	s, err := a.recoverSession(id)
	if err != nil {
		log.Printf("httpapi: session %s: refusing durable state: %v", id, err)
		a.corrupt[id] = err
		return nil, false
	}
	return s, true
}

// recoverAll rehydrates every session directory under DataDir at startup.
// A corrupt session is refused (and remembered as such) without failing the
// server: the rest keep serving. Sessions recover on a bounded worker pool
// (Config.RecoverConcurrency): each replay re-runs graph parsing and
// snapshot compilation, so an unbounded fan-out over a large DataDir would
// spike CPU and peak memory at exactly the moment the process restarts.
// recoverSession is safe to run concurrently — each worker touches a
// distinct directory and the session store serializes internally — while
// recoverMu, held across the whole pool, keeps request-driven rehydration
// and deletion out until startup recovery settles.
func (a *api) recoverAll() error {
	dir := filepath.Join(a.dataDir, sessionsSubdir)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && validSessionID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	a.recoverMu.Lock()
	defer a.recoverMu.Unlock()
	errs := make([]error, len(ids))
	par.DoItems(a.recoverPar, len(ids), func(i int) {
		_, errs[i] = a.recoverSession(ids[i])
	})
	// Verdicts are recorded after the join: a.corrupt is guarded by
	// recoverMu, which this goroutine holds, not the workers.
	for i, err := range errs {
		if err != nil {
			log.Printf("httpapi: session %s: refusing durable state: %v", ids[i], err)
			a.corrupt[ids[i]] = err
		}
	}
	return nil
}

// recoverSession rebuilds one session log-suffix-over-snapshot and adds it
// to the store. The fast path loads the manifest's compiled spill — core blob
// plus per-shard codec files, each read and checked against the core, which
// skips recompilation — and replays the log from logOffset. A manifest
// without spilled shards (or with any of its files missing, unreadable or
// damaged) recompiles the snapshot graph instead, and a missing snapshot
// falls back to a full replay from the log's base record. A torn final frame
// is truncated away when the log is reopened for appending; any interior
// corruption aborts with the typed error from the wal package.
func (a *api) recoverSession(id string) (*session, error) {
	dir := a.sessionDir(id)
	m, err := wal.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, m.Log)
	ctx := context.Background()

	var prep *schemex.Prepared
	from := m.LogOffset
	snapData, serr := os.ReadFile(filepath.Join(dir, m.Snapshot))
	switch {
	case serr == nil:
		g, err := schemex.ReadGraph(bytes.NewReader(snapData))
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", m.Snapshot, err)
		}
		if prep = a.loadSpilled(ctx, dir, m, g); prep == nil {
			if prep, err = schemex.PrepareOptions(ctx, g, schemex.Options{}); err != nil {
				return nil, err
			}
		}
		prep.SetBaseVersion(m.Version)
	case os.IsNotExist(serr):
		from = 0 // snapshot lost: full replay from the log's base record
	default:
		return nil, serr
	}

	replayed := 0
	_, _, err = wal.Replay(logPath, from, func(r wal.Record) error {
		switch r.Kind {
		case wal.KindBase:
			if prep != nil {
				return fmt.Errorf("unexpected base record at offset %d", r.Offset)
			}
			g, err := schemex.ReadGraph(bytes.NewReader(r.Payload))
			if err != nil {
				return fmt.Errorf("base record: %w", err)
			}
			p, err := schemex.PrepareOptions(ctx, g, schemex.Options{})
			if err != nil {
				return err
			}
			p.SetBaseVersion(m.Version)
			prep = p
		case wal.KindDelta:
			if prep == nil {
				return fmt.Errorf("delta record at offset %d before any base state", r.Offset)
			}
			d, err := schemex.ParseDelta(bytes.NewReader(r.Payload))
			if err != nil {
				return fmt.Errorf("delta record at offset %d: %w", r.Offset, err)
			}
			next, _, err := prep.ApplyContext(ctx, d)
			if err != nil {
				return fmt.Errorf("replaying delta at offset %d: %w", r.Offset, err)
			}
			prep = next
			replayed++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if prep == nil {
		return nil, fmt.Errorf("no recoverable state (snapshot %s missing and log holds no base record)", m.Snapshot)
	}
	lg, err := wal.Open(logPath, a.pol) // truncates a torn tail for appending
	if err != nil {
		return nil, err
	}
	s := &session{
		id: id, prep: prep, dir: dir, log: lg,
		snapFile: m.Snapshot, coreFile: m.Core, logFile: m.Log,
		shardFiles: m.Shards, sinceSpill: replayed,
	}
	a.sessions.add(s)
	return s, nil
}

// loadSpilled attempts the recompile-free recovery path: when the manifest
// records a compiled spill, load the snapshot from the core blob and every
// shard file, each checked against the core. Any failure — a missing,
// truncated or mismatched file — returns nil and the caller recompiles from
// the graph; the spill is an optimization, never a correctness requirement.
func (a *api) loadSpilled(ctx context.Context, dir string, m wal.Manifest, g *schemex.Graph) *schemex.Prepared {
	if m.Core == "" || len(m.Shards) == 0 {
		return nil
	}
	core, err := os.ReadFile(filepath.Join(dir, m.Core))
	if err != nil {
		return nil
	}
	paths := make([]string, len(m.Shards))
	for i, n := range m.Shards {
		paths[i] = filepath.Join(dir, n)
	}
	prep, err := schemex.PrepareSpilled(ctx, g, core, paths, schemex.Options{})
	if err != nil {
		log.Printf("httpapi: %s: spilled snapshot rejected, recompiling: %v", dir, err)
		return nil
	}
	return prep
}
