// Delta sessions over HTTP: a session pins one prepared extraction context
// server-side and lets clients evolve it with textual deltas. Each mutation
// branches the prepared context through schemex.Prepared.ApplyBatchContext,
// so the snapshot cache's invariant — entries are immutable — carries over:
// the session variable advances to the new Prepared, but any extraction
// already running against the old one finishes safely on the old state.
package httpapi

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"schemex"
	"schemex/internal/wal"
)

// session is one server-side delta session. Its queue's single drainer is
// the only writer of prep (see queue.go), so two mutations never branch from
// the same parent; mu guards prep and the durable state against concurrent
// readers, eviction and DELETE.
type session struct {
	id string

	mu   sync.Mutex
	prep *schemex.Prepared

	// Durable state; zero for in-memory sessions (Config.DataDir unset).
	// dir is the session directory, log the open write-ahead log, snapFile/
	// coreFile/shardFiles/logFile the current manifest generation's file
	// names, and sinceSpill the deltas logged since the last snapshot spill.
	// evicted marks a session the LRU flushed out (or
	// DELETE removed): requests that still hold the pointer see a consistent
	// "unknown session" instead of appending to a closed log.
	dir        string
	log        *wal.Log
	snapFile   string
	coreFile   string
	shardFiles []string
	logFile    string
	sinceSpill int
	evicted    bool
}

// current returns the session's prepared context for read-only use.
func (s *session) current() *schemex.Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prep
}

// close marks the session expired and flushes + closes its write-ahead log,
// returning the log's Close error (a failed final fsync under a batched sync
// policy means acknowledged deltas may not be durable — callers must report
// it, not swallow it). Eviction and deletion both go through here: durable
// state stays replayable on disk, and any request still holding the pointer
// gets a 404 rather than a write into a closed log. close is idempotent and
// blocks until any in-flight mutation releases s.mu, so a nil return also
// means no other log handle for this session is live.
func (s *session) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evicted = true
	var err error
	if s.log != nil {
		err = s.log.Close()
		s.log = nil
	}
	return err
}

// sessionStore is an id-keyed LRU of live sessions, same recency discipline
// as prepCache: the front is the most recently used, and creating past the
// cap evicts the back — flushing it via onEvict rather than silently
// dropping its state.
type sessionStore struct {
	mu        sync.Mutex
	max       int        // capacity; 0 means DefaultSessionEntries
	entries   []*session // front = most recently used
	evictions uint64
	onEvict   func(*session) // called without mu held
	// pending holds sessions evicted from entries whose onEvict flush has not
	// finished yet. A durable session must stay reachable here until its log
	// handle is closed: rehydration keys off this map to wait for the flush
	// instead of reopening the same WAL file while the old handle is live.
	pending map[string]*session
}

func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, s := range st.entries {
		if s.id == id {
			copy(st.entries[1:], st.entries[:i])
			st.entries[0] = s
			return s, true
		}
	}
	return nil, false
}

func (st *sessionStore) add(s *session) {
	st.mu.Lock()
	max := st.max
	if max == 0 {
		max = DefaultSessionEntries
	}
	var evicted *session
	if len(st.entries) < max {
		st.entries = append(st.entries, nil)
	} else if n := len(st.entries); n > 0 {
		evicted = st.entries[n-1]
		st.evictions++
		metricSessionEvictions.Add(1)
		// Registered before the store lock drops: there is no instant at
		// which the evicted session is in neither entries nor pending.
		if st.pending == nil {
			st.pending = make(map[string]*session)
		}
		st.pending[evicted.id] = evicted
	}
	copy(st.entries[1:], st.entries)
	st.entries[0] = s
	onEvict := st.onEvict
	st.mu.Unlock()
	if evicted == nil {
		return
	}
	if onEvict != nil {
		onEvict(evicted)
	}
	st.mu.Lock()
	if st.pending[evicted.id] == evicted {
		delete(st.pending, evicted.id)
	}
	st.mu.Unlock()
}

// evicting returns the session an in-flight eviction is still flushing, if
// any. Callers close it (close is idempotent) to wait for the flush before
// touching the id's on-disk state.
func (st *sessionStore) evicting(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.pending[id]
	return s, ok
}

func (st *sessionStore) remove(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, s := range st.entries {
		if s.id == id {
			st.entries = append(st.entries[:i], st.entries[i+1:]...)
			return s, true
		}
	}
	return nil, false
}

// drain empties the store and returns what it held; used by Server.Close to
// flush every live session exactly once.
func (st *sessionStore) drain() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.entries
	st.entries = nil
	return out
}

// Evictions reports how many sessions the LRU cap has flushed out since the
// store was created (a counter for the future metrics surface).
func (st *sessionStore) Evictions() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictions
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("httpapi: reading session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

type sessionCreateRequest struct {
	Data   string `json:"data"`
	Format string `json:"format,omitempty"`
}

// sessionInfo describes a session's current state on the wire. Shards
// reports the compiled snapshot's partition count (the automatic layout) —
// observability only, results never depend on it.
type sessionInfo struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Objects int    `json:"objects"`
	Links   int    `json:"links"`
	Shards  int    `json:"shards"`
}

func infoOf(s *session, prep *schemex.Prepared) sessionInfo {
	g := prep.Graph()
	return sessionInfo{
		ID: s.id, Version: prep.Version(),
		Objects: g.NumObjects(), Links: g.NumLinks(), Shards: prep.NumShards(),
	}
}

type mutateRequest struct {
	// Delta is the line-oriented edit format schemex.ParseDelta reads
	// (link/unlink/atomic/remove).
	Delta string `json:"delta"`
}

type mutateResponse struct {
	sessionInfo
	// Incremental reports whether the snapshot was rebuilt with structural
	// sharing (false on full-recompile fallbacks; results are identical).
	Incremental    bool `json:"incremental"`
	TouchedObjects int  `json:"touchedObjects"`
	NewObjects     int  `json:"newObjects"`
}

type sessionExtractRequest struct {
	Options Options `json:"options,omitempty"`
}

func (a *api) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	if !decode(w, r, &req) {
		return
	}
	g, err := loadData(req.Data, req.Format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	prep, err := schemex.PrepareOptions(r.Context(), g, schemex.Options{})
	if err != nil {
		writeError(w, extractStatus(err), err)
		return
	}
	s := &session{id: newSessionID(), prep: prep}
	if a.dataDir != "" {
		if err := a.makeDurable(s); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("persisting session: %v", err))
			return
		}
	}
	a.sessions.add(s)
	writeJSON(w, infoOf(s, prep))
}

// lookupSession resolves the {id} path segment, replying 404 on a miss (the
// id never existed, or the LRU cap evicted it). On a durable store, a miss
// first tries rehydrating the session from its on-disk log — eviction only
// flushes durable sessions, it does not forget them.
func (a *api) lookupSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	s, ok := a.sessions.get(id)
	if ok {
		metricSessionHits.Add(1)
	} else {
		metricSessionMisses.Add(1)
		if a.dataDir != "" {
			s, ok = a.rehydrate(id)
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSession(id))
	}
	return s, ok
}

func errUnknownSession(id string) error {
	return fmt.Errorf("unknown session %q (expired or never created)", id)
}

func (a *api) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if s, ok := a.lookupSession(w, r); ok {
		writeJSON(w, infoOf(s, s.current()))
	}
}

func (a *api) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, err := a.deleteSession(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, errUnknownSession(id))
		return
	}
	writeJSON(w, map[string]string{"deleted": id})
}

// handleSessionMutate accepts one delta into the session's mutation queue
// (see queue.go): the drainer applies queued bursts as single batches — one
// coalesced apply, one WAL group append — and ?mode picks how the client
// waits. sync (the default) responds once the job's batch commits, exactly
// the old per-request semantics including durability before acknowledgment;
// async responds 202 with a job id to poll. A full queue sheds with 429.
func (a *api) handleSessionMutate(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !decode(w, r, &req) {
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode != "" && mode != "sync" && mode != "async" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (sync, async)", mode))
		return
	}
	s, ok := a.lookupSession(w, r)
	if !ok {
		return
	}
	d, err := schemex.ParseDelta(strings.NewReader(req.Delta))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, status, err := a.enqueue(s.id, d)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	if mode == "async" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, jobStatusResponse{Session: s.id, Job: j.id, Status: jobQueued})
		return
	}
	<-j.done
	if j.err != nil {
		writeError(w, j.errStatus, j.err)
		return
	}
	writeJSON(w, *j.resp)
}

func (a *api) handleSessionExtract(w http.ResponseWriter, r *http.Request) {
	var req sessionExtractRequest
	if !decode(w, r, &req) {
		return
	}
	s, ok := a.lookupSession(w, r)
	if !ok {
		return
	}
	// Extraction runs against an immutable Prepared outside the session
	// lock: concurrent mutates branch away without disturbing it.
	extractOver(w, r, s.current(), req.Options)
}
