// Package httpapi exposes schema extraction as a small JSON-over-HTTP
// service (stdlib net/http only). cmd/schemex-server wires it to a listener;
// the handler is also exercised directly by httptest-based tests.
//
// Endpoints (all request bodies are JSON envelopes):
//
//	POST /v1/extract  {data, format, options}        -> schema + defect report
//	POST /v1/sweep    {data, format, options}        -> sensitivity curve
//	POST /v1/check    {data, format, schema}         -> conformance report
//	POST /v1/query    {data, format, path, guided}   -> matching objects
//	GET  /v1/healthz                                 -> 200 ok
//
// Delta sessions expose extraction over evolving data (see session.go):
//
//	POST   /v1/session                    {data, format}  -> session id
//	GET    /v1/session/{id}                               -> session info
//	DELETE /v1/session/{id}                               -> drop the session
//	POST   /v1/session/{id}/mutate        {delta}         -> apply edits
//	POST   /v1/session/{id}/extract       {options}       -> schema + defects
//
// "format" is "text" (the link/atomic line format, default), "oem", or
// "json". Errors come back as {"error": "..."} with a 4xx status.
package httpapi

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"schemex"
	"schemex/internal/wal"
)

// MaxBody caps request bodies (data sets are inlined in the envelope).
const MaxBody = 32 << 20

// ExtractLimits is the resource budget applied to every extract, sweep and
// guided query request: the input already passed MaxBody, so the graph caps
// mirror that scale, and the wall-clock cap keeps one adversarial dataset
// from pinning a worker forever. /v1/check obeys the wall-clock cap too.
var ExtractLimits = schemex.Limits{MaxWallTime: 2 * time.Minute}

// extractStatus maps an extraction error to an HTTP status: client-closed
// (499, the de-facto nginx code) for request cancellation, 503 for an
// expired budget, 500 for an internal invariant failure, 422 otherwise.
func extractStatus(err error) int {
	var le *schemex.LimitError
	var ie *schemex.InternalError
	switch {
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.As(err, &le):
		return http.StatusUnprocessableEntity
	case errors.As(err, &ie):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// Options mirrors schemex.Options for the wire.
type Options struct {
	K           int      `json:"k,omitempty"`
	Delta       string   `json:"delta,omitempty"`
	AllowEmpty  bool     `json:"allowEmpty,omitempty"`
	MultiRole   bool     `json:"multiRole,omitempty"`
	UseSorts    bool     `json:"useSorts,omitempty"`
	SeedSchema  string   `json:"seedSchema,omitempty"`
	ValueLabels []string `json:"valueLabels,omitempty"`
	MaxDistance int      `json:"maxDistance,omitempty"`
}

func (o Options) toLib() schemex.Options {
	return schemex.Options{
		K:           o.K,
		Delta:       o.Delta,
		AllowEmpty:  o.AllowEmpty,
		MultiRole:   o.MultiRole,
		UseSorts:    o.UseSorts,
		SeedSchema:  o.SeedSchema,
		ValueLabels: o.ValueLabels,
		MaxDistance: o.MaxDistance,
	}
}

type extractRequest struct {
	Data    string  `json:"data"`
	Format  string  `json:"format,omitempty"`
	Options Options `json:"options,omitempty"`
}

// TypeJSON is one extracted type on the wire.
type TypeJSON struct {
	Name       string `json:"name"`
	Definition string `json:"definition"`
	Weight     int    `json:"weight"`
	Size       int    `json:"size"`
}

// IncrementalJSON reports which stages of one extraction warm-started from
// retained session state, with the per-stage wall clock in milliseconds.
// Observability only: warm and cold responses carry identical schemas.
type IncrementalJSON struct {
	Stage1Warm   bool    `json:"stage1Warm"`
	Stage2Warm   bool    `json:"stage2Warm"`
	Stage3Warm   bool    `json:"stage3Warm"`
	FastPath     bool    `json:"fastPath"`
	DirtyTypes   int     `json:"dirtyTypes"`
	DirtyObjects int     `json:"dirtyObjects"`
	Stage1Ms     float64 `json:"stage1Ms"`
	Stage2Ms     float64 `json:"stage2Ms"`
	Stage3Ms     float64 `json:"stage3Ms"`
	TotalMs      float64 `json:"totalMs"`
}

type extractResponse struct {
	Schema       string           `json:"schema"`
	PerfectTypes int              `json:"perfectTypes"`
	NumTypes     int              `json:"numTypes"`
	AutoK        int              `json:"autoK,omitempty"`
	Defect       int              `json:"defect"`
	Excess       int              `json:"excess"`
	Deficit      int              `json:"deficit"`
	Unclassified int              `json:"unclassified"`
	Types        []TypeJSON       `json:"types"`
	Incremental  *IncrementalJSON `json:"incremental,omitempty"`
}

type sweepResponse struct {
	Suggested int                  `json:"suggested"`
	Points    []schemex.SweepPoint `json:"points"`
}

type checkRequest struct {
	Data   string `json:"data"`
	Format string `json:"format,omitempty"`
	Schema string `json:"schema"`
}

type checkResponse struct {
	Conforms     bool           `json:"conforms"`
	Excess       int            `json:"excess"`
	Unclassified int            `json:"unclassified"`
	Types        map[string]int `json:"types"`
}

type queryRequest struct {
	Data   string  `json:"data"`
	Format string  `json:"format,omitempty"`
	Path   string  `json:"path"`
	Guided bool    `json:"guided,omitempty"`
	Opts   Options `json:"options,omitempty"`
}

type queryResponse struct {
	Matches []string `json:"matches"`
	Count   int      `json:"count"`
}

// DefaultCacheEntries is the prepared-snapshot LRU capacity when Config
// leaves it unset. Entries hold a full graph plus its compiled snapshot, so
// the default is kept small; repeated traffic over a handful of datasets is
// the pattern the cache serves.
const DefaultCacheEntries = 8

// DefaultSessionEntries bounds live delta sessions when Config leaves it
// unset. Sessions pin a graph and snapshot each, like cache entries, but are
// addressed by id and mutated in place, so idle ones are evicted LRU.
const DefaultSessionEntries = 64

// Config sizes a handler's server-side state.
type Config struct {
	// CacheEntries is the prepared-snapshot LRU capacity (default
	// DefaultCacheEntries). It must be positive: a server that cannot hold
	// even one snapshot would silently recompile on every request, so
	// NewHandler panics rather than accepting zero or less (flag validation
	// belongs in the caller, e.g. cmd/schemex-server).
	CacheEntries int
	// SessionEntries caps concurrent delta sessions (default
	// DefaultSessionEntries); the least recently used session is dropped
	// when a new one would exceed the cap. With DataDir set, eviction
	// flushes the session's log and forgets only the in-memory copy — the
	// next request for its id rehydrates it from disk.
	SessionEntries int
	// DataDir, when non-empty, makes delta sessions durable: every accepted
	// delta is written to a per-session write-ahead log under
	// DataDir/sessions/<id>/ before the mutation is acknowledged, and
	// NewServer recovers all sessions found there on startup. Empty (the
	// default) keeps sessions purely in memory, exactly as before.
	DataDir string
	// SyncEvery and SyncInterval set the log's group-commit policy (see
	// wal.SyncPolicy): with both zero every append is fsynced before the
	// mutation is acknowledged. SyncEvery=N batches up to N appends per
	// fsync; SyncInterval flushes on a timer instead. Only consulted when
	// DataDir is set.
	SyncEvery    int
	SyncInterval time.Duration
	// SpillEvery is the number of logged deltas between snapshot spills
	// (default DefaultSpillEvery). A spill bounds restart replay work and
	// truncates the log by rotating to a fresh generation.
	SpillEvery int
	// SpillBytes, when positive, also triggers a snapshot spill whenever the
	// session's log grows past this many bytes, whichever of the two
	// thresholds trips first. Delta records vary enormously in size (one
	// unlink versus a thousand-link batch), so a byte bound keeps restart
	// replay time proportional to data volume, not delta count. Zero disables
	// the byte trigger.
	SpillBytes int64
	// RecoverConcurrency caps how many session directories startup recovery
	// rehydrates at once (default DefaultRecoverConcurrency). Replaying a log
	// re-runs graph parsing and snapshot compilation per session, so the pool
	// bounds both CPU and peak memory during a restart over a large DataDir.
	RecoverConcurrency int
	// QueueDepth bounds queued-but-unapplied mutations per session (default
	// DefaultQueueDepth); past it mutate requests shed with 429 +
	// Retry-After. See queue.go.
	QueueDepth int
	// BatchMax caps how many queued deltas one drainer pass applies as a
	// single batch (default DefaultBatchMax). 1 disables batching: every
	// mutation pays its own apply and fsync, the pre-queue behavior.
	BatchMax int
	// BatchWindow, when positive, makes the drainer wait this long before
	// each pass so a burst can accumulate into one batch. Zero (the default)
	// drains as fast as mutations arrive — bursts still batch because jobs
	// queue up behind the in-flight pass.
	BatchWindow time.Duration
}

// api is one handler instance's state: the snapshot cache, the session
// store, and (when DataDir is set) the durability knobs. All handlers hang
// off it so separate handlers (tests, embedders) never share caches through
// package globals.
type api struct {
	snapshots prepCache
	sessions  sessionStore

	// Durability; zero values when Config.DataDir was empty.
	dataDir    string
	pol        wal.SyncPolicy
	spillEvery int
	spillBytes int64
	recoverPar int

	// recoverMu serializes disk-level session lifecycle (rehydrate, delete,
	// startup recovery) so two requests for the same evicted id cannot both
	// open its log. corrupt pins sessions whose durable state was refused —
	// the verdict is remembered instead of re-scanning the bad log on every
	// request. Both are touched only with recoverMu held.
	recoverMu sync.Mutex
	corrupt   map[string]error

	// The batching write pipeline (queue.go): one mutation queue per active
	// session id, each drained by a single goroutine tracked in queueWG.
	// queuesClosed rejects new enqueues during shutdown so Close can wait for
	// every drainer to flush. queuesMu guards the registry and the closed
	// flag, and is held across WaitGroup registration so no drainer starts
	// after Close begins waiting.
	queuesMu     sync.Mutex
	queues       map[string]*mutQueue
	queuesClosed bool
	queueWG      sync.WaitGroup
	queueDepth   int
	batchMax     int
	batchWindow  time.Duration
}

func newAPI(cfg Config) *api {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.SessionEntries == 0 {
		cfg.SessionEntries = DefaultSessionEntries
	}
	if cfg.CacheEntries < 0 || cfg.SessionEntries < 0 {
		panic(fmt.Sprintf("httpapi: non-positive capacities in %+v", cfg))
	}
	if cfg.SpillEvery == 0 {
		cfg.SpillEvery = DefaultSpillEvery
	}
	if cfg.SpillEvery < 0 || cfg.SpillBytes < 0 {
		panic(fmt.Sprintf("httpapi: negative spill threshold in %+v", cfg))
	}
	if cfg.RecoverConcurrency == 0 {
		cfg.RecoverConcurrency = DefaultRecoverConcurrency
	}
	if cfg.RecoverConcurrency < 0 {
		panic(fmt.Sprintf("httpapi: negative RecoverConcurrency in %+v", cfg))
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = DefaultBatchMax
	}
	if cfg.QueueDepth < 0 || cfg.BatchMax < 0 || cfg.BatchWindow < 0 {
		panic(fmt.Sprintf("httpapi: negative queue sizing in %+v", cfg))
	}
	a := &api{
		snapshots:  prepCache{max: cfg.CacheEntries},
		sessions:   sessionStore{max: cfg.SessionEntries},
		dataDir:    cfg.DataDir,
		pol:        wal.SyncPolicy{Every: cfg.SyncEvery, Interval: cfg.SyncInterval},
		spillEvery: cfg.SpillEvery,
		spillBytes: cfg.SpillBytes,
		recoverPar: cfg.RecoverConcurrency,
		corrupt:    make(map[string]error),

		queues:      make(map[string]*mutQueue),
		queueDepth:  cfg.QueueDepth,
		batchMax:    cfg.BatchMax,
		batchWindow: cfg.BatchWindow,
	}
	// Eviction flushes rather than drops: close() syncs and closes the log
	// so the durable copy is complete before the in-memory one is forgotten.
	// A failed flush means acknowledged deltas may not be durable — log it
	// loudly; the next rehydration still replays whatever the file holds.
	a.sessions.onEvict = func(s *session) {
		if err := s.close(); err != nil {
			log.Printf("httpapi: session %s: flushing evicted session log: %v", s.id, err)
		}
	}
	return a
}

// Server is a handler plus lifecycle: it owns the durable session state under
// Config.DataDir and flushes it on Close. cmd/schemex-server drives one;
// tests construct several over the same DataDir to exercise recovery.
type Server struct {
	a *api
	h http.Handler
}

// NewServer builds the API, recovering any durable sessions found under
// cfg.DataDir. Sessions whose logs are corrupt are refused individually (they
// keep returning errors until deleted); only an unusable DataDir itself is a
// construction error.
func NewServer(cfg Config) (*Server, error) {
	a := newAPI(cfg)
	if a.dataDir != "" {
		if err := os.MkdirAll(filepath.Join(a.dataDir, sessionsSubdir), 0o755); err != nil {
			return nil, fmt.Errorf("httpapi: preparing data dir: %v", err)
		}
		if err := a.recoverAll(); err != nil {
			return nil, fmt.Errorf("httpapi: recovering sessions: %v", err)
		}
	}
	return &Server{a: a, h: a.routes()}, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.h }

// SessionEvictions reports how many sessions the LRU cap has flushed.
func (s *Server) SessionEvictions() uint64 { return s.a.sessions.Evictions() }

// Close flushes and closes every live session's write-ahead log. After Close
// the handler must not serve further requests; durable state on disk is
// complete and a future NewServer over the same DataDir recovers it. A
// non-nil error means at least one session's final flush failed — under a
// batched sync policy its acknowledged deltas may not have reached disk, so
// callers (cmd/schemex-server) must report it rather than claim a clean
// shutdown.
func (s *Server) Close() error {
	// Stop accepting mutations, then let every drainer flush its queued jobs
	// — applied and logged, or failed with a terminal status — while the
	// session logs are still open. Only then close the logs: no accepted job
	// is ever left "queued" and no applied delta unlogged.
	s.a.queuesMu.Lock()
	s.a.queuesClosed = true
	s.a.queuesMu.Unlock()
	s.a.queueWG.Wait()
	var errs []error
	for _, sess := range s.a.sessions.drain() {
		if err := sess.close(); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", sess.id, err))
		}
	}
	return errors.Join(errs...)
}

func (a *api) routes() http.Handler {
	mux := http.NewServeMux()
	// Every route is wrapped with the pattern as its metrics label, feeding
	// the per-endpoint latency/size percentiles on /v1/metrics (metrics.go).
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrumentRoute(pattern, h))
	}
	handle("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	// Process-wide counters (see metrics.go) plus whatever else the process
	// published on the standard expvar surface.
	handle("GET /v1/metrics", expvar.Handler().ServeHTTP)
	handle("/v1/extract", a.handleExtract)
	handle("/v1/sweep", a.handleSweep)
	handle("/v1/check", handleCheck)
	handle("/v1/query", a.handleQuery)
	handle("POST /v1/session", a.handleSessionCreate)
	handle("GET /v1/session/{id}", a.handleSessionGet)
	handle("DELETE /v1/session/{id}", a.handleSessionDelete)
	handle("POST /v1/session/{id}/mutate", a.handleSessionMutate)
	handle("POST /v1/session/{id}/extract", a.handleSessionExtract)
	handle("GET /v1/session/{id}/job/{jobID}", a.handleJobStatus)
	return mux
}

// NewHandler returns an API handler with its own caches, sized by cfg. For a
// durable configuration prefer NewServer, which surfaces recovery errors and
// owns shutdown flushing; NewHandler panics if cfg.DataDir cannot be used.
func NewHandler(cfg Config) http.Handler {
	s, err := NewServer(cfg)
	if err != nil {
		panic(err)
	}
	return s.Handler()
}

// Handler returns an API handler with default capacities.
func Handler() http.Handler { return NewHandler(Config{}) }

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON marshals v fully before touching the response: an encoding
// failure becomes a clean 500 error envelope instead of a silently truncated
// 200 body, and a failed write (client gone mid-response) is logged rather
// than dropped.
func writeJSON(w http.ResponseWriter, v interface{}) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Printf("httpapi: encoding response: %v", err)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %v", err))
		return
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf); err != nil {
		log.Printf("httpapi: writing response: %v", err)
	}
}

func decode(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

// prepCache is a content-hash-keyed LRU of prepared extraction contexts:
// repeated /v1/extract, /v1/sweep, and /v1/query requests carrying the same
// (format, data) pair skip the parse and the snapshot compilation entirely.
// Entries are immutable once stored, so concurrent readers can share them.
type prepCache struct {
	mu      sync.Mutex
	max     int              // capacity; 0 means DefaultCacheEntries
	entries []prepCacheEntry // front = most recently used
}

type prepCacheEntry struct {
	key  [sha256.Size]byte
	prep *schemex.Prepared
}

func (c *prepCache) get(key [sha256.Size]byte) (*schemex.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.key == key {
			copy(c.entries[1:], c.entries[:i])
			c.entries[0] = e
			return e.prep, true
		}
	}
	return nil, false
}

func (c *prepCache) put(key [sha256.Size]byte, prep *schemex.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.key == key {
			copy(c.entries[1:], c.entries[:i])
			c.entries[0] = prepCacheEntry{key, prep}
			return
		}
	}
	max := c.max
	if max == 0 {
		max = DefaultCacheEntries
	}
	if len(c.entries) < max {
		c.entries = append(c.entries, prepCacheEntry{})
	} else {
		metricSnapshotEvictions.Add(1) // the back entry is about to be shifted out
	}
	copy(c.entries[1:], c.entries)
	c.entries[0] = prepCacheEntry{key, prep}
}

func (c *prepCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func prepKey(data, format string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(format))
	h.Write([]byte{0})
	h.Write([]byte(data))
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// loadPrepared returns a prepared extraction context for the request data,
// hitting the snapshot cache when the same dataset was served before. On
// error the returned status is the HTTP code to report (load failures are
// the client's fault; preparation failures follow extractStatus).
func (a *api) loadPrepared(ctx context.Context, data, format string) (*schemex.Prepared, int, error) {
	key := prepKey(data, format)
	if prep, ok := a.snapshots.get(key); ok {
		metricSnapshotHits.Add(1)
		return prep, 0, nil
	}
	metricSnapshotMisses.Add(1)
	g, err := loadData(data, format)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	prep, err := schemex.PrepareOptions(ctx, g, schemex.Options{})
	if err != nil {
		return nil, extractStatus(err), err
	}
	a.snapshots.put(key, prep)
	return prep, 0, nil
}

func loadData(data, format string) (*schemex.Graph, error) {
	if strings.TrimSpace(data) == "" {
		return nil, fmt.Errorf("empty data")
	}
	switch format {
	case "", "text":
		return schemex.ReadGraph(strings.NewReader(data))
	case "oem":
		return schemex.ParseOEMString(data)
	case "json":
		return schemex.ParseJSON(strings.NewReader(data), "root")
	default:
		return nil, fmt.Errorf("unknown format %q (text, oem, json)", format)
	}
}

// extractOver runs one bounded extraction against prep and writes the JSON
// response (or the mapped error); shared by /v1/extract and session extract.
func extractOver(w http.ResponseWriter, r *http.Request, prep *schemex.Prepared, o Options) {
	opts := o.toLib()
	opts.Limits = ExtractLimits
	res, err := schemex.ExtractPreparedContext(r.Context(), prep, opts)
	if err != nil {
		writeError(w, extractStatus(err), err)
		return
	}
	resp := extractResponse{
		Schema:       res.Schema(),
		PerfectTypes: res.PerfectTypes(),
		NumTypes:     res.NumTypes(),
		AutoK:        res.AutoK(),
		Defect:       res.Defect(),
		Excess:       res.Excess(),
		Deficit:      res.Deficit(),
		Unclassified: res.Unclassified(),
	}
	for _, ti := range res.Types() {
		resp.Types = append(resp.Types, TypeJSON{
			Name: ti.Name, Definition: ti.Definition, Weight: ti.Weight, Size: ti.Size,
		})
	}
	in, tm := res.Incremental(), res.Timing()
	resp.Incremental = &IncrementalJSON{
		Stage1Warm:   in.Stage1Warm,
		Stage2Warm:   in.Stage2Warm,
		Stage3Warm:   in.Stage3Warm,
		FastPath:     in.FastPath,
		DirtyTypes:   in.DirtyTypes,
		DirtyObjects: in.DirtyObjects,
		Stage1Ms:     tm.Stage1.Seconds() * 1e3,
		Stage2Ms:     tm.Stage2.Seconds() * 1e3,
		Stage3Ms:     tm.Stage3.Seconds() * 1e3,
		TotalMs:      tm.Total.Seconds() * 1e3,
	}
	writeJSON(w, resp)
}

func (a *api) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req extractRequest
	if !decode(w, r, &req) {
		return
	}
	prep, status, err := a.loadPrepared(r.Context(), req.Data, req.Format)
	if err != nil {
		writeError(w, status, err)
		return
	}
	extractOver(w, r, prep, req.Options)
}

func (a *api) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req extractRequest
	if !decode(w, r, &req) {
		return
	}
	prep, status, err := a.loadPrepared(r.Context(), req.Data, req.Format)
	if err != nil {
		writeError(w, status, err)
		return
	}
	opts := req.Options.toLib()
	opts.Limits = ExtractLimits
	sw, err := schemex.SweepPreparedContext(r.Context(), prep, opts)
	if err != nil {
		writeError(w, extractStatus(err), err)
		return
	}
	writeJSON(w, sweepResponse{Suggested: sw.Suggested, Points: sw.Points})
}

func handleCheck(w http.ResponseWriter, r *http.Request) {
	var req checkRequest
	if !decode(w, r, &req) {
		return
	}
	g, err := loadData(req.Data, req.Format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if d := ExtractLimits.MaxWallTime; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	report, err := schemex.Check(ctx, g, req.Schema)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = extractStatus(err)
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, checkResponse{
		Conforms:     report.Conforms(),
		Excess:       report.Excess,
		Unclassified: report.Unclassified,
		Types:        report.Types,
	})
}

func (a *api) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decode(w, r, &req) {
		return
	}
	prep, status, err := a.loadPrepared(r.Context(), req.Data, req.Format)
	if err != nil {
		writeError(w, status, err)
		return
	}
	var matches []string
	if req.Guided {
		opts := req.Opts.toLib()
		opts.Limits = ExtractLimits
		res, err := schemex.ExtractPreparedContext(r.Context(), prep, opts)
		if err != nil {
			writeError(w, extractStatus(err), err)
			return
		}
		matches, err = res.FindPath(req.Path)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		matches, err = prep.Graph().FindPath(req.Path)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	writeJSON(w, queryResponse{Matches: matches, Count: len(matches)})
}
