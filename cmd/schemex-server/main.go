// Command schemex-server serves schema extraction over HTTP (JSON API).
//
//	schemex-server -addr :8080 -cache-entries 8
//	schemex-server -data-dir /var/lib/schemex -sync every=8
//
//	curl -s localhost:8080/v1/extract -d '{
//	  "data": "{\"name\": \"Ada\", \"age\": 36}",
//	  "format": "json",
//	  "options": {"useSorts": true}
//	}'
//
// Endpoints: POST /v1/extract, /v1/sweep, /v1/check, /v1/query; the delta
// session family under /v1/session; GET /v1/healthz. See internal/httpapi
// for the envelope formats.
//
// With -data-dir, delta sessions are durable: accepted deltas are logged to a
// per-session write-ahead log before they are acknowledged, and a restart
// recovers every session from disk. -sync picks the fsync cadence (always,
// never, every=N, interval=DURATION).
//
// SIGTERM or SIGINT triggers a graceful shutdown: the listener stops, in-
// flight requests drain (up to -drain), session logs are flushed, and the
// process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"schemex/internal/httpapi"
	"schemex/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache-entries", httpapi.DefaultCacheEntries,
		"prepared-snapshot LRU capacity (must be positive)")
	sessionEntries := flag.Int("session-entries", httpapi.DefaultSessionEntries,
		"maximum live delta sessions (must be positive)")
	dataDir := flag.String("data-dir", "",
		"directory for durable session state (empty: sessions are in-memory only)")
	sync := flag.String("sync", "always",
		"WAL fsync policy: always, never, every=N, or interval=DURATION")
	spillEvery := flag.Int("spill-every", httpapi.DefaultSpillEvery,
		"deltas between session snapshot spills (must be positive)")
	spillBytes := flag.Int64("spill-bytes", 0,
		"also spill a session snapshot once its log exceeds this many bytes (0: delta count only)")
	recoverConc := flag.Int("recover-concurrency", httpapi.DefaultRecoverConcurrency,
		"sessions recovered concurrently at startup (must be positive)")
	queueDepth := flag.Int("queue-depth", httpapi.DefaultQueueDepth,
		"queued-but-unapplied mutations per session before shedding 429 (must be positive)")
	batchMax := flag.Int("batch-max", httpapi.DefaultBatchMax,
		"maximum queued deltas applied as one batch; 1 disables batching (must be positive)")
	batchWindow := flag.Duration("batch-window", 0,
		"how long the drainer waits for a burst to accumulate before each batch (0: drain immediately)")
	drain := flag.Duration("drain", 30*time.Second,
		"graceful-shutdown drain timeout for in-flight requests")
	flag.Parse()
	if *cacheEntries <= 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -cache-entries must be positive, got %d\n", *cacheEntries)
		os.Exit(2)
	}
	if *sessionEntries <= 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -session-entries must be positive, got %d\n", *sessionEntries)
		os.Exit(2)
	}
	if *spillEvery <= 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -spill-every must be positive, got %d\n", *spillEvery)
		os.Exit(2)
	}
	if *spillBytes < 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -spill-bytes must be non-negative, got %d\n", *spillBytes)
		os.Exit(2)
	}
	if *recoverConc <= 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -recover-concurrency must be positive, got %d\n", *recoverConc)
		os.Exit(2)
	}
	if *queueDepth <= 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -queue-depth must be positive, got %d\n", *queueDepth)
		os.Exit(2)
	}
	if *batchMax <= 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -batch-max must be positive, got %d\n", *batchMax)
		os.Exit(2)
	}
	if *batchWindow < 0 {
		fmt.Fprintf(os.Stderr, "schemex-server: -batch-window must be non-negative, got %s\n", *batchWindow)
		os.Exit(2)
	}
	pol, err := wal.ParseSyncPolicy(*sync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schemex-server: -sync: %v\n", err)
		os.Exit(2)
	}

	api, err := httpapi.NewServer(httpapi.Config{
		CacheEntries:       *cacheEntries,
		SessionEntries:     *sessionEntries,
		DataDir:            *dataDir,
		SyncEvery:          pol.Every,
		SyncInterval:       pol.Interval,
		SpillEvery:         *spillEvery,
		SpillBytes:         *spillBytes,
		RecoverConcurrency: *recoverConc,
		QueueDepth:         *queueDepth,
		BatchMax:           *batchMax,
		BatchWindow:        *batchWindow,
	})
	if err != nil {
		log.Fatalf("schemex-server: %v", err)
	}

	srv := &http.Server{
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("schemex-server: %v", err)
	}
	durable := "in-memory sessions"
	if *dataDir != "" {
		durable = fmt.Sprintf("durable sessions in %s (sync %s)", *dataDir, *sync)
	}
	// The resolved address (not the flag) so ":0" callers learn the port.
	log.Printf("schemex-server listening on %s (cache %d, sessions %d, %s)",
		ln.Addr(), *cacheEntries, *sessionEntries, durable)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("schemex-server: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("schemex-server: shutting down (drain %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	clean := true
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("schemex-server: drain incomplete: %v", err)
		srv.Close()
		clean = false
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("schemex-server: serve: %v", err)
		clean = false
	}
	// Flush session logs only after the last in-flight mutation finished.
	if err := api.Close(); err != nil {
		log.Printf("schemex-server: closing sessions: %v", err)
		clean = false
	}
	if !clean {
		os.Exit(1)
	}
	log.Printf("schemex-server: clean shutdown")
}
