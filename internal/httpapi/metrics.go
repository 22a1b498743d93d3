// Operational counters on the standard expvar surface, served at
// GET /v1/metrics. All registrations go through metricInt/metricFunc, which
// reuse an existing variable instead of re-registering — expvar panics on
// duplicate names, and the package must stay safe to initialize (and its
// servers safe to construct, many per process) in programs that already
// published these names or that link two copies of the registration path.
// The counters are process-wide: they aggregate across every handler
// instance, which is also what a scraper of the endpoint expects.
package httpapi

import (
	"expvar"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"schemex"
)

// metricInt returns the named expvar Int, registering it on first use. A
// name already published as an Int is adopted rather than re-registered (no
// panic); a name published as some other type is shadowed by an unpublished
// Int so callers can still Add without crashing the process.
func metricInt(name string) *expvar.Int {
	if v, ok := expvar.Get(name).(*expvar.Int); ok {
		return v
	}
	if expvar.Get(name) != nil {
		return new(expvar.Int)
	}
	return expvar.NewInt(name)
}

// metricFunc publishes a computed variable once; later calls with a name
// already on the surface are no-ops.
func metricFunc(name string, f func() interface{}) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, expvar.Func(f))
	}
}

var (
	// Prepared-snapshot cache (keyed by request content hash).
	metricSnapshotHits      = metricInt("schemex_snapshot_cache_hits")
	metricSnapshotMisses    = metricInt("schemex_snapshot_cache_misses")
	metricSnapshotEvictions = metricInt("schemex_snapshot_cache_evictions")

	// Delta-session store. A hit is a request resolving a live in-store
	// session; a miss had to rehydrate from disk or report 404; an eviction is
	// the LRU cap flushing a session out.
	metricSessionHits      = metricInt("schemex_session_store_hits")
	metricSessionMisses    = metricInt("schemex_session_store_misses")
	metricSessionEvictions = metricInt("schemex_session_store_evictions")

	// Mutation outcomes: incremental counts deltas applied with structural
	// sharing, fallback counts full recompiles (label-universe changes or
	// atomic/complex flips). Results are identical either way; the ratio is
	// the health signal for incremental maintenance.
	metricApplyIncremental = metricInt("schemex_apply_incremental")
	metricApplyFallback    = metricInt("schemex_apply_fallback")

	// Mutations shed with 429 because a session's queue was full (queue.go).
	metricQueueShed = metricInt("schemex_queue_shed")
)

// schemex_shard_faults counts the shard files session recovery has loaded
// from durable spills, read live from the library's process-wide counter so
// it needs no per-handler plumbing.
func init() {
	metricFunc("schemex_shard_faults", func() interface{} {
		return schemex.ShardsLoaded()
	})
	// Per-endpoint request percentiles and write-pipeline gauges, computed on
	// demand from the process-wide rings below.
	metricFunc("schemex_http", httpMetricsValue)
	metricFunc("schemex_queue", queueMetricsValue)
}

// sampleRing holds the most recent values of one distribution; percentiles
// are computed over its window on demand. Process-wide like every other
// metric here, guarded by its owner's mutex.
type sampleRing struct {
	vals  []float64
	next  int
	count uint64
}

const ringWindow = 512

func (r *sampleRing) add(v float64) {
	if len(r.vals) < ringWindow {
		r.vals = append(r.vals, v)
	} else {
		r.vals[r.next] = v
		r.next = (r.next + 1) % ringWindow
	}
	r.count++
}

// percentiles returns the requested nearest-rank percentiles over the window.
func (r *sampleRing) percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(r.vals) == 0 {
		return out
	}
	sorted := append([]float64(nil), r.vals...)
	sort.Float64s(sorted)
	for i, p := range ps {
		k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		if k < 0 {
			k = 0
		}
		out[i] = sorted[k]
	}
	return out
}

// routeStats is one endpoint's distributions: latency in milliseconds and
// response size in bytes, over the most recent ringWindow requests.
type routeStats struct {
	lat  sampleRing
	size sampleRing
}

var httpMetrics = struct {
	mu     sync.Mutex
	routes map[string]*routeStats
}{routes: make(map[string]*routeStats)}

func recordRoute(route string, elapsed time.Duration, bytes int) {
	httpMetrics.mu.Lock()
	rs := httpMetrics.routes[route]
	if rs == nil {
		rs = &routeStats{}
		httpMetrics.routes[route] = rs
	}
	rs.lat.add(float64(elapsed) / float64(time.Millisecond))
	rs.size.add(float64(bytes))
	httpMetrics.mu.Unlock()
}

// httpMetricsValue renders schemex_http: per-route request count plus
// p50/p90/p99 latency (ms) and p50/p99 response size (bytes) over the recent
// window.
func httpMetricsValue() interface{} {
	httpMetrics.mu.Lock()
	defer httpMetrics.mu.Unlock()
	out := make(map[string]interface{}, len(httpMetrics.routes))
	for route, rs := range httpMetrics.routes {
		lat := rs.lat.percentiles(50, 90, 99)
		size := rs.size.percentiles(50, 99)
		out[route] = map[string]interface{}{
			"count":        rs.lat.count,
			"latencyMsP50": lat[0],
			"latencyMsP90": lat[1],
			"latencyMsP99": lat[2],
			"bytesP50":     size[0],
			"bytesP99":     size[1],
		}
	}
	return out
}

// sizeRecorder counts response bytes for the size distribution.
type sizeRecorder struct {
	http.ResponseWriter
	bytes int
}

func (s *sizeRecorder) Write(p []byte) (int, error) {
	n, err := s.ResponseWriter.Write(p)
	s.bytes += n
	return n, err
}

// instrumentRoute wraps one handler with the route pattern as its metrics
// label (the mux pattern is the natural cardinality-bounded label; Go 1.22's
// Request has no Pattern field yet, so the label is threaded explicitly).
func instrumentRoute(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &sizeRecorder{ResponseWriter: w}
		h(sr, r)
		recordRoute(route, time.Since(start), sr.bytes)
	}
}

// Write-pipeline gauges: per-session queued-job depth (live) and the batch
// size distribution over the recent window.
var queueMetrics = struct {
	mu      sync.Mutex
	depth   map[string]int
	batches sampleRing
}{depth: make(map[string]int)}

func setQueueDepth(id string, depth int) {
	queueMetrics.mu.Lock()
	if depth == 0 {
		delete(queueMetrics.depth, id)
	} else {
		queueMetrics.depth[id] = depth
	}
	queueMetrics.mu.Unlock()
}

func recordBatchSize(n int) {
	queueMetrics.mu.Lock()
	queueMetrics.batches.add(float64(n))
	queueMetrics.mu.Unlock()
}

// queueMetricsValue renders schemex_queue: current per-session queue depths
// plus the drained-batch size distribution.
func queueMetricsValue() interface{} {
	queueMetrics.mu.Lock()
	defer queueMetrics.mu.Unlock()
	depth := make(map[string]int, len(queueMetrics.depth))
	for id, d := range queueMetrics.depth {
		depth[id] = d
	}
	b := queueMetrics.batches.percentiles(50, 90, 99)
	return map[string]interface{}{
		"depth":        depth,
		"batches":      queueMetrics.batches.count,
		"batchSizeP50": b[0],
		"batchSizeP90": b[1],
		"batchSizeP99": b[2],
	}
}
