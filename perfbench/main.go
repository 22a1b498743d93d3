// Command perfbench is schemex's benchmark: it runs one seeded workload
// against the real serving stack, checks every answer, and prints the
// workload's metrics, ending with one JSON line
//
//	{"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
//
// Workloads (see README.md for why each exists):
//
//	extract-cold  passes over 36 rotating datasets through POST /v1/extract
//	session-edit  one durable session under a seeded edit stream
//	restart       restarts of the schemex-server binary over 8 durable sessions
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also replays the same operations through the library calls the server
// makes, with spans around each, and prints the per-layer metrics.
// perfbench/run.sh builds the binaries and passes -server and -scratch.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // this run's scratch directory, removed afterwards
	server  string // schemex-server binary (restart only)
}

// outcome is one workload run's verdict and figures.
type outcome struct {
	attempted, failed int // failed: ops that got a non-2xx answer or failed a check
	e2e, layers       map[string]float64
	notes             []string // extra human-readable lines
	tr                *tracer
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"extract-cold": runExtractCold,
	"session-edit": runSessionEdit,
	"restart":      runRestart,
}

// setupRepeats is how many times each run builds its set-up; setup_s is
// their median, and the last one is measured.
const setupRepeats = 3

// setUp builds a workload's set-up setupRepeats times, releasing all but the
// last, and returns the last with the median build time in seconds.
func setUp[T any](build func(rep int) (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		next, err := build(i)
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			release(last)
		}
		last = next
	}
	return last, median(secs), nil
}

// putTails stores the p50 and p75 of each named sample set in m, as
// <name>_p50 and <name>_p75.
func putTails(m map[string]float64, sets map[string][]float64) error {
	for name, xs := range sets {
		for _, q := range []float64{50, 75} {
			v, err := percentile(xs, q)
			if err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			m[fmt.Sprintf("%s_p%g", name, q)] = v
		}
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "extract-cold, session-edit or restart")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 adds the traced replay and prints per-layer metrics")
	server := flag.String("server", "", "schemex-server binary")
	scratch := flag.String("scratch", ".bench_build/runs", "parent of the per-run scratch directory")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *server, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, server, scratch string) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(scratch, fmt.Sprintf("%s-%d", workload, os.Getpid())))
	if err != nil {
		return err
	}
	os.RemoveAll(dir)
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Shard residency temp files of in-process servers and replays land in
	// the run directory and go with it.
	os.Setenv("TMPDIR", tmp)

	cpu0 := readCPUTimes()
	out, err := w(runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, dir: dir, server: server})
	if err != nil {
		return err
	}
	env := newEnvRecord(dir, tmp, cpu0, readCPUTimes())
	if out.tr != nil {
		tdir := filepath.Join(filepath.Dir(scratch), "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return err
		}
		if err := out.tr.write(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))); err != nil {
			return err
		}
	}

	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("failed_frac %.4f 1 (%d of %d ops)\n", frac(out.failed, out.attempted), out.failed, out.attempted)
	fmt.Printf("# benchmark process peak RSS %.1f MB, checks and replays included\n", maxRSSMB())
	defs, vals := endToEnd, out.e2e
	if trace == 1 {
		printMetrics(endToEnd, out.e2e) // for the reader; the JSON carries the layers
		defs, vals = perLayer, out.layers
	}
	printMetrics(defs, vals)
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metricOut{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = metricOut{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-28s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// measureLoop runs op until at least d has passed and done reports that the
// samples suffice, giving up on the second condition after 3*d. It returns
// the number of ops run and the elapsed time.
func measureLoop(d time.Duration, done func() bool, op func(i int) error) (int, time.Duration, error) {
	start := time.Now()
	i := 0
	for {
		el := time.Since(start)
		if el >= d && (done() || el >= 3*d) {
			return i, el, nil
		}
		if err := op(i); err != nil {
			return i, time.Since(start), err
		}
		i++
	}
}

// inproc calls an http.Handler directly: the in-process workloads measure
// the handler, not the loopback network.
type inproc struct{ h http.Handler }

func (c inproc) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	c.h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.Bytes()
}

func ok2xx(code int) bool { return code >= 200 && code < 300 }

// serverMetrics is the subset of GET /v1/metrics the benchmark reads.
type serverMetrics struct {
	CacheHits   float64 `json:"schemex_snapshot_cache_hits"`
	CacheMisses float64 `json:"schemex_snapshot_cache_misses"`
	ShardFaults float64 `json:"schemex_shard_faults"`
	Queue       struct {
		BatchSizeP50 float64 `json:"batchSizeP50"`
	} `json:"schemex_queue"`
	Memstats struct {
		TotalAlloc    float64 `json:"TotalAlloc"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
}

func parseMetrics(code int, body []byte) (serverMetrics, error) {
	var m serverMetrics
	if code != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: status %d", code)
	}
	return m, json.Unmarshal(body, &m)
}

// extractReply is the part of an extract response the checks and counters
// read.
type extractReply struct {
	Schema       string `json:"schema"`
	Defect       int    `json:"defect"`
	PerfectTypes int    `json:"perfectTypes"`
	Incremental  *struct {
		Stage1Warm   bool `json:"stage1Warm"`
		Stage2Warm   bool `json:"stage2Warm"`
		Stage3Warm   bool `json:"stage3Warm"`
		FastPath     bool `json:"fastPath"`
		DirtyTypes   int  `json:"dirtyTypes"`
		DirtyObjects int  `json:"dirtyObjects"`
	} `json:"incremental"`
}

// extractCounters fills the core.* and perfect.types layer metrics from the
// untraced run's extract responses.
func extractCounters(replies []extractReply, out map[string]float64) {
	var s1, s2, s3, fast int
	var types, dt, do []float64
	for _, r := range replies {
		types = append(types, float64(r.PerfectTypes))
		in := r.Incremental
		if in == nil {
			continue
		}
		s1 += b2i(in.Stage1Warm)
		s2 += b2i(in.Stage2Warm)
		s3 += b2i(in.Stage3Warm)
		fast += b2i(in.FastPath)
		if in.DirtyTypes >= 0 {
			dt = append(dt, float64(in.DirtyTypes))
		}
		if in.DirtyObjects >= 0 {
			do = append(do, float64(in.DirtyObjects))
		}
	}
	n := len(replies)
	out["perfect.types"] = median(types)
	out["core.stage1_warm_frac"] = frac(s1, n)
	out["core.stage2_warm_frac"] = frac(s2, n)
	out["core.stage3_warm_frac"] = frac(s3, n)
	out["core.fastpath_frac"] = frac(fast, n)
	out["core.dirty_types"] = median(dt)
	out["core.dirty_objects"] = median(do)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// zeroLayers starts a layer map with every per-layer metric at 0, the value
// of a layer the workload leaves idle.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// mix derives a child seed; the same (seed, parts) always gives the same
// value (splitmix64 finalizer).
func mix(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}
