package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"schemex"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/httpapi"
	"schemex/internal/wal"
)

// restartSessions is the number of durable sessions in the restart data dir.
// Their WAL suffixes are a seeded permutation of suffixLens, so every seed
// replays the same number of records in total.
const restartSessions = 8

var suffixLens = [restartSessions]int{0, 9, 18, 27, 36, 45, 54, 63}

type restartSetup struct {
	dataDir string
	ids     []string
	served  [][]byte // each session's canonical extract before the restart
	records int      // WAL records past the spills, over all sessions
}

// canonical drops the timing block of an extract response, which differs on
// every request; the rest is compared byte for byte.
func canonical(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "incremental")
	return json.Marshal(m)
}

// setupRestart builds a data dir of durable sessions with an in-process
// server: each session is spilled once at creation and then left with a
// seeded suffix of logged deltas (below the default spill interval, so no
// second spill), then extracted to record what it serves.
func setupRestart(cfg runConfig, rep int) (*restartSetup, error) {
	s := &restartSetup{dataDir: filepath.Join(cfg.dir, fmt.Sprintf("restart-data-%d", rep))}
	srv, err := httpapi.NewServer(httpapi.Config{DataDir: s.dataDir})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c := inproc{srv.Handler()}
	perm := rand.New(rand.NewSource(mix(cfg.seed, 3))).Perm(restartSessions)
	for i := 0; i < restartSessions; i++ {
		db, _ := dbg.Generate(dbg.Options{Seed: mix(cfg.seed, 10, int64(i)), Scale: 1})
		var b bytes.Buffer
		if err := db.Write(&b); err != nil {
			return nil, err
		}
		body, _ := json.Marshal(map[string]string{"data": b.String()})
		code, resp := c.do("POST", "/v1/session", body)
		var info struct{ ID string }
		if code != 200 || json.Unmarshal(resp, &info) != nil {
			return nil, fmt.Errorf("creating session: %d %s", code, resp)
		}
		s.ids = append(s.ids, info.ID)
		parsed, err := graph.Read(&b)
		if err != nil {
			return nil, err
		}
		stream := newEditStream(parsed, mix(cfg.seed, 20, int64(i)))
		n := suffixLens[perm[i]]
		for j := 0; j < n; j++ {
			path, want := "/v1/session/"+info.ID+"/mutate?mode=async", 202
			if j == n-1 {
				path, want = "/v1/session/"+info.ID+"/mutate", 200
			}
			body, _ := json.Marshal(map[string]string{"delta": stream.next()})
			if code, resp := c.do("POST", path, body); code != want {
				return nil, fmt.Errorf("mutate: %d %s", code, resp)
			}
		}
		s.records += n
	}
	for _, id := range s.ids {
		code, resp := c.do("POST", "/v1/session/"+id+"/extract", sessionExtractBody)
		if code != 200 {
			return nil, fmt.Errorf("extract before restart: %d %s", code, resp)
		}
		cb, err := canonical(resp)
		if err != nil {
			return nil, err
		}
		s.served = append(s.served, cb)
	}
	return s, srv.Close()
}

// addrWriter receives the child's stderr and reports the address from its
// "listening on" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if _, rest, ok := strings.Cut(string(w.buf), "listening on "); ok {
		if addr, _, ok := strings.Cut(rest, " "); ok {
			w.addr <- addr
			w.sent = true
		}
	}
	return len(p), nil
}

// restartOp is one measured restart.
type restartOp struct {
	readyMS, extractMS float64
	code               int
	body               []byte
	metrics            serverMetrics
	exitOK             bool
	rssMB, tmpMB       float64
	cpuMS              float64
}

func (s *restartSetup) restart(server, tmp string, session int) (restartOp, error) {
	var op restartOp
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return op, err
	}
	defer os.RemoveAll(tmp)
	cmd := exec.Command(server, "-addr", "127.0.0.1:0", "-data-dir", s.dataDir)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	// The child dies with the benchmark, should the benchmark be killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd.Stderr = aw
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableKeepAlives: true}}

	start := time.Now()
	if err := cmd.Start(); err != nil {
		return op, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
	}
	var addr string
	select {
	case addr = <-aw.addr:
	case err := <-exited:
		return op, fmt.Errorf("server exited before listening: %v: %s", err, aw.buf)
	case <-time.After(60 * time.Second):
		stop()
		return op, fmt.Errorf("server did not listen within a minute")
	}
	base := "http://" + addr
	for {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > time.Minute {
			stop()
			return op, fmt.Errorf("healthz did not answer within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	op.readyMS = ms(time.Since(start))

	t := time.Now()
	resp, err := client.Post(base+"/v1/session/"+s.ids[session]+"/extract", "application/json", bytes.NewReader(sessionExtractBody))
	if err != nil {
		stop()
		return op, err
	}
	op.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	op.extractMS, op.code = ms(time.Since(t)), resp.StatusCode
	if err != nil {
		stop()
		return op, err
	}
	if mr, err := client.Get(base + "/v1/metrics"); err == nil {
		body, _ := io.ReadAll(mr.Body)
		mr.Body.Close()
		op.metrics, _ = parseMetrics(mr.StatusCode, body)
	}

	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err = <-exited:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		err = <-exited
		if err == nil {
			err = fmt.Errorf("killed after SIGTERM timeout")
		}
	}
	op.exitOK = err == nil
	op.cpuMS = ms(cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime())
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		op.rssMB = float64(ru.Maxrss) / 1024
	}
	op.tmpMB = dirMB(tmp)
	return op, nil
}

func runRestart(cfg runConfig) (*outcome, error) {
	if cfg.server == "" {
		return nil, fmt.Errorf("restart needs -server")
	}
	s, setupS, err := setUp(func(rep int) (*restartSetup, error) { return setupRestart(cfg, rep) },
		func(s *restartSetup) { os.RemoveAll(s.dataDir) })
	if err != nil {
		return nil, err
	}

	var ops []restartOp
	var readyMS, extractMS []float64
	n, el, err := measureLoop(cfg.seconds, func() bool {
		return enough(len(readyMS), 75) && enough(len(extractMS), 75)
	}, func(i int) error {
		op, err := s.restart(cfg.server, filepath.Join(cfg.dir, "child-tmp", fmt.Sprint(i)), i%restartSessions)
		if err != nil {
			return err
		}
		ops = append(ops, op)
		readyMS = append(readyMS, op.readyMS)
		extractMS = append(extractMS, op.extractMS)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Checks: each recovered session must serve what it served before the
	// restart, and each server must exit 0 on SIGTERM. Every op is timed
	// whether or not it passes.
	out := &outcome{attempted: n, layers: zeroLayers()}
	var replies []extractReply
	var rss, cpu, faults, tmpMB, allocMB, gcFrac []float64
	mismatch, bad, unclean := 0, 0, 0
	for i, op := range ops {
		fail := false
		if op.code != 200 {
			bad++
			fail = true
		} else if cb, err := canonical(op.body); err != nil || !bytes.Equal(cb, s.served[i%restartSessions]) {
			mismatch++
			fail = true
		}
		if !op.exitOK {
			unclean++
			fail = true
		}
		out.failed += b2i(fail)
		var r extractReply
		if op.code == 200 && json.Unmarshal(op.body, &r) == nil {
			replies = append(replies, r)
		}
		rss = append(rss, op.rssMB)
		cpu = append(cpu, op.cpuMS)
		faults = append(faults, op.metrics.ShardFaults)
		tmpMB = append(tmpMB, op.tmpMB)
		allocMB = append(allocMB, op.metrics.Memstats.TotalAlloc/(1<<20))
		gcFrac = append(gcFrac, op.metrics.Memstats.GCCPUFraction)
	}

	out.e2e = map[string]float64{"setup_s": setupS, "ops_per_s": float64(n) / el.Seconds(), "peak_rss_mb": median(rss), "cpu_ms_per_op": median(cpu)}
	if err := putTails(out.e2e, map[string][]float64{"latency_ms": readyMS, "extract_ms": extractMS}); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("# restart: %d restarts in %.1fs over %d sessions, %d WAL records; %d served a different extract, %d answered non-200, %d exited non-zero",
		n, el.Seconds(), restartSessions, s.records, mismatch, bad, unclean))
	if !cfg.trace {
		return out, nil
	}

	L := out.layers
	extractCounters(replies, L)
	L["compile.shard_faults"] = median(faults)
	L["compile.tmp_mb_per_op"] = median(tmpMB)
	L["runtime.alloc_mb_per_op"] = median(allocMB)
	L["runtime.gc_cpu_frac"] = median(gcFrac)

	// Traced replay of what a restart op times, recovery, through the calls
	// startup recovery makes, one session after another. The op's untimed
	// check extract is not replayed, so the stage layers read 0 here.
	recoverAll := func(tr *tracer, _ int) (float64, error) {
		ctx := context.Background()
		start := time.Now()
		tr.beginOp("restart")
		defer tr.end()
		records := 0
		for _, id := range s.ids {
			_, n, err := tracedRecover(ctx, tr, filepath.Join(s.dataDir, "sessions", id))
			if err != nil {
				return 0, err
			}
			records += n
		}
		L["wal.records_replayed"] = float64(records)
		return ms(time.Since(start)), nil
	}
	// Real restarts interleave with the replay, so the HTTP overhead is
	// process start, listener and recovery pool against serial in-process
	// recovery, measured side by side.
	restartOp := func(i int) (float64, error) {
		op, err := s.restart(cfg.server, filepath.Join(cfg.dir, "child-tmp", fmt.Sprint(n+i)), i%restartSessions)
		return op.readyMS, err
	}
	if err := finishReplay(out, func() (replayer, error) { return recoverAll, nil }, 0, replayOps, readyMS, restartOp); err != nil {
		return nil, err
	}
	return out, nil
}

// tracedRecover rebuilds one durable session the way startup recovery does
// on its fast path: manifest, snapshot parse, spilled-core adoption, log
// suffix replay, and reopening the log for appends.
func tracedRecover(ctx context.Context, tr *tracer, dir string) (*schemex.Prepared, int, error) {
	tr.begin("wal.manifest")
	m, err := wal.ReadManifest(dir)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	if m.Core == "" || len(m.Shards) == 0 {
		return nil, 0, fmt.Errorf("%s: manifest has no shard-granular spill", dir)
	}
	snap, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		return nil, 0, err
	}
	tr.begin("graph.parse")
	g, err := schemex.ReadGraph(bytes.NewReader(snap))
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	coreBlob, err := os.ReadFile(filepath.Join(dir, m.Core))
	if err != nil {
		return nil, 0, err
	}
	paths := make([]string, len(m.Shards))
	for i, n := range m.Shards {
		paths[i] = filepath.Join(dir, n)
	}
	tr.begin("compile.load")
	prep, err := schemex.PrepareSpilled(ctx, g, coreBlob, paths, schemex.Options{})
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	prep.SetBaseVersion(m.Version)
	logPath := filepath.Join(dir, m.Log)
	n := 0
	tr.begin("wal.replay")
	_, _, err = wal.Replay(logPath, m.LogOffset, func(r wal.Record) error {
		if r.Kind != wal.KindDelta {
			return fmt.Errorf("unexpected record kind %d at offset %d", r.Kind, r.Offset)
		}
		tr.begin("graph.parse_delta")
		d, err := schemex.ParseDelta(bytes.NewReader(r.Payload))
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("compile.apply")
		next, _, err := prep.ApplyContext(ctx, d)
		tr.end()
		if err != nil {
			return err
		}
		prep = next
		n++
		return nil
	})
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("wal.open")
	lg, err := wal.Open(logPath, wal.SyncPolicy{})
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	return prep, n, lg.Close()
}
