package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"schemex"
	"schemex/internal/core"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/httpapi"
	"schemex/internal/recast"
	"schemex/internal/wal"
)

// Step kinds of the session-edit stream: every 16th step is a burst of
// burstLen mutates, every other 8th a warm extract at sessionK, the rest
// sync single-delta mutates.
const (
	stepMutate = iota
	stepExtract
	stepBurst

	burstLen = 32
	sessionK = 6
)

type editStep struct {
	kind   int
	deltas []string
	bodies [][]byte
}

// editSteps builds n steps from the stream, with their mutate bodies.
func editSteps(stream *editStream, n int) []editStep {
	steps := make([]editStep, n)
	for i := range steps {
		st := &steps[i]
		switch {
		case i%16 == 15:
			st.kind = stepBurst
		case i%8 == 7:
			st.kind = stepExtract
			continue
		}
		count := 1
		if st.kind == stepBurst {
			count = burstLen
		}
		for j := 0; j < count; j++ {
			d := stream.next()
			body, _ := json.Marshal(map[string]string{"delta": d})
			st.deltas = append(st.deltas, d)
			st.bodies = append(st.bodies, body)
		}
	}
	return steps
}

type editSetup struct {
	text  string
	steps []editStep
	srv   *httpapi.Server
	c     inproc
	base  string // /v1/session/<id>
}

var sessionExtractBody = []byte(fmt.Sprintf(`{"options":{"k":%d}}`, sessionK))

func setupSessionEdit(cfg runConfig, rep int) (*editSetup, error) {
	db, _ := dbg.Generate(dbg.Options{Seed: mix(cfg.seed, 1), Scale: 2})
	var b bytes.Buffer
	if err := db.Write(&b); err != nil {
		return nil, err
	}
	s := &editSetup{text: b.String()}
	parsed, err := graph.Read(strings.NewReader(s.text))
	if err != nil {
		return nil, err
	}
	// Far more steps than a run of cfg.seconds gets through.
	s.steps = editSteps(newEditStream(parsed, mix(cfg.seed, 2)), 500*int(cfg.seconds/time.Second))

	s.srv, err = httpapi.NewServer(httpapi.Config{DataDir: filepath.Join(cfg.dir, fmt.Sprintf("session-data-%d", rep))})
	if err != nil {
		return nil, err
	}
	s.c = inproc{s.srv.Handler()}
	body, _ := json.Marshal(map[string]string{"data": s.text})
	code, resp := s.c.do("POST", "/v1/session", body)
	var info struct{ ID string }
	if code != 200 || json.Unmarshal(resp, &info) != nil {
		s.srv.Close()
		return nil, fmt.Errorf("creating session: %d %s", code, resp)
	}
	s.base = "/v1/session/" + info.ID
	if code, resp := s.c.do("POST", s.base+"/extract", sessionExtractBody); code != 200 {
		s.srv.Close()
		return nil, fmt.Errorf("warm-up extract: %d %s", code, resp)
	}
	return s, nil
}

func runSessionEdit(cfg runConfig) (*outcome, error) {
	s, setupS, err := setUp(func(rep int) (*editSetup, error) { return setupSessionEdit(cfg, rep) },
		func(s *editSetup) { s.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()

	// Replies are reduced right after each step, outside its timing: a
	// mutate to its incremental flag, an extract to its counters, keeping
	// the schema only for the extracts the checks sample (every 32nd and
	// the last).
	type sample struct {
		step, applied int
		reply         extractReply
	}
	var samples []sample
	var last sample
	var replies []extractReply
	var mutateMS, extractMS, burstMS []float64
	mutates, incremental := 0, 0
	failed := map[int]bool{}
	applied := 0
	tmpDir := os.Getenv("TMPDIR")
	runtime.GC()
	tmp0, w0, rt0 := dirMB(tmpDir), wchar(), readRuntime()
	cpu0 := cpuTime()
	n, el, err := measureLoop(cfg.seconds, func() bool {
		return enough(len(mutateMS), 75) && enough(len(extractMS), 75) && enough(len(burstMS), 75)
	}, func(i int) error {
		if i == len(s.steps) {
			return fmt.Errorf("session-edit: all %d prebuilt steps used; raise the step count", i)
		}
		st := s.steps[i]
		var code int
		var body []byte
		switch st.kind {
		case stepMutate:
			t := time.Now()
			code, body = s.c.do("POST", s.base+"/mutate", st.bodies[0])
			mutateMS = append(mutateMS, ms(time.Since(t)))
		case stepBurst:
			t := time.Now()
			for _, b := range st.bodies[:len(st.bodies)-1] {
				if code, _ := s.c.do("POST", s.base+"/mutate?mode=async", b); code != 202 {
					failed[i] = true
				}
			}
			code, body = s.c.do("POST", s.base+"/mutate", st.bodies[len(st.bodies)-1])
			burstMS = append(burstMS, ms(time.Since(t)))
		case stepExtract:
			t := time.Now()
			code, body = s.c.do("POST", s.base+"/extract", sessionExtractBody)
			extractMS = append(extractMS, ms(time.Since(t)))
		}
		if code != 200 {
			failed[i] = true
		}
		if st.kind == stepExtract {
			var got extractReply
			if json.Unmarshal(body, &got) != nil {
				failed[i] = true
			}
			last = sample{i, applied, got}
			if len(extractMS)%32 == 1 {
				samples = append(samples, last)
			}
			got.Schema = ""
			replies = append(replies, got)
		} else {
			var r struct{ Incremental bool }
			json.Unmarshal(body, &r)
			mutates++
			incremental += b2i(r.Incremental)
		}
		applied += len(st.deltas)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tmp1, w1, rt1 := dirMB(tmpDir), wchar(), readRuntime()
	cpuMS := ms(cpuTime()-cpu0) / float64(n)
	rss := maxRSSMB()
	m, err := parseMetrics(s.c.do("GET", "/v1/metrics", nil))
	if err != nil {
		return nil, err
	}

	// Checks: sampled warm extracts and the last one against a cold
	// core.Extract of the same state, built by applying the same deltas to
	// the same parsed graph.
	out := &outcome{attempted: n, layers: zeroLayers()}
	if last.step != samples[len(samples)-1].step {
		samples = append(samples, last)
	}
	db, err := graph.Read(strings.NewReader(s.text))
	if err != nil {
		return nil, err
	}
	var deltas []string
	for _, st := range s.steps[:n] {
		deltas = append(deltas, st.deltas...)
	}
	rc := recast.DefaultOptions()
	done := 0
	for _, sm := range samples {
		for ; done < sm.applied; done++ {
			d, err := graph.ParseDeltaString(deltas[done])
			if err != nil {
				return nil, err
			}
			if db, _, err = db.ApplyDelta(d); err != nil {
				return nil, fmt.Errorf("reference state: delta %d: %v", done, err)
			}
		}
		ref, err := core.Extract(db, core.Options{K: sessionK, Recast: &rc})
		if err != nil {
			return nil, err
		}
		if sm.reply.Schema != ref.Program.String() || sm.reply.Defect != ref.Defect.Total() {
			failed[sm.step] = true
		}
	}
	for _, f := range failed {
		out.failed += b2i(f)
	}

	out.e2e = map[string]float64{"setup_s": setupS, "ops_per_s": float64(n) / el.Seconds(), "peak_rss_mb": rss, "cpu_ms_per_op": cpuMS}
	// A burst is the latency this workload reports: single sync mutates
	// take a fraction of a millisecond, and on a shared host their
	// run-to-run spread is twice the burst's. They are printed and kept as
	// per-layer figures.
	if err := putTails(out.e2e, map[string][]float64{"latency_ms": burstMS, "extract_ms": extractMS}); err != nil {
		return nil, err
	}
	mutate := map[string]float64{}
	if err := putTails(mutate, map[string][]float64{"httpapi.mutate_ms": mutateMS}); err != nil {
		return nil, err
	}
	out.notes = append(out.notes,
		fmt.Sprintf("# session-edit: %d steps (%d mutates, %d bursts of %d, %d extracts, %d checked) in %.1fs; %d deltas",
			n, len(mutateMS), len(burstMS), burstLen, len(extractMS), len(samples), el.Seconds(), applied),
		fmt.Sprintf("# sync single-delta mutate: p50 %.4f ms, p75 %.4f ms", mutate["httpapi.mutate_ms_p50"], mutate["httpapi.mutate_ms_p75"]))
	if !cfg.trace {
		return out, nil
	}

	L := out.layers
	extractCounters(replies, L)
	L["compile.incremental_frac"] = frac(incremental, mutates)
	L["compile.tmp_mb_per_op"] = (tmp1 - tmp0) / float64(n)
	L["wal.write_bytes_per_delta"] = float64(w1-w0) / float64(applied)
	L["httpapi.batch_size_p50"] = m.Queue.BatchSizeP50
	for k, v := range mutate {
		L[k] = v
	}
	L["runtime.alloc_mb_per_op"] = rt0.allocMBPerOp(rt1, n)
	L["runtime.gc_cpu_frac"] = rt0.gcCPUFrac(rt1)

	// Traced replay of the first steps through the calls the mutation
	// drainer and the extract handler make; each replayer is a session of
	// its own, with a fresh prepared graph and log. The log syncs explicitly
	// after each append: the same write-then-fsync the server's default
	// policy issues, timed apart.
	var first *schemex.Prepared
	var c0 uint64
	var logs []*wal.Log
	rep := 0
	newReplayer := func() (replayer, error) {
		ctx := context.Background()
		g, err := schemex.ReadGraph(strings.NewReader(s.text))
		if err != nil {
			return nil, err
		}
		prep, err := schemex.PrepareOptions(ctx, g, schemex.Options{})
		if err != nil {
			return nil, err
		}
		if err := tracedExtract(ctx, nil, prep, sessionK); err != nil {
			return nil, err
		}
		if first == nil {
			first, c0 = prep, prep.IncrStats().CoalescedOps
		}
		rep++
		lg, err := wal.Create(filepath.Join(cfg.dir, fmt.Sprintf("replay-%d.log", rep)), wal.SyncPolicy{Every: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		logs = append(logs, lg)
		return func(tr *tracer, i int) (float64, error) {
			st := s.steps[i]
			start := time.Now()
			var err error
			if st.kind == stepExtract {
				tr.beginOp("extract")
				err = tracedExtract(ctx, tr, prep, sessionK)
			} else {
				tr.beginOp("mutate")
				prep, err = tracedApply(ctx, tr, prep, lg, st)
			}
			tr.end()
			if st.kind != stepMutate {
				return -1, err
			}
			return ms(time.Since(start)), err
		}, nil
	}
	defer func() {
		for _, lg := range logs {
			lg.Close()
		}
	}()
	// Enough steps for 21 bursts, so each per-layer median has its tail.
	const replaySteps = 21 * 16
	if err := finishReplay(out, newReplayer, 0, replaySteps, mutateMS, nil); err != nil {
		return nil, err
	}
	// Coalescing counters are shared by a session's whole lineage.
	L["graph.coalesced_frac"] = float64(first.IncrStats().CoalescedOps-c0) / float64(replaySteps/16*burstLen)
	return out, nil
}

// tracedApply is one drainer pass: parse, one batch apply, one group append,
// one sync.
func tracedApply(ctx context.Context, tr *tracer, prep *schemex.Prepared, lg *wal.Log, st editStep) (*schemex.Prepared, error) {
	ds := make([]*schemex.Delta, len(st.deltas))
	payloads := make([][]byte, len(st.deltas))
	for i, text := range st.deltas {
		tr.begin("graph.parse_delta")
		d, err := schemex.ParseDelta(strings.NewReader(text))
		tr.end()
		if err != nil {
			return nil, err
		}
		ds[i], payloads[i] = d, []byte(d.String())
	}
	name := "compile.apply"
	if st.kind == stepBurst {
		name = "compile.apply_burst"
	}
	tr.begin(name)
	next, _, err := prep.ApplyBatchContext(ctx, ds...)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("wal.append")
	if len(payloads) == 1 {
		_, err = lg.Append(wal.KindDelta, payloads[0])
	} else {
		_, err = lg.AppendAll(wal.KindDelta, payloads)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("wal.sync")
	err = lg.Sync()
	tr.end()
	return next, err
}
