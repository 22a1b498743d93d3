package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"schemex"
	"schemex/internal/dbg"
	"schemex/internal/httpapi"
	"schemex/internal/synth"
)

// corpora is how many seeded copies of the nine-dataset corpus rotate: 36
// datasets cycle through the server's 8-entry snapshot cache, so the first
// request for a dataset in a pass always misses.
const corpora = 4

// dataset is one extract-cold input: graph text and its intended K.
type dataset struct {
	name string
	text string
	k    int
}

// buildCorpora regenerates the eight Table 1 presets and the DBG substitute
// from the seed, corpora times over.
func buildCorpora(seed int64) ([][]dataset, error) {
	out := make([][]dataset, corpora)
	for c := range out {
		for i, p := range synth.Presets() {
			p.Spec.Seed = mix(seed, int64(c), int64(i))
			p.Seed = mix(seed, int64(c), int64(i), 1)
			db, err := p.Build()
			if err != nil {
				return nil, err
			}
			var b bytes.Buffer
			if err := db.Write(&b); err != nil {
				return nil, err
			}
			out[c] = append(out[c], dataset{fmt.Sprintf("db%d", p.DBNo), b.String(), p.Intended()})
		}
		db, _ := dbg.Generate(dbg.Options{Seed: mix(seed, int64(c), 8), Scale: 1})
		var b bytes.Buffer
		if err := db.Write(&b); err != nil {
			return nil, err
		}
		out[c] = append(out[c], dataset{"dbg", b.String(), 6})
	}
	return out, nil
}

// coldRequest is one POST /v1/extract of a pass: the dataset at K (a cache
// miss) or at K+2 (a hit on the snapshot just compiled).
type coldRequest struct {
	corpus, index, k int
	hit              bool
	body             []byte
}

// passRequests builds the request bodies of pass p over its corpus.
func passRequests(cs [][]dataset, p int) ([]coldRequest, error) {
	c := p % len(cs)
	var reqs []coldRequest
	for i, ds := range cs[c] {
		for _, k := range []int{ds.k, ds.k + 2} {
			body, err := json.Marshal(map[string]interface{}{"data": ds.text, "options": map[string]int{"k": k}})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, coldRequest{c, i, k, k != ds.k, body})
		}
	}
	return reqs, nil
}

type coldSetup struct {
	corpora [][]dataset
	passes  [corpora][]coldRequest
	srv     *httpapi.Server
	c       inproc
}

func setupExtractCold(seed int64) (*coldSetup, error) {
	cs, err := buildCorpora(seed)
	if err != nil {
		return nil, err
	}
	s := &coldSetup{corpora: cs}
	for p := range s.passes {
		if s.passes[p], err = passRequests(cs, p); err != nil {
			return nil, err
		}
	}
	if s.srv, err = httpapi.NewServer(httpapi.Config{}); err != nil {
		return nil, err
	}
	s.c = inproc{s.srv.Handler()}
	// Warm-up: one pass over the last corpus, so the timed passes start
	// with a full cache that holds none of corpus 0.
	for _, r := range s.passes[corpora-1] {
		if code, body := s.c.do("POST", "/v1/extract", r.body); !ok2xx(code) {
			return nil, fmt.Errorf("warm-up extract: %d %s", code, body)
		}
	}
	return s, nil
}

func runExtractCold(cfg runConfig) (*outcome, error) {
	s, setupS, err := setUp(func(int) (*coldSetup, error) { return setupExtractCold(cfg.seed) },
		func(s *coldSetup) { s.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()

	// Responses are reduced to what the checks and counters need right
	// after each pass, outside its timing, so that the benchmark's own
	// memory does not grow with the number of passes.
	type reply struct {
		req    coldRequest
		ok     bool // 2xx and well-formed
		schema [sha256.Size]byte
		defect int
	}
	var replies []reply
	var parsed []extractReply
	var passMS, hitMS []float64
	m0, err := parseMetrics(s.c.do("GET", "/v1/metrics", nil))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	bodies := make([][]byte, len(s.passes[0]))
	codes := make([]int, len(bodies))
	n, el, err := measureLoop(cfg.seconds, func() bool {
		return enough(len(passMS), 75)
	}, func(p int) error {
		var hit time.Duration
		reqs := s.passes[p%corpora]
		start := time.Now()
		for j, r := range reqs {
			t := time.Now()
			codes[j], bodies[j] = s.c.do("POST", "/v1/extract", r.body)
			if r.hit {
				hit += time.Since(t)
			}
		}
		passMS = append(passMS, ms(time.Since(start)))
		hitMS = append(hitMS, ms(hit))
		for j, r := range reqs {
			var got extractReply
			ok := ok2xx(codes[j]) && json.Unmarshal(bodies[j], &got) == nil
			replies = append(replies, reply{r, ok, sha256.Sum256([]byte(got.Schema)), got.Defect})
			if ok {
				got.Schema = ""
				parsed = append(parsed, got)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	cpuMS := ms(cpuTime()-cpu0) / float64(n)
	rss := maxRSSMB()
	m1, err := parseMetrics(s.c.do("GET", "/v1/metrics", nil))
	if err != nil {
		return nil, err
	}

	// Checks, outside the timed region: every response against
	// schemex.Extract on schemex.ReadGraph of the same request text.
	out := &outcome{attempted: n, layers: zeroLayers()}
	type refAnswer struct {
		schema [sha256.Size]byte
		defect int
	}
	refs := map[[3]int]refAnswer{}
	failedPass := make([]bool, n)
	perPass := len(s.passes[0])
	for i, r := range replies {
		key := [3]int{r.req.corpus, r.req.index, r.req.k}
		ref, ok := refs[key]
		if !ok {
			g, err := schemex.ReadGraph(strings.NewReader(s.corpora[key[0]][key[1]].text))
			if err != nil {
				return nil, err
			}
			res, err := schemex.Extract(g, schemex.Options{K: key[2]})
			if err != nil {
				return nil, err
			}
			ref = refAnswer{sha256.Sum256([]byte(res.Schema())), res.Defect()}
			refs[key] = ref
		}
		if !r.ok || r.schema != ref.schema || r.defect != ref.defect {
			failedPass[i/perPass] = true
		}
	}
	for _, f := range failedPass {
		out.failed += b2i(f)
	}

	out.e2e = map[string]float64{"setup_s": setupS, "ops_per_s": float64(n) / el.Seconds(), "peak_rss_mb": rss, "cpu_ms_per_op": cpuMS}
	if err := putTails(out.e2e, map[string][]float64{"latency_ms": passMS, "extract_ms": hitMS}); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("# extract-cold: %d passes of %d requests in %.1fs; %d distinct references", n, perPass, el.Seconds(), len(refs)))
	if !cfg.trace {
		return out, nil
	}

	L := out.layers
	extractCounters(parsed, L)
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	L["httpapi.cache_hit_frac"] = hits / (hits + misses)
	L["runtime.alloc_mb_per_op"] = rt0.allocMBPerOp(rt1, n)
	L["runtime.gc_cpu_frac"] = rt0.gcCPUFrac(rt1)

	// Traced replay of passes through the library calls
	// /v1/extract makes: parse and compile on the miss, then both extracts
	// on the one prepared snapshot.
	pass := func(tr *tracer, p int) (float64, error) {
		ctx := context.Background()
		start := time.Now()
		tr.beginOp("pass")
		defer tr.end()
		var prep *schemex.Prepared
		for _, r := range s.passes[p%corpora] {
			if !r.hit {
				tr.begin("graph.parse")
				g, err := schemex.ReadGraph(strings.NewReader(s.corpora[r.corpus][r.index].text))
				tr.end()
				if err != nil {
					return 0, err
				}
				tr.begin("compile.compile")
				prep, err = schemex.PrepareOptions(ctx, g, schemex.Options{})
				tr.end()
				if err != nil {
					return 0, err
				}
			}
			if err := tracedExtract(ctx, tr, prep, r.k); err != nil {
				return 0, err
			}
		}
		return ms(time.Since(start)), nil
	}
	// The replay continues the untraced run's pass rotation, so the HTTP
	// passes interleaved with it still miss the cache on their first
	// request.
	httpPass := func(p int) (float64, error) {
		start := time.Now()
		for _, r := range s.passes[p%corpora] {
			if code, body := s.c.do("POST", "/v1/extract", r.body); !ok2xx(code) {
				return 0, fmt.Errorf("extract: %d %s", code, body)
			}
		}
		return ms(time.Since(start)), nil
	}
	return out, finishReplay(out, func() (replayer, error) { return pass, nil }, n, replayOps, passMS, httpPass)
}

// tracedExtract is the extract call every handler makes, with the stage
// split the library reports.
func tracedExtract(ctx context.Context, tr *tracer, prep *schemex.Prepared, k int) error {
	tr.begin("core.extract")
	res, err := schemex.ExtractPreparedContext(ctx, prep, schemex.Options{K: k, Limits: httpapi.ExtractLimits})
	if err == nil {
		tr.stages(res.Timing())
	}
	tr.end()
	return err
}
