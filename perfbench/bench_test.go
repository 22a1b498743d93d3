package main

import (
	"bytes"
	"encoding/json"
	"expvar"
	"os"
	"reflect"
	"strings"
	"testing"

	"schemex"
	"schemex/internal/dbg"
	"schemex/internal/graph"
)

func dbgDB(t *testing.T, seed int64) *graph.DB {
	t.Helper()
	db, _ := dbg.Generate(dbg.Options{Seed: seed, Scale: 1})
	var b bytes.Buffer
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// The edit stream keeps the graph's size within maxOutstanding edges of the
// start, never creates an object, and every delta it emits applies cleanly
// to the state it is sent to.
func TestEditStreamStationaryAndValid(t *testing.T) {
	db := dbgDB(t, 7)
	objects, links := db.NumObjects(), db.NumLinks()
	stream := newEditStream(db, 11)
	for i := 0; i < 3000; i++ {
		text := stream.next()
		d, err := graph.ParseDeltaString(text)
		if err != nil {
			t.Fatalf("delta %d %q: %v", i, text, err)
		}
		if db, _, err = db.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d %q does not apply: %v", i, text, err)
		}
		if db.NumObjects() != objects {
			t.Fatalf("delta %d created objects: %d, want %d", i, db.NumObjects(), objects)
		}
		if n := db.NumLinks(); n > links || n < links-maxOutstanding {
			t.Fatalf("delta %d: %d links, want within [%d, %d]", i, n, links-maxOutstanding, links)
		}
	}
}

// Every first extract-cold request for a dataset misses the snapshot cache
// and every second one hits it, including when the corpus rotation comes
// back to corpus 0.
func TestFirstExtractMissesCache(t *testing.T) {
	s, err := setupExtractCold(3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Close()
	hits := expvar.Get("schemex_snapshot_cache_hits").(*expvar.Int)
	misses := expvar.Get("schemex_snapshot_cache_misses").(*expvar.Int)
	for p := 0; p <= corpora; p++ {
		for _, r := range s.passes[p%corpora] {
			h0, m0 := hits.Value(), misses.Value()
			if code, body := s.c.do("POST", "/v1/extract", r.body); code != 200 {
				t.Fatalf("pass %d: %d %s", p, code, body)
			}
			if r.hit && hits.Value() != h0+1 {
				t.Fatalf("pass %d dataset %d k=%d: second request missed the cache", p, r.index, r.k)
			}
			if !r.hit && misses.Value() != m0+1 {
				t.Fatalf("pass %d dataset %d k=%d: first request hit the cache", p, r.index, r.k)
			}
		}
	}
}

func TestPercentileRefusesShortTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{19, 50, false}, {20, 50, true}, {39, 75, false}, {40, 75, true}, {99, 90, false}, {100, 90, true}} {
		v, err := percentile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.q, c.n, err, c.ok)
		}
		if err == nil && v != float64(rank(c.n, c.q)+1) {
			t.Errorf("p%g of %d samples = %g", c.q, c.n, v)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

// The same seed gives the same inputs, op sequences and reference answers;
// another seed gives other inputs.
func TestSameSeedSameOps(t *testing.T) {
	a, err := buildCorpora(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpora(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCorpora(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different corpora")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds built the same corpora")
	}
	if pa, _ := passRequests(a, 1); !reflect.DeepEqual(pa, mustPass(t, b, 1)) {
		t.Fatal("same seed built different request bodies")
	}
	ref := func(ds dataset) string {
		g, err := schemex.ReadGraph(strings.NewReader(ds.text))
		if err != nil {
			t.Fatal(err)
		}
		res, err := schemex.Extract(g, schemex.Options{K: ds.k})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schema()
	}
	if ref(a[2][8]) != ref(b[2][8]) {
		t.Fatal("same seed gave different references")
	}

	steps := func(seed int64) []editStep { return editSteps(newEditStream(dbgDB(t, 1), seed), 200) }
	if !reflect.DeepEqual(steps(9), steps(9)) {
		t.Fatal("same seed built different edit steps")
	}
	if reflect.DeepEqual(steps(9), steps(10)) {
		t.Fatal("different seeds built the same edit steps")
	}
}

func mustPass(t *testing.T, cs [][]dataset, p int) []coldRequest {
	t.Helper()
	r, err := passRequests(cs, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{op: -1}
	add := func(name string, parent int, dur int64) int {
		tr.spans = append(tr.spans, span{Op: tr.op, Name: name, Parent: parent, Dur: dur})
		return len(tr.spans) - 1
	}
	for op := 0; op < 2; op++ {
		tr.op = op
		root := add("bench.pass", -1, 100e6)
		ex := add("core.extract", root, 60e6)
		add("perfect.stage1", ex, 20e6)
		add("cluster.stage2", ex, 30e6)
		add("graph.parse", root, 5e6)
	}
	if got := tr.opSelf("core"); !reflect.DeepEqual(got, []float64{10, 10}) {
		t.Errorf("core self = %v, want [10 10]", got)
	}
	if got := tr.opSelf("bench"); !reflect.DeepEqual(got, []float64{35, 35}) {
		t.Errorf("bench self = %v, want [35 35]", got)
	}
	if got := tr.opSums("cluster.stage2"); !reflect.DeepEqual(got, []float64{30, 30}) {
		t.Errorf("stage2 sums = %v", got)
	}
}

// BENCHMARK.json names only workloads this program runs, and exactly the
// metrics it prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, want %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer %v, want %v", bj.PerLayer, perLayer)
	}
}
