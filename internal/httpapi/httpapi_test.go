package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"schemex"
)

const sampleText = `link gates microsoft is-manager-of
link microsoft gates is-managed-by
link jobs apple is-manager-of
link apple jobs is-managed-by
link gates gn name
link jobs jn name
link microsoft mn name
link apple an name
atomic gn string Gates
atomic jn string Jobs
atomic mn string Microsoft
atomic an string Apple
`

func post(t *testing.T, srv *httptest.Server, path, body string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestExtractEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	body := mustJSON(t, map[string]interface{}{
		"data":    sampleText,
		"options": map[string]interface{}{"k": 2},
	})
	status, out := post(t, srv, "/v1/extract", body)
	if status != 200 {
		t.Fatalf("status %d: %v", status, out)
	}
	if out["numTypes"].(float64) != 2 || out["perfectTypes"].(float64) != 2 {
		t.Fatalf("response: %v", out)
	}
	if out["defect"].(float64) != 0 {
		t.Fatalf("defect = %v", out["defect"])
	}
	schema := out["schema"].(string)
	if !strings.Contains(schema, "->name[0]") {
		t.Fatalf("schema: %q", schema)
	}
	types := out["types"].([]interface{})
	if len(types) != 2 {
		t.Fatalf("types: %v", types)
	}
}

func TestExtractJSONFormat(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	body := mustJSON(t, map[string]interface{}{
		"data":    `{"name": "Ada", "age": 36}`,
		"format":  "json",
		"options": map[string]interface{}{"k": 1, "useSorts": true},
	})
	status, out := post(t, srv, "/v1/extract", body)
	if status != 200 {
		t.Fatalf("status %d: %v", status, out)
	}
	if !strings.Contains(out["schema"].(string), "[0:int]") {
		t.Fatalf("schema: %v", out["schema"])
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	status, out := post(t, srv, "/v1/sweep", mustJSON(t, map[string]interface{}{"data": sampleText}))
	if status != 200 {
		t.Fatalf("status %d: %v", status, out)
	}
	if out["points"] == nil || out["suggested"].(float64) < 1 {
		t.Fatalf("response: %v", out)
	}
}

func TestCheckEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	schema := `
type person = ->is-manager-of[firm] & ->name[0] & <-is-managed-by[firm]
type firm = ->is-managed-by[person] & ->name[0] & <-is-manager-of[person]
`
	status, out := post(t, srv, "/v1/check", mustJSON(t, map[string]interface{}{
		"data": sampleText, "schema": schema,
	}))
	if status != 200 {
		t.Fatalf("status %d: %v", status, out)
	}
	if out["conforms"] != true {
		t.Fatalf("response: %v", out)
	}
	types := out["types"].(map[string]interface{})
	if types["person"].(float64) != 2 || types["firm"].(float64) != 2 {
		t.Fatalf("types: %v", types)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	for _, guided := range []bool{false, true} {
		status, out := post(t, srv, "/v1/query", mustJSON(t, map[string]interface{}{
			"data": sampleText, "path": "is-manager-of.name", "guided": guided,
		}))
		if status != 200 {
			t.Fatalf("guided=%v status %d: %v", guided, status, out)
		}
		if out["count"].(float64) != 2 {
			t.Fatalf("guided=%v response: %v", guided, out)
		}
	}
}

// TestGuidedQueryWallClock: a guided query runs an extraction, so it obeys
// ExtractLimits like /v1/extract and /v1/sweep do.
func TestGuidedQueryWallClock(t *testing.T) {
	saved := ExtractLimits
	t.Cleanup(func() { ExtractLimits = saved })
	ExtractLimits = schemex.Limits{MaxWallTime: time.Nanosecond}

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	status, out := post(t, srv, "/v1/query", mustJSON(t, map[string]interface{}{
		"data": sampleText, "path": "is-manager-of.name", "guided": true,
	}))
	if status != http.StatusServiceUnavailable || out["error"] == nil {
		t.Fatalf("guided query past its wall-clock cap: status %d, want 503 (%v)", status, out)
	}
}

// TestCheckWallClock: a check evaluates a client-supplied schema's
// fixpoint, so it obeys ExtractLimits' wall-clock cap.
func TestCheckWallClock(t *testing.T) {
	saved := ExtractLimits
	t.Cleanup(func() { ExtractLimits = saved })
	ExtractLimits = schemex.Limits{MaxWallTime: time.Nanosecond}

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	status, out := post(t, srv, "/v1/check", mustJSON(t, map[string]interface{}{
		"data": sampleText, "schema": "type person = ->name[0]",
	}))
	if status != http.StatusServiceUnavailable || out["error"] == nil {
		t.Fatalf("check past its wall-clock cap: status %d, want 503 (%v)", status, out)
	}
}

func TestErrors(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	// GET on a POST endpoint.
	resp, err := http.Get(srv.URL + "/v1/extract")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET extract status %d", resp.StatusCode)
	}

	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/extract", `{"data": "", "format": "text"}`, 400},
		{"/v1/extract", `not json`, 400},
		{"/v1/extract", `{"data": "x", "unknownField": 1}`, 400},
		{"/v1/extract", mustJSON(t, map[string]interface{}{"data": sampleText, "format": "frob"}), 400},
		{"/v1/extract", mustJSON(t, map[string]interface{}{
			"data": sampleText, "options": map[string]interface{}{"delta": "nope"}}), 422},
		{"/v1/extract", mustJSON(t, map[string]interface{}{
			"data": sampleText, "options": map[string]interface{}{"maxDirtyTypesFrac": 1}}), 400},
		{"/v1/extract", mustJSON(t, map[string]interface{}{"data": "atomic a string x"}), 422},
		{"/v1/sweep", mustJSON(t, map[string]interface{}{"data": "atomic a string x"}), 422},
		{"/v1/check", mustJSON(t, map[string]interface{}{"data": sampleText, "schema": "type x = ->a[nowhere]"}), 400},
		{"/v1/query", mustJSON(t, map[string]interface{}{"data": sampleText, "path": "a..b"}), 400},
	}
	for _, c := range cases {
		status, out := post(t, srv, c.path, c.body)
		if status != c.status {
			t.Errorf("POST %s %q: status %d, want %d (%v)", c.path, c.body, status, c.status, out)
		}
		if out["error"] == nil {
			t.Errorf("POST %s: missing error field", c.path)
		}
	}
}

func TestWriteJSONEncodeError(t *testing.T) {
	// math.NaN cannot be marshaled; the handler must answer with a clean
	// 500 error envelope, not a truncated 200 body.
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]interface{}{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("error envelope is not valid JSON: %v (%q)", err, rec.Body.String())
	}
	if out["error"] == "" {
		t.Fatalf("missing error field: %q", rec.Body.String())
	}
}

func TestWriteJSONSuccess(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]int{"n": 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["n"] != 1 {
		t.Fatalf("body %q (err %v)", rec.Body.String(), err)
	}
	if !strings.HasSuffix(rec.Body.String(), "\n") {
		t.Fatal("response body should end with a newline")
	}
}

func TestPrepCacheLRU(t *testing.T) {
	var c prepCache
	key := func(i int) [32]byte {
		var k [32]byte
		k[0] = byte(i)
		return k
	}
	// Fill beyond capacity; the oldest keys must be evicted. The zero-value
	// cache must behave as if sized DefaultCacheEntries.
	for i := 0; i < DefaultCacheEntries+3; i++ {
		c.put(key(i), nil)
	}
	if c.len() != DefaultCacheEntries {
		t.Fatalf("cache holds %d entries, want %d", c.len(), DefaultCacheEntries)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.get(key(i)); ok {
			t.Fatalf("key %d should have been evicted", i)
		}
	}
	for i := 3; i < DefaultCacheEntries+3; i++ {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("key %d should be cached", i)
		}
	}
	// A get refreshes recency: key 3 must now survive one more insertion
	// while key 4 (least recently used) is evicted.
	c.get(key(3))
	c.put(key(100), nil)
	if _, ok := c.get(key(3)); !ok {
		t.Fatal("recently used key 3 was evicted")
	}
	if _, ok := c.get(key(4)); ok {
		t.Fatal("least recently used key 4 should have been evicted")
	}
}

func TestSnapshotCacheServesRepeatTraffic(t *testing.T) {
	a := newAPI(Config{})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()
	data := sampleText + "link gates pets has-pet\nlink pets gates owned-by\n"
	body := mustJSON(t, map[string]interface{}{
		"data":    data,
		"options": map[string]interface{}{"k": 2},
	})
	status, first := post(t, srv, "/v1/extract", body)
	if status != 200 {
		t.Fatalf("cold status %d: %v", status, first)
	}
	before := a.snapshots.len()
	status, second := post(t, srv, "/v1/extract", body)
	if status != 200 {
		t.Fatalf("warm status %d: %v", status, second)
	}
	if a.snapshots.len() != before {
		t.Fatalf("repeat request grew the cache: %d -> %d", before, a.snapshots.len())
	}
	if first["schema"] != second["schema"] {
		t.Fatalf("cached snapshot changed the result:\n%v\n%v", first["schema"], second["schema"])
	}
	// Same data with different options reuses the snapshot but recomputes
	// the typing.
	status, third := post(t, srv, "/v1/extract", mustJSON(t, map[string]interface{}{
		"data":    data,
		"options": map[string]interface{}{"k": 1},
	}))
	if status != 200 {
		t.Fatalf("k=1 status %d: %v", status, third)
	}
	if third["numTypes"].(float64) != 1 {
		t.Fatalf("k=1 over a warm snapshot: %v", third["numTypes"])
	}
	// Sweep and query over the same dataset also ride the cache.
	status, _ = post(t, srv, "/v1/sweep", mustJSON(t, map[string]interface{}{"data": data}))
	if status != 200 {
		t.Fatalf("sweep status %d", status)
	}
	status, q := post(t, srv, "/v1/query", mustJSON(t, map[string]interface{}{
		"data": data, "path": "is-manager-of.name", "guided": true,
	}))
	if status != 200 || q["count"].(float64) != 2 {
		t.Fatalf("query status %d: %v", status, q)
	}
	if a.snapshots.len() != before {
		t.Fatalf("same-data sweep/query grew the cache: %d -> %d", before, a.snapshots.len())
	}
}
