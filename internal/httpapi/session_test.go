package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func createSession(t *testing.T, srv *httptest.Server, data string) string {
	t.Helper()
	status, out := post(t, srv, "/v1/session", mustJSON(t, map[string]interface{}{"data": data}))
	if status != 200 {
		t.Fatalf("create status %d: %v", status, out)
	}
	id, _ := out["id"].(string)
	if id == "" || out["version"].(float64) != 0 {
		t.Fatalf("create response: %v", out)
	}
	return id
}

func TestSessionLifecycle(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	id := createSession(t, srv, sampleText)

	// Baseline extraction over the fresh session.
	status, out := post(t, srv, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 2},
	}))
	if status != 200 {
		t.Fatalf("extract status %d: %v", status, out)
	}
	if out["numTypes"].(float64) != 2 {
		t.Fatalf("baseline: %v", out)
	}

	// A small same-label delta must take the incremental path and bump the
	// version.
	delta := "link torvalds linux is-manager-of\nlink linux torvalds is-managed-by\n" +
		"link torvalds tn name\nlink linux ln name\n" +
		"atomic tn string Torvalds\natomic ln string Linux\n"
	status, out = post(t, srv, "/v1/session/"+id+"/mutate", mustJSON(t, map[string]interface{}{"delta": delta}))
	if status != 200 {
		t.Fatalf("mutate status %d: %v", status, out)
	}
	if out["version"].(float64) != 1 || out["incremental"] != true {
		t.Fatalf("mutate response: %v", out)
	}
	if out["newObjects"].(float64) != 4 {
		t.Fatalf("newObjects: %v", out)
	}

	// The mutated data still fits the two-type schema, now with one more
	// person/firm pair.
	status, out = post(t, srv, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 2},
	}))
	if status != 200 || out["numTypes"].(float64) != 2 || out["defect"].(float64) != 0 {
		t.Fatalf("post-mutate extract (%d): %v", status, out)
	}

	// GET reflects the mutated state.
	resp, err := http.Get(srv.URL + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("get status %d", resp.StatusCode)
	}

	// A delta with a brand-new label still succeeds (full-recompile path).
	status, out = post(t, srv, "/v1/session/"+id+"/mutate", mustJSON(t, map[string]interface{}{
		"delta": "link gates jobs rival\n",
	}))
	if status != 200 || out["incremental"] != false || out["version"].(float64) != 2 {
		t.Fatalf("new-label mutate (%d): %v", status, out)
	}

	// DELETE drops it; further use 404s.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/session/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	status, _ = post(t, srv, "/v1/session/"+id+"/extract", `{}`)
	if status != 404 {
		t.Fatalf("extract after delete: status %d, want 404", status)
	}
}

func TestSessionErrors(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	id := createSession(t, srv, sampleText)

	// Unknown session id.
	status, out := post(t, srv, "/v1/session/deadbeef/mutate", mustJSON(t, map[string]interface{}{"delta": "remove gates\n"}))
	if status != 404 || out["error"] == nil {
		t.Fatalf("unknown id: status %d: %v", status, out)
	}
	// Malformed delta text.
	status, _ = post(t, srv, "/v1/session/"+id+"/mutate", mustJSON(t, map[string]interface{}{"delta": "frobnicate x\n"}))
	if status != 400 {
		t.Fatalf("bad delta: status %d", status)
	}
	// Semantically invalid delta: the session must survive untouched.
	status, _ = post(t, srv, "/v1/session/"+id+"/mutate", mustJSON(t, map[string]interface{}{"delta": "unlink gates apple nope\n"}))
	if status != 422 {
		t.Fatalf("invalid delta: status %d", status)
	}
	status, out = post(t, srv, "/v1/session/"+id+"/extract", mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 2},
	}))
	if status != 200 || out["version"] != nil && out["version"].(float64) != 0 {
		t.Fatalf("session damaged by rejected delta (%d): %v", status, out)
	}
	// Bad data on create.
	status, _ = post(t, srv, "/v1/session", `{"data": ""}`)
	if status != 400 {
		t.Fatalf("empty data: status %d", status)
	}
}

// sessionRecordsText builds three record families so a one-record delta
// dirties exactly one of three Stage 1 classes.
func sessionRecordsText() string {
	var b strings.Builder
	rec := func(name string, attrs ...string) {
		for _, a := range attrs {
			at := name + "_" + a
			fmt.Fprintf(&b, "link %s %s %s\natomic %s string v\n", name, at, a, at)
		}
	}
	for i := 0; i < 3; i++ {
		rec(fmt.Sprintf("emp%d", i), "name", "salary", "dept")
		rec(fmt.Sprintf("book%d", i), "title", "isbn")
		rec(fmt.Sprintf("city%d", i), "zip")
	}
	return b.String()
}

func TestSessionIncrementalBlock(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	id := createSession(t, srv, sessionRecordsText())
	body := mustJSON(t, map[string]interface{}{
		"options": map[string]interface{}{"k": 3},
	})

	status, out := post(t, srv, "/v1/session/"+id+"/extract", body)
	if status != 200 {
		t.Fatalf("extract status %d: %v", status, out)
	}
	inc, ok := out["incremental"].(map[string]interface{})
	if !ok {
		t.Fatalf("response has no incremental block: %v", out)
	}
	if inc["stage2Warm"] == true || inc["stage3Warm"] == true || inc["fastPath"] == true {
		t.Fatalf("cold extraction reported warm flags: %v", inc)
	}
	if inc["totalMs"].(float64) <= 0 {
		t.Fatalf("cold extraction reported no wall clock: %v", inc)
	}

	// A repeat with identical options replays the retained result.
	status, out = post(t, srv, "/v1/session/"+id+"/extract", body)
	inc, _ = out["incremental"].(map[string]interface{})
	if status != 200 || inc == nil || inc["fastPath"] != true {
		t.Fatalf("repeat extract (%d): %v", status, out)
	}

	// One new record dirties one class; the next extraction warm-starts
	// Stages 2 and 3 and reports the dirty counts.
	delta := "link emp9 e9n name\natomic e9n string v\n" +
		"link emp9 e9s salary\natomic e9s string v\n" +
		"link emp9 e9d dept\natomic e9d string v\n"
	status, out = post(t, srv, "/v1/session/"+id+"/mutate", mustJSON(t, map[string]interface{}{"delta": delta}))
	if status != 200 || out["incremental"] != true {
		t.Fatalf("mutate (%d): %v", status, out)
	}
	status, out = post(t, srv, "/v1/session/"+id+"/extract", body)
	if status != 200 {
		t.Fatalf("post-mutate extract status %d: %v", status, out)
	}
	inc, _ = out["incremental"].(map[string]interface{})
	if inc == nil || inc["stage2Warm"] != true || inc["stage3Warm"] != true {
		t.Fatalf("post-mutate extraction did not warm-start: %v", inc)
	}
	if inc["dirtyTypes"].(float64) != 1 || inc["dirtyObjects"].(float64) < 1 {
		t.Fatalf("dirty counts: %v", inc)
	}
}

func TestSessionStoreLRU(t *testing.T) {
	a := newAPI(Config{SessionEntries: 2})
	srv := httptest.NewServer(a.routes())
	defer srv.Close()
	ids := make([]string, 3)
	for i := range ids {
		data := sampleText + fmt.Sprintf("link gates extra%d tag%d\n", i, i)
		ids[i] = createSession(t, srv, data)
	}
	if a.sessions.len() != 2 {
		t.Fatalf("store holds %d sessions, want 2", a.sessions.len())
	}
	// The oldest session fell off; the two newest still answer.
	status, _ := post(t, srv, "/v1/session/"+ids[0]+"/extract", `{}`)
	if status != 404 {
		t.Fatalf("evicted session answered with %d", status)
	}
	for _, id := range ids[1:] {
		if status, out := post(t, srv, "/v1/session/"+id+"/extract", `{}`); status != 200 {
			t.Fatalf("live session %s: status %d: %v", id, status, out)
		}
	}
}

func TestNewHandlerRejectsNegativeCapacity(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "non-positive") {
			t.Fatalf("recover = %v, want capacity panic", r)
		}
	}()
	NewHandler(Config{CacheEntries: -1})
}
