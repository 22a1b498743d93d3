package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"schemex"
)

// crashServerEnv, when set, turns the test binary into a durable schemex
// server over the named DataDir: TestMain intercepts it before any test
// runs, so TestCrashRecovery can re-exec os.Args[0] as a real child process
// and SIGKILL it mid-burst — in-process servers cannot be killed abruptly
// enough to exercise real crash semantics.
const crashServerEnv = "SCHEMEX_CRASH_SERVER_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashServerEnv); dir != "" {
		runCrashServer(dir)
		return
	}
	os.Exit(m.Run())
}

// runCrashServer serves the durable API on an ephemeral port, printing the
// bound address on the first stdout line. It never exits on its own: the
// parent SIGKILLs it.
func runCrashServer(dir string) {
	srv, err := NewServer(Config{DataDir: dir, SpillEvery: 8})
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("ERROR: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	http.Serve(ln, srv.Handler())
}

// TestCrashRecovery is the end-to-end durability claim: a real server
// process SIGKILLed in the middle of a mutation burst loses nothing it
// acknowledged. The child runs with SpillEvery=8, so the kill also lands
// around snapshot spills — rotation must be crash-atomic too.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), crashServerEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { cmd.Process.Kill(); cmd.Wait() }()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("child produced no address line")
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "ADDR ") {
		t.Fatalf("child said %q", line)
	}
	base := "http://" + strings.TrimPrefix(line, "ADDR ")

	// Create the session over the wire.
	resp, err := http.Post(base+"/v1/session", "application/json",
		strings.NewReader(mustJSON(t, map[string]interface{}{"data": sampleText})))
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _ := created["id"].(string)
	if resp.StatusCode != 200 || id == "" {
		t.Fatalf("create: %d %v", resp.StatusCode, created)
	}

	// Burst deltas until the kill severs the connection. Every 200 response
	// fully received is an acknowledgment the recovered session must honor.
	kill := time.AfterFunc(75*time.Millisecond, func() { cmd.Process.Kill() })
	defer kill.Stop()
	acked := 0
	for i := 0; i < 5000; i++ {
		resp, err := http.Post(base+"/v1/session/"+id+"/mutate", "application/json",
			strings.NewReader(mustJSON(t, map[string]interface{}{"delta": nthDelta(i)})))
		if err != nil {
			break // the kill landed mid-request
		}
		st := resp.StatusCode
		resp.Body.Close()
		if st != 200 {
			t.Fatalf("mutate %d: status %d", i, st)
		}
		acked++
	}
	cmd.Process.Kill()
	cmd.Wait()
	if acked == 0 {
		t.Skip("child died before any delta was acknowledged; nothing to verify")
	}
	t.Logf("killed child after %d acknowledged deltas", acked)

	// Recover in-process over the same DataDir.
	s2, err := NewServer(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	sess, ok := s2.a.sessions.get(id)
	if !ok {
		t.Fatalf("session %s not recovered", id)
	}
	prep := sess.current()
	vrec := int(prep.Version())
	// Acknowledged-prefix rule: every acked delta survives; at most the one
	// unacknowledged in-flight delta may additionally be present.
	if vrec < acked || vrec > acked+1 {
		t.Fatalf("recovered version %d, acknowledged %d", vrec, acked)
	}

	// Bit-identical check: an in-process replica applying the same first
	// vrec deltas must extract exactly the same schema.
	g, err := schemex.ReadGraph(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	replica, err := schemex.PrepareOptions(context.Background(), g, schemex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < vrec; i++ {
		d, err := schemex.ParseDelta(strings.NewReader(nthDelta(i)))
		if err != nil {
			t.Fatal(err)
		}
		if replica, _, err = replica.ApplyContext(context.Background(), d); err != nil {
			t.Fatalf("replica delta %d: %v", i, err)
		}
	}
	want := extractText(t, replica)
	got := extractText(t, prep)
	if got != want {
		t.Fatalf("recovered schema differs from replica:\n%s\nvs\n%s", got, want)
	}
	// And the recovered graph holds exactly the same facts. Line order is
	// object-id order, and ids are renumbered by the snapshot round-trip,
	// so compare the canonical (sorted) serialization.
	if got, want := canonGraph(t, prep), canonGraph(t, replica); got != want {
		t.Fatalf("recovered graph differs from replica:\n%s\nvs\n%s", got, want)
	}
}

func canonGraph(t *testing.T, prep *schemex.Prepared) string {
	t.Helper()
	var buf bytes.Buffer
	if err := prep.Graph().Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func extractText(t *testing.T, prep *schemex.Prepared) string {
	t.Helper()
	res, err := schemex.ExtractPreparedContext(context.Background(), prep, schemex.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schema()
}
