package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/serial"
)

// TestMain doubles the test binary as the routed daemon: with
// ROUTED_CRASH_CHILD set the process runs main() on its own arguments,
// which is what lets the crash drills below SIGKILL a real daemon process
// (in-process engines cannot be kill -9'd).
func TestMain(m *testing.M) {
	if os.Getenv("ROUTED_CRASH_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// routedProc is one daemon child process under drill.
type routedProc struct {
	cmd *exec.Cmd
	url string
}

// startRouted launches the test binary as a routed daemon on a random port
// and waits for its serving line.
func startRouted(t *testing.T, args ...string) *routedProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "ROUTED_CRASH_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "routed: serving on "); ok {
				urlc <- rest
			}
		}
	}()
	select {
	case url := <-urlc:
		p := &routedProc{cmd: cmd, url: url}
		t.Cleanup(func() {
			if p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		})
		return p
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon never reported its serving address")
		return nil
	}
}

// kill9 delivers SIGKILL — no drain, no shutdown snapshot, no deferred
// checkpoint. Whatever the WAL holds is all that survives.
func (p *routedProc) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// sigterm drains the daemon gracefully.
func (p *routedProc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon ignored SIGTERM")
	}
}

func (p *routedProc) getJSON(t *testing.T, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(p.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON from %s: %q: %v", path, raw, err)
	}
	return out
}

func (p *routedProc) postJSON(t *testing.T, path, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(p.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON from %s: %q: %v", path, raw, err)
	}
	return out
}

func (p *routedProc) patchJSON(t *testing.T, path, body string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, p.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("PATCH %s: status %d: %s", path, resp.StatusCode, raw)
	}
}

// eventTypes drains /debug/events into the set of event type strings.
func (p *routedProc) eventTypes(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	evs, ok := p.getJSON(t, "/debug/events")["events"].([]any)
	if !ok {
		return out
	}
	for _, ev := range evs {
		if typ, ok := ev.(map[string]any)["type"].(string); ok {
			out[typ] = true
		}
	}
	return out
}

func writeTopoFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
		t.Fatal(err)
	}
}

// TestRoutedKill9Recovery is the end-to-end crash drill: drive demand,
// patches, and link events into a live routed process, SIGKILL it with no
// shutdown path at all, restart on the same state directory, and require
// the replayed daemon to serve the exact pre-crash routing state — same
// path-system hash, same link version, same demand — with the replay
// visible on /debug/events and /metrics.
func TestRoutedKill9Recovery(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	snap := filepath.Join(dir, "sys.snap")
	writeTopoFile(t, topo)
	args := []string{"-topo", topo, "-snapshot", snap, "-router", "valiant",
		"-s", "3", "-seed", "7"}

	p1 := startRouted(t, args...)

	// Pre-crash traffic: a base matrix, a patch, a link failure, a brownout,
	// then one final solved epoch so the serving state is settled.
	p1.postJSON(t, "/v1/demand?wait=1", `{"entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1}]}`)
	p1.patchJSON(t, "/v1/demand", `{"set":[{"u":2,"v":5,"amount":1.5}]}`)
	p1.postJSON(t, "/v1/links", `{"fail":[3]}`)
	p1.postJSON(t, "/v1/links", `{"edge":8,"capacity":0.5}`)
	p1.postJSON(t, "/v1/demand?wait=1", `{"entries":[{"u":0,"v":7,"amount":2},{"u":1,"v":6,"amount":1.5}]}`)

	metrics := scrape(t, p1.url+"/metrics")
	wantHash := pathSystemHash(t, metrics)
	wantVersion := metrics["sparseroute_engine_link_version"]
	if n := metrics["sparseroute_engine_wal_records"]; n < 5 {
		t.Fatalf("wal_records=%v, want >= 5 (one per accepted mutation)", n)
	}
	wantRouting := p1.getJSON(t, "/v1/routing")

	// No snapshot was ever written: POST /v1/snapshot never ran and SIGKILL
	// skips the shutdown snapshot. Recovery rides on the WAL alone.
	p1.kill9(t)
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("snapshot unexpectedly present before restart: %v", err)
	}

	p2 := startRouted(t, args...)
	metrics2 := scrape(t, p2.url+"/metrics")
	if got := pathSystemHash(t, metrics2); got != wantHash {
		t.Fatalf("recovered hash %s != pre-crash %s", got, wantHash)
	}
	if got := metrics2["sparseroute_engine_link_version"]; got != wantVersion {
		t.Fatalf("recovered link_version %v != pre-crash %v", got, wantVersion)
	}
	if got := metrics2["sparseroute_engine_wal_replays"]; got != 1 {
		t.Fatalf("wal_replays=%v, want 1", got)
	}
	if !p2.eventTypes(t)["wal_replay"] {
		t.Fatal("no wal_replay event on /debug/events")
	}

	// The recovered routing serves the same demand over the same paths.
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := p2.getJSON(t, "/v1/routing")
		if fmt.Sprint(got["routing"]) == fmt.Sprint(wantRouting["routing"]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered routing never converged:\nwant %v\ngot  %v",
				wantRouting["routing"], got["routing"])
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Health reflects the replayed link state: failed edge 3, degraded 8.
	h := p2.getJSON(t, "/healthz")
	if h["status"] != "degraded" {
		t.Fatalf("recovered healthz: %v", h)
	}
	fe := h["failed_edges"].([]any)
	if len(fe) != 1 || fe[0].(float64) != 3 {
		t.Fatalf("recovered failed_edges %v, want [3]", fe)
	}

	// The recovered daemon keeps accepting mutations, and a graceful stop
	// checkpoints: snapshot written, WAL truncated to the re-seeded demand.
	p2.postJSON(t, "/v1/demand?wait=1", `{"entries":[{"u":3,"v":4,"amount":1}]}`)
	p2.sigterm(t)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("graceful stop wrote no snapshot: %v", err)
	}
}

// TestRoutedTornWALTail: garbage appended to the log (a frame torn by power
// loss) must not stop the daemon from starting — it truncates the tail,
// journals wal_truncated, and serves the last durable state.
func TestRoutedTornWALTail(t *testing.T) {
	dir := t.TempDir()
	topo := filepath.Join(dir, "topo.json")
	snap := filepath.Join(dir, "sys.snap")
	writeTopoFile(t, topo)
	args := []string{"-topo", topo, "-snapshot", snap, "-router", "valiant",
		"-s", "3", "-seed", "7"}

	p1 := startRouted(t, args...)
	p1.postJSON(t, "/v1/demand?wait=1", `{"entries":[{"u":0,"v":7,"amount":2}]}`)
	p1.kill9(t)

	// Tear the tail: a header promising 256 bytes, then far fewer.
	f, err := os.OpenFile(snap+".wal", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.LittleEndian.PutUint32(torn[0:4], 256)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2 := startRouted(t, args...)
	types := p2.eventTypes(t)
	if !types["wal_truncated"] {
		t.Fatal("no wal_truncated event after torn-tail recovery")
	}
	if got := scrape(t, p2.url+"/metrics")["sparseroute_engine_wal_truncations"]; got != 1 {
		t.Fatalf("wal_truncations=%v, want 1", got)
	}
	// The last durable demand still serves.
	deadline := time.Now().Add(15 * time.Second)
	for {
		routing := p2.getJSON(t, "/v1/routing")
		if r, ok := routing["routing"].(map[string]any); ok {
			if pairs, ok := r["pairs"].([]any); ok && len(pairs) == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered routing never served: %v", routing)
		}
		time.Sleep(50 * time.Millisecond)
	}
	p2.sigterm(t)
}
