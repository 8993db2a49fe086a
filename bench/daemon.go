package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// buildDir is where everything the harness creates lives: the routed binary
// and the per-run data directories. It is relative to the checkout root the
// harness is started from, and .gitignore names it.
const buildDir = ".bench_build"

// Fixed daemon configuration of every workload: the single-engine surface,
// one solver worker, the Räcke router at R=4. The sampling seed is part of
// the workload definition, not an input — -seed drives only the traffic.
//
// -trace-depth keeps every timed epoch's trace until the round reads them.
var daemonFlags = []string{"-router", "raecke", "-s", "4", "-seed", "7", "-workers", "1", "-trace-depth", "1024"}

// routedPkg is the daemon under test, by import path so the build works from
// any directory of the module.
const routedPkg = "sparseroute/cmd/routed"

// buildRouted compiles the daemon into dir and returns the binary's path. It
// is called once per harness run and is not part of any metric.
func buildRouted(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "routed"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, routedPkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", routedPkg, err, out)
	}
	return bin, nil
}

// running is the one daemon alive at any moment (rounds run one after the
// other), so the signal handler can kill it: a signal skips deferred calls.
var running atomic.Pointer[daemon]

// daemon is one routed child process on an ephemeral loopback port.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	waited chan struct{}
}

// daemonStartTimeout bounds spawn → serving line; a daemon that has not
// sampled its path system by then is a failed round, not a slow one.
const daemonStartTimeout = 60 * time.Second

// startDaemon spawns routed on the data directory dir (topo.json, sys.snap,
// sys.wal) and returns once /healthz answers ok, with the spawn → healthy
// time: router build plus the R-sample of every pair on a fresh directory,
// snapshot restore plus WAL replay on a used one.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-topo", filepath.Join(dir, "topo.json"),
		"-snapshot", filepath.Join(dir, "sys.snap"),
		"-wal", filepath.Join(dir, "sys.wal"),
	}, daemonFlags...)
	cmd := exec.Command(bin, args...)
	d := &daemon{cmd: cmd, stderr: new(bytes.Buffer), waited: make(chan struct{})}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	running.Store(d)
	urlc := make(chan string, 1)
	go func() {
		// The scanner drains stdout until the child exits, so Wait (which
		// closes the pipe) runs only after it.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "routed: serving on "); ok {
				select {
				case urlc <- rest:
				default:
				}
			}
		}
		cmd.Wait()
		close(d.waited)
	}()
	select {
	case d.url = <-urlc:
	case <-d.waited:
		return nil, 0, fmt.Errorf("routed exited before serving: %s", d.stderr.String())
	case <-time.After(daemonStartTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("routed not serving after %v", daemonStartTimeout)
	}
	// The listener is open before the serving line is printed; poll anyway so
	// the sample ends at the first answered /healthz, as an operator's
	// readiness probe would see it.
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("routed /healthz never ok: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	took := time.Since(begin)
	hc.CloseIdleConnections()
	return d, took, nil
}

// kill delivers SIGKILL and waits until the process is gone. Safe to call
// more than once and on a daemon that already exited.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.waited
	running.CompareAndSwap(d, nil)
}

// rssPeakMB reads the daemon's high-water resident set (VmHWM) in MB.
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// conn is one keep-alive HTTP connection to the daemon. The harness holds
// two: the closed-loop writer's and the paced reader's.
type conn struct {
	base string
	hc   *http.Client
}

// opTimeout is the hard per-request limit. The exact-LP cliff is steep (a
// matrix a few times larger solves in tens of seconds), so an op that blows
// it is counted failed instead of stalling the run.
const opTimeout = 20 * time.Second

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout:   opTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// close drops the connection; safe on a conn that was never opened.
func (c *conn) close() {
	if c != nil {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request and returns the status and the whole body.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// getJSON fetches path and decodes a 200 reply into v.
func (c *conn) getJSON(path string, v any) error {
	code, raw, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}
