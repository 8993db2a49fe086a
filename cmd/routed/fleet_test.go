package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparseroute/internal/graph/gen"
	"sparseroute/internal/serial"
)

// startFleetDaemon opens the fleet from o and serves it on a random port,
// returning the base URL plus a stop function performing the daemon's
// graceful drain (every resident shard snapshots on the way down).
func startFleetDaemon(t *testing.T, o *options) (string, func()) {
	t.Helper()
	h, drain, err := openFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, l, h, drain) }()
	url := "http://" + l.Addr().String()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fleet daemon did not shut down")
		}
	}
	return url, stop
}

// TestFleetDaemonEndToEnd: serve two topologies from one process → solve an
// epoch on each via the namespaced routes → graceful drain snapshots every
// resident shard → restart restores both warm with identical hashes.
func TestFleetDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"east", "west"} {
		f, err := os.Create(filepath.Join(dir, id+".topo.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.EncodeGraph(f, gen.Hypercube(3)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	o, err := parseFlags([]string{
		"-fleet", dir, "-router", "valiant", "-s", "3", "-seed", "11",
		"-workers", "2", "-default", "east",
	})
	if err != nil {
		t.Fatal(err)
	}
	url, stop := startFleetDaemon(t, o)

	hashes := map[string]string{}
	for _, id := range []string{"east", "west"} {
		resp, err := http.Post(url+"/v1/t/"+id+"/demand?wait=1", "application/json",
			strings.NewReader(`{"entries":[{"u":0,"v":7,"amount":2}]}`))
		if err != nil {
			t.Fatal(err)
		}
		ep := decodeBody(t, resp)
		if ep["solved"] != true {
			t.Fatalf("%s epoch not solved: %v", id, ep)
		}
		hashes[id] = pathSystemHash(t, scrape(t, url+"/v1/t/"+id+"/metrics"))
	}

	// The legacy alias reaches east's engine.
	resp, err := http.Get(url + "/v1/paths?src=0&dst=7")
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); body["epoch"].(float64) != 1 {
		t.Fatalf("legacy alias epoch %v, want east's 1", body["epoch"])
	}
	// Unknown topologies 404.
	resp, err = http.Get(url + "/v1/t/mars/paths?src=0&dst=7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown topology: %d, want 404", resp.StatusCode)
	}

	// Fleet rollup is healthy with both shards resident.
	resp, err = http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeBody(t, resp); h["status"] != "ok" || h["resident"].(float64) != 2 {
		t.Fatalf("fleet healthz %v", h)
	}

	// Graceful drain writes east.snap and west.snap.
	stop()
	for _, id := range []string{"east", "west"} {
		if _, err := os.Stat(filepath.Join(dir, id+".snap")); err != nil {
			t.Fatalf("drain left no snapshot for %s: %v", id, err)
		}
	}

	// Restart: both shards restore warm with the exact pre-drain hash.
	url, stop = startFleetDaemon(t, o)
	defer stop()
	for _, id := range []string{"east", "west"} {
		if got := pathSystemHash(t, scrape(t, url+"/v1/t/"+id+"/metrics")); got != hashes[id] {
			t.Fatalf("%s restored hash %s, want %s", id, got, hashes[id])
		}
	}
	if warm := scrape(t, url+"/metrics")["sparseroute_fleet_warm_starts"]; warm != 2 {
		t.Fatalf("restart warm starts %v, want 2", warm)
	}
}
