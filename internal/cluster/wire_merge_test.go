package cluster

// A gathered read of a family that merges on the wire folds the shard
// envelopes where they arrived and, for /snapshot, writes that buffer to
// the client: what is counted, what is still refused, and that the
// buffer outlives the reply written from it.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// TestWireMergesCounted: reads of sfsketch, hll and countmin are
// answered without decoding a shard envelope and say so on both status
// routes; a kll read decodes and tree-merges as before, and a projected
// point query counts as projected, as before.
func TestWireMergesCounted(t *testing.T) {
	coord, _ := fleet(t, 3)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	for name, req := range map[string]server.CreateRequest{
		"sf":  {Type: "sfsketch", Width: 128, Depth: 4, Seed: 1},
		"hll": {Type: "hll", P: 10, Seed: 1},
		"cm":  {Type: "countmin", Width: 256, Depth: 4, Seed: 1},
	} {
		if err := cl.Create(name, req); err != nil {
			t.Fatal(err)
		}
		ingestN(t, cl, name, 2_000)
	}
	if err := cl.Create("kll", server.CreateRequest{Type: "kll"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch("kll", []byte("1\n2\n3\n4\n5\n6\n7\n8\n9\n")); err != nil {
		t.Fatal(err)
	}
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
	}
	for _, tc := range []struct {
		path string
		wire uint64
	}{
		{"/v1/sketch/sf/snapshot?wire=full", 1},
		{"/v1/sketch/sf/snapshot?wire=slim", 1},
		{"/v1/sketch/sf/query?item=item-3", 1},
		{"/v1/sketch/hll/query", 1},
		{"/v1/sketch/hll/snapshot", 1},
		{"/v1/sketch/cm/snapshot", 1},
		{"/v1/sketch/cm/query", 1},
		{"/v1/sketch/cm/query?item=item-3", 0}, // projected: 3 × 67 bytes, decoded
		{"/v1/sketch/kll/query?q=0.5", 0},
		{"/v1/sketch/kll/snapshot", 0},
	} {
		before := coord.ops.WireMerges.Load()
		get(tc.path)
		if got := coord.ops.WireMerges.Load() - before; got != tc.wire {
			t.Errorf("GET %s: wire_merges +%d, want +%d", tc.path, got, tc.wire)
		}
	}
	want := float64(coord.ops.WireMerges.Load())
	if _, doc := getJSON(t, ts.URL+"/v1/status"); doc["ops"].(map[string]any)["wire_merges"] != want {
		t.Errorf("/v1/status ops: %v, want wire_merges %v", doc["ops"], want)
	}
	if _, doc := getJSON(t, ts.URL+"/v1/cluster/status"); doc["coordinator"].(map[string]any)["wire_merges"] != want {
		t.Errorf("/v1/cluster/status coordinator: %v, want wire_merges %v", doc["coordinator"], want)
	}
}

// TestWireMergeRefusals: what decoding the shard envelopes refused, the
// merge of their bytes refuses with the same status — a corrupt envelope
// is the cluster's fault (500), shards that disagree on shape or seed a
// conflict (409) — and a partial read folds the envelopes that arrived.
func TestWireMergeRefusals(t *testing.T) {
	real := make([]*httptest.Server, 3)
	urls := make([]string, len(real))
	for i := range real {
		real[i] = httptest.NewServer(server.New().Handler())
		t.Cleanup(real[i].Close)
		urls[i] = real[i].URL
	}
	// Shard 2 answers through a proxy that can cut the snapshots of one
	// sketch short ("cut <name>"), or be down ("down").
	var fault atomic.Value
	fault.Store("")
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch f := fault.Load().(string); {
		case f == "down":
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		case strings.HasPrefix(f, "cut ") && strings.HasSuffix(r.URL.Path, "/"+f[4:]+"/snapshot"):
			rec := httptest.NewRecorder()
			real[2].Config.Handler.ServeHTTP(rec, r)
			w.Write(rec.Body.Bytes()[:rec.Body.Len()-8])
		default:
			real[2].Config.Handler.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(proxy.Close)
	urls[2] = proxy.URL
	coord, err := NewCoordinator(urls, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)

	for _, tc := range []struct {
		family string
		req    server.CreateRequest
	}{
		{"sf", server.CreateRequest{Type: "sfsketch", Width: 128, Depth: 4, Seed: 1}},
		{"hll", server.CreateRequest{Type: "hll", P: 10, Seed: 1}},
	} {
		if err := cl.Create(tc.family, tc.req); err != nil {
			t.Fatal(err)
		}
		ingestN(t, cl, tc.family, 3_000)
		want, err := cl.Snapshot(tc.family)
		if err != nil {
			t.Fatal(err)
		}

		fault.Store("cut " + tc.family)
		for _, op := range []string{"snapshot", "query"} {
			code, doc := getJSON(t, ts.URL+"/v1/sketch/"+tc.family+"/"+op)
			if code != http.StatusInternalServerError || !strings.HasPrefix(fmt.Sprint(doc["error"]), "merge shards: ") {
				t.Errorf("%s %s with a truncated shard envelope: HTTP %d %v, want 500 merge shards: …", tc.family, op, code, doc)
			}
		}
		fault.Store("")
		if got, err := cl.Snapshot(tc.family); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: the snapshot after a refused read differs from the one before (%v)", tc.family, err)
		}

		// The same name with another seed on one shard: created behind the
		// coordinator's back, as a misconfigured fleet would have it.
		odd := tc.req
		odd.Seed = 2
		for i, u := range urls {
			req := tc.req
			if i == 1 {
				req = odd
			}
			if err := client.New(u).Create(tc.family+"-odd", req); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range []string{"snapshot", "query"} {
			code, doc := getJSON(t, ts.URL+"/v1/sketch/"+tc.family+"-odd/"+op)
			if code != http.StatusConflict || !strings.HasPrefix(fmt.Sprint(doc["error"]), "merge shards: ") {
				t.Errorf("%s %s over shards of two seeds: HTTP %d %v, want 409 merge shards: …", tc.family, op, code, doc)
			}
		}

		// With a shard down, an allowed partial snapshot is the merge of
		// the two that answered, and says that it is partial.
		envs := make([][]byte, 2)
		for i := range envs {
			if envs[i], err = client.New(urls[i]).Snapshot(tc.family); err != nil {
				t.Fatal(err)
			}
		}
		merged, _, err := MergeEnvelopes(envs)
		if err != nil {
			t.Fatal(err)
		}
		wantPartial, _ := registry.Marshal(merged)
		fault.Store("down")
		resp, err := http.Get(ts.URL + "/v1/sketch/" + tc.family + "/snapshot?allow_partial=true")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cluster-Partial") != "true" || !bytes.Equal(body, wantPartial) {
			t.Errorf("%s partial snapshot: HTTP %d, X-Cluster-Partial %q, the two shards' merge: %v",
				tc.family, resp.StatusCode, resp.Header.Get("X-Cluster-Partial"), bytes.Equal(body, wantPartial))
		}
		if code, _ := getJSON(t, ts.URL+"/v1/sketch/"+tc.family+"/snapshot"); code != http.StatusServiceUnavailable {
			t.Errorf("%s snapshot with a shard down: HTTP %d, want 503", tc.family, code)
		}
		fault.Store("")
	}
}

// TestConcurrentReadsOfOneSketch (run under -race too): a /snapshot
// reply is the pooled gather buffer itself, and /query decodes from it,
// so a buffer that went back to the pool before its reply was written
// would be refilled by the next gather underneath the Write. One reader
// therefore stalls after the first byte of a 1 MB reply, behind socket
// buffers too small to hold the rest, while other readers gather the
// same and another sketch; every reply, the stalled one included, must
// be the bytes the same read gets alone.
func TestConcurrentReadsOfOneSketch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool shard: the next gather gets the buffer the last one put back
	coord, _ := fleet(t, 4)
	ts := httptest.NewUnstartedServer(coord)
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			c.(*net.TCPConn).SetWriteBuffer(128 << 10)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	for i, name := range []string{"freq", "other"} {
		if err := cl.Create(name, server.CreateRequest{Type: "sfsketch", Width: 4096, Depth: 4, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		ingestN(t, cl, name, 10_000*(i+1))
	}
	paths := []string{
		"/v1/sketch/freq/snapshot?wire=full",
		"/v1/sketch/other/snapshot?wire=full",
		"/v1/sketch/freq/snapshot?wire=slim",
		"/v1/sketch/freq/query?item=item-3",
		"/v1/sketch/other/query?item=item-3&wire=slim",
	}
	fetch := func(path string) ([]byte, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	want := make([][]byte, len(paths))
	for i, path := range paths {
		var err error
		if want[i], err = fetch(path); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	stalled, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.(*net.TCPConn).SetReadBuffer(128 << 10)
	fmt.Fprintf(stalled, "GET %s HTTP/1.1\r\nHost: coordinator\r\nConnection: close\r\n\r\n", paths[0])
	reply := bufio.NewReaderSize(stalled, 1)
	if _, err := reply.Peek(1); err != nil { // the handler is in its Write now
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(paths)
				if got, err := fetch(paths[k]); err != nil || !bytes.Equal(got, want[k]) {
					t.Errorf("GET %s, concurrently: %d bytes (%v), not the reply it gets alone", paths[k], len(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	resp, err := http.ReadResponse(reply, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil || !bytes.Equal(got, want[0]) {
		t.Errorf("the stalled GET %s: %d bytes (%v), not the reply it gets alone: its buffer was gathered into before it was written out", paths[0], len(got), err)
	}
}
