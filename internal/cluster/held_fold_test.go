package cluster

// A whole-state read that every shard answers with 304 is answered from
// the fold its slot holds: the same bytes as a fold made afresh, counted
// in held_folds, never after a shard failed until every shard answered
// again, and never from a buffer a refold writes into.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frequency"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// queryReply is the body a coordinator answers a whole-state /query with
// when its merge is the envelope env over shards shards.
func queryReply(t *testing.T, env []byte, shards int) []byte {
	t.Helper()
	inst, desc, err := registry.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := desc.Bind.Query(inst, url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	res["shards_merged"] = shards
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestHeldFoldIsTheFreshFold: for every family that merges on the wire,
// in full form and, for sfsketch, slim, a seeded run of whole-state
// /snapshot and /query reads interleaved with one-shard writes answers
// every read with the merge of the shards' own envelopes, byte for
// byte, and from the held fold exactly when no shard changed since the
// slot's last read. With one shard killed a strict read is a 503 naming
// it and a partial one the merge of the live shards; no read is then
// answered from a held fold until every shard has answered again.
func TestHeldFoldIsTheFreshFold(t *testing.T) {
	const n = 4
	real := newFleet(t, n)
	// The last shard answers through a proxy that can drop every
	// connection, as a killed process does.
	var killed atomic.Bool
	last := real.nodes[n-1].Handler()
	proxy := real.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			panic(http.ErrAbortHandler)
		}
		last.ServeHTTP(w, r)
	}))
	urls := real.urls()
	urls[n-1] = proxy
	coord, err := NewCoordinator(urls, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base := real.serve(coord)
	cl := client.New(base)

	for _, fam := range []struct {
		req   server.CreateRequest
		wires []string
	}{
		{server.CreateRequest{Type: "hll", P: 10, Seed: 1}, []string{""}},
		{server.CreateRequest{Type: "countmin", Width: 256, Depth: 4, Seed: 1}, []string{""}},
		{server.CreateRequest{Type: "countsketch", Width: 256, Depth: 5, Seed: 1}, []string{""}},
		{server.CreateRequest{Type: "bloom", NItems: 4000, FPR: 0.01, Seed: 1}, []string{""}},
		{server.CreateRequest{Type: "blockedbloom", NItems: 4000, FPR: 0.01, Seed: 1}, []string{""}},
		{server.CreateRequest{Type: "sfsketch", Width: 256, Depth: 4, Seed: 1}, []string{"", "slim"}},
	} {
		name := fam.req.Type
		t.Run(name, func(t *testing.T) {
			if err := cl.Create(name, fam.req); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(40))
			write := func() { // one batch: one shard's turn
				var b bytes.Buffer
				for k := rng.Intn(40) + 1; k > 0; k-- {
					fmt.Fprintf(&b, "item-%d\n", rng.Intn(3000))
				}
				if err := cl.AddBatch(name, b.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				write()
			}
			// read asks one whole-state read of the coordinator and checks
			// its reply against the merge of the shards' own envelopes, and
			// that a /query answered from the held fold, and only such a
			// read, is written from the reply stored with it.
			read := func(op, wire, query string, want [][]byte, wantHeld bool) {
				t.Helper()
				path := "/v1/sketch/" + name + "/" + op + "?wire=" + wire + query
				held, answers := coord.ops.HeldFolds.Load(), coord.ops.HeldAnswers.Load()
				r := request(t, "GET", base+path, "")
				code, body := r.status, r.body
				merged := mergeOf(t, want)
				if op == "query" {
					merged = queryReply(t, merged, len(want))
				}
				if code != http.StatusOK || !bytes.Equal(body, merged) {
					t.Fatalf("GET %s: HTTP %d, %d bytes; want the %d-byte merge of %d shards' envelopes", path, code, len(body), len(merged), len(want))
				}
				got := coord.ops.HeldFolds.Load() - held
				if got > 1 || (got == 1) != wantHeld {
					t.Fatalf("GET %s: held_folds +%d, want held %v", path, got, wantHeld)
				}
				if op != "query" {
					got = 0
				}
				if answered := coord.ops.HeldAnswers.Load() - answers; answered != got {
					t.Fatalf("GET %s: held_answers +%d, want +%d", path, answered, got)
				}
			}

			current := map[string]bool{} // by wire form: the slot holds the fold of what every shard holds
			for step := 0; step < 60; step++ {
				if rng.Intn(3) == 0 {
					write()
					clear(current)
					continue
				}
				wire := fam.wires[rng.Intn(len(fam.wires))]
				op := []string{"snapshot", "query"}[rng.Intn(2)]
				read(op, wire, "", shardEnvs(t, real.nodes, name, wire), current[wire])
				current[wire] = true
			}

			killed.Store(true)
			held := coord.ops.HeldFolds.Load()
			r := request(t, "GET", base+"/v1/sketch/"+name+"/snapshot", "")
			code, body := r.status, r.body
			if code != http.StatusServiceUnavailable || !strings.Contains(string(body), proxy) {
				t.Fatalf("strict read with shard %s killed: HTTP %d %s, want 503 naming it", proxy, code, body)
			}
			live := shardSnapshots(t, real.nodes[:n-1], name)
			for i := 0; i < 2; i++ { // the live shards answer 304 the second time
				read("snapshot", "", "&allow_partial=true", live, false)
			}
			killed.Store(false)
			if got := coord.ops.HeldFolds.Load() - held; got != 0 {
				t.Fatalf("%d reads answered from a held fold while a shard was down", got)
			}
			all := shardSnapshots(t, real.nodes, name)
			read("snapshot", "", "", all, false) // every shard answers again: a fold made afresh
			read("snapshot", "", "", all, true)
		})
	}
	_, status := request(t, "GET", base+"/v1/status", "").doc(t)
	_, cluster := request(t, "GET", base+"/v1/cluster/status", "").doc(t)
	for key, n := range map[string]uint64{"held_folds": coord.ops.HeldFolds.Load(), "held_answers": coord.ops.HeldAnswers.Load()} {
		if n == 0 {
			t.Errorf("no read counted in %s", key)
		}
		if status["ops"].(map[string]any)[key] != float64(n) {
			t.Errorf("/v1/status ops: %v, want %s %d", status["ops"], key, n)
		}
		if cluster["coordinator"].(map[string]any)[key] != float64(n) {
			t.Errorf("/v1/cluster/status coordinator: %v, want %s %d", cluster["coordinator"], key, n)
		}
	}
}

// smallWrites is a listener whose connections get socket write buffers
// of size bytes: a reply larger than that blocks its writer until the
// reader drains it.
type smallWrites struct {
	net.Listener
	size int
}

func (l smallWrites) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		c.(*net.TCPConn).SetWriteBuffer(l.size)
	}
	return c, err
}

// cmConsistent reports whether a Count-Min envelope is one state of the
// sketch: its cells sum to depth times the weight its header counts, as
// every unit add makes them. A reply written from a buffer that a fold
// wrote into underneath is a header of one state and cells of another,
// or cells part folded, and sums to something else.
func cmConsistent(env []byte) error {
	inst, _, err := registry.Decode(env)
	if err != nil {
		return err
	}
	cm := inst.(*frequency.CountMin)
	var sum uint64
	for _, c := range cm.Table() {
		sum += c
	}
	if want := uint64(cm.Depth()) * cm.N(); sum != want {
		return fmt.Errorf("cells sum to %d, the header's n %d times depth %d is %d", sum, cm.N(), cm.Depth(), want)
	}
	return nil
}

// TestHeldFoldUnderConcurrentWrites (run under -race too): four readers
// of one 512 KB Count-Min's /snapshot and /query race a writer adding
// through the coordinator. Two readers drain their replies slowly behind
// small socket buffers and two at full speed, and the writer writes once
// three reads were answered from the fold held since its last write, so
// refolds start while held replies are being written. Every reply a
// reader receives is checked on arrival against the fold it was
// answered from: a snapshot must be one state of the sketch, by its
// cell sum against its header, and a /query must be, byte for byte, the
// reply to a state the sketch was in while the read was out — the count
// the writer had acknowledged when it was sent, at least, and at most
// the count of the writes begun when it arrived. Once the writes stop,
// the held answer is the merge of the shards' envelopes. A held buffer
// put back in the pool while a reply is written from it, or refolded in
// place, and a stored /query reply that outlives its fold, fail it
// within a run.
func TestHeldFoldUnderConcurrentWrites(t *testing.T) {
	shards := newFleet(t, 4)
	coord, err := NewCoordinator(shards.urls(), Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &server.HTTPServer{Handler: coord}
	go hs.Serve(smallWrites{ln, 64 << 10})
	t.Cleanup(func() { hs.Close() })
	cl := client.New("http://" + ln.Addr().String())
	if err := cl.Create("cm", server.CreateRequest{Type: "countmin", Width: 1 << 14, Depth: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, cl, "cm", 5_000)
	base, err := cl.Query("cm", nil)
	if err != nil {
		t.Fatal(err)
	}
	// queryOf is the reply to a /query of the sketch after k writes of two
	// lines each.
	queryOf := func(k uint64) []byte {
		body, _ := json.Marshal(map[string]any{"depth": 4, "n": uint64(base["n"].(float64)) + 2*k, "shards_merged": 4, "width": 1 << 14})
		return append(body, '\n')
	}
	var begun, acked atomic.Uint64 // writes begun and acknowledged

	// get reads a reply through a small receive buffer, pausing between
	// reads, so the coordinator's Write of it blocks.
	get := func(path string, pause time.Duration) (int, []byte, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0, nil, err
		}
		defer conn.Close()
		conn.(*net.TCPConn).SetReadBuffer(32 << 10)
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: coordinator\r\nConnection: close\r\n\r\n", path)
		var raw bytes.Buffer
		buf := make([]byte, 32<<10)
		for {
			k, err := conn.Read(buf)
			raw.Write(buf[:k])
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, nil, err
			}
			time.Sleep(pause)
		}
		head, body, ok := bytes.Cut(raw.Bytes(), []byte("\r\n\r\n"))
		if !ok {
			return 0, nil, fmt.Errorf("no header in %d bytes", raw.Len())
		}
		var code int
		fmt.Sscanf(string(head), "HTTP/1.1 %d", &code)
		return code, body, nil
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load() || i < 4; i++ {
				path := "/v1/sketch/cm/snapshot"
				if (g+i)%3 == 2 {
					path = "/v1/sketch/cm/query"
				}
				lo := acked.Load()
				code, body, err := get(path, time.Duration(g%2)*200*time.Microsecond)
				hi := begun.Load()
				if err != nil || code != http.StatusOK {
					t.Errorf("GET %s: HTTP %d, %v", path, code, err)
					return
				}
				if path == "/v1/sketch/cm/query" {
					k := lo
					for k < hi && !bytes.Equal(body, queryOf(k)) {
						k++
					}
					if !bytes.Equal(body, queryOf(k)) {
						t.Errorf("reader %d, query %d: %q is the reply to no state between %d and %d writes", g, i, body, lo, hi)
						return
					}
					continue
				}
				if err := cmConsistent(body); err != nil {
					t.Errorf("reader %d, snapshot %d: not one state of the sketch: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	// Each write waits for three reads answered from the fold held since
	// it, so the next read's refold starts while held replies are out.
	for i := 0; i < 20; i++ {
		begun.Add(1)
		if err := cl.AddBatch("cm", []byte(fmt.Sprintf("w-%d\nw-%d\n", i, i+1))); err != nil {
			t.Fatal(err)
		}
		acked.Add(1)
		held := coord.ops.HeldFolds.Load()
		for deadline := time.Now().Add(5 * time.Second); coord.ops.HeldFolds.Load() < held+3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()

	want := mergeOf(t, shardSnapshots(t, shards.nodes, "cm"))
	for i := 0; i < 2; i++ {
		held := coord.ops.HeldFolds.Load()
		got, err := cl.Snapshot("cm")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d after the writes stopped: %d bytes (%v), not the merge of the shards' envelopes", i, len(got), err)
		}
		if i == 1 && coord.ops.HeldFolds.Load() == held {
			t.Errorf("the second read after the writes stopped was not answered from the held fold")
		}
	}
}

// The twin of TestMergedSnapshotAllocatesNoEnvelope for a read that
// refolds: one line lands on one shard before every read, so every read
// folds the four envelopes afresh into its pooled buffer, which becomes
// the slot's held fold without a copy. It is held to the same ceiling,
// a quarter of the envelope; a copy of the fold would be the whole
// envelope. A read every shard answers with 304 is answered from the
// held fold and allocates only the five requests' own bookkeeping:
// 13.4 KB per read of a 1.18 MB envelope here (13.9 KB refolded),
// against a ceiling of 1/64 of the envelope, 18.4 KB. Each read is
// measured alone, the write before it not counted.
func TestRefoldedSnapshotAllocatesNoEnvelope(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard: what is Put is what is Got
	coord, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	if err := cl.Create("sf", server.CreateRequest{Type: "sfsketch", Width: 4096, Depth: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, cl, "sf", 20_000)
	env, err := cl.SnapshotAppend("sf", "full", nil)
	if err != nil || len(env) < 1<<20 {
		t.Fatalf("merged snapshot: %d bytes, %v; want an envelope over 1 MB", len(env), err)
	}
	const runs = 10
	for _, tc := range []struct {
		row     string
		write   bool
		ceiling uint64
		held    uint64 // reads answered from the held fold, of runs+1
	}{
		{"refolded", true, uint64(len(env)) / 4, 0},
		{"held", false, uint64(len(env)) / 64, runs + 1},
	} {
		var bytesRead uint64
		merges, held := coord.ops.WireMerges.Load(), coord.ops.HeldFolds.Load()
		for i := -1; i < runs; i++ { // read -1 sizes the pools
			if tc.write {
				if err := cl.AddBatch("sf", []byte(fmt.Sprintf("%s-%d\n", tc.row, i))); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if env, err = cl.SnapshotAppend("sf", "full", env[:0]); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i >= 0 {
				bytesRead += after.TotalAlloc - before.TotalAlloc
			}
		}
		if got := bytesRead / runs; got >= tc.ceiling {
			t.Errorf("%s: a merged /snapshot of a %d-byte envelope allocated %d bytes per read, ceiling %d", tc.row, len(env), got, tc.ceiling)
		}
		if got := coord.ops.WireMerges.Load() - merges; got != runs+1 {
			t.Errorf("%s: %d of %d reads merged on the wire", tc.row, got, runs+1)
		}
		if got := coord.ops.HeldFolds.Load() - held; got != tc.held {
			t.Errorf("%s: %d of %d reads answered from the held fold", tc.row, got, runs+1)
		}
	}
}

// The /query twin of TestRefoldedSnapshotAllocatesNoEnvelope's held row:
// a whole-state /query that every shard answers with 304 writes the
// reply stored with the held fold, so it decodes no instance of the
// 1.18 MB envelope and allocates only the five requests' bookkeeping,
// under the same ceiling of 1/64 of the envelope. Decoding the fold for
// every read allocated the whole table each time.
func TestHeldAnswerAllocatesNoReply(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard: what is Put is what is Got
	coord, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	if err := cl.Create("sf", server.CreateRequest{Type: "sfsketch", Width: 4096, Depth: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, cl, "sf", 20_000)
	env, err := cl.SnapshotAppend("sf", "full", nil)
	if err != nil || len(env) < 1<<20 {
		t.Fatalf("merged snapshot: %d bytes, %v; want an envelope over 1 MB", len(env), err)
	}
	const runs = 10
	var bytesRead uint64
	held, answers := coord.ops.HeldFolds.Load(), coord.ops.HeldAnswers.Load()
	for i := -1; i < runs; i++ { // read -1 renders the stored reply
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cl.Query("sf", nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 0 {
			bytesRead += after.TotalAlloc - before.TotalAlloc
		}
	}
	if got, ceiling := bytesRead/runs, uint64(len(env))/64; got >= ceiling {
		t.Errorf("a held /query of a %d-byte envelope allocated %d bytes per read, ceiling %d", len(env), got, ceiling)
	}
	if got := coord.ops.HeldFolds.Load() - held; got != runs+1 {
		t.Errorf("%d of %d reads answered from the held fold", got, runs+1)
	}
	if got := coord.ops.HeldAnswers.Load() - answers; got != runs+1 {
		t.Errorf("%d of %d reads written from the stored reply", got, runs+1)
	}
}
