package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// What one coordinator operation over 4 loopback shards allocates,
// the shards' connection loops included (the count is process-wide).
// Ceilings, not equalities: the runtime's own share moves with
// GOMAXPROCS and the Go release. They sit about a fifth above what the
// tree reads at GOMAXPROCS 1, 2 and 4 (16, 81, 83 each time), and half
// as much again under the race detector, whose sync.Pool drops a
// quarter of the pooled buffers (21–24, 86–87, 86–88 there). A hop that
// goes back to allocating per request fails here: the shards on
// net/http's server read 39, 118, 147, and net/http's client 441, 376,
// 493. So does an ingest that goes back to a request per shard (137
// when the body was split by key: four round trips, a goroutine and a
// bucket each).
func TestCoordinatorAllocationCeilings(t *testing.T) {
	coord, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	if err := cl.Create("uniq", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("freq", server.CreateRequest{Type: "sfsketch", Width: 512, Depth: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	for i := 0; i < 1024; i++ {
		fmt.Fprintf(&body, "item%d\n", i)
	}
	for _, name := range []string{"uniq", "freq"} {
		if _, fails := coord.FanOutAdd(name, body.Bytes()); len(fails) > 0 {
			t.Fatalf("seed ingest: %v", fails)
		}
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"FanOutAdd of 1024 lines", 20, func() {
			if _, fails := coord.FanOutAdd("uniq", body.Bytes()); len(fails) > 0 {
				t.Fatal(fails)
			}
		}},
		{"gathered read, full envelopes", 100, func() {
			envs, fails := coord.Gather("uniq")
			if len(fails) > 0 {
				t.Fatal(fails)
			}
			if _, _, err := MergeEnvelopes(envs); err != nil {
				t.Fatal(err)
			}
		}},
		{"gathered read, ?wire=slim, over HTTP", 100, func() {
			if _, err := cl.SnapshotWire("freq", "slim"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		ceiling := tc.ceiling
		if !poolKeeps() {
			ceiling *= 1.5
		}
		// AllocsPerRun's warm-up call dials the connections and sizes the pools.
		if n := testing.AllocsPerRun(50, tc.op); n > ceiling {
			t.Errorf("%s: %v allocs per operation, ceiling %v", tc.name, n, ceiling)
		}
	}
}

// What one 1024-line /add allocates, process-wide: the client, a node's
// net/http server and its handler, over loopback; and the same request
// through a 4-shard coordinator, its shard hop and the shard. This tree
// reads 29 and 58 for each family at GOMAXPROCS 1, 2 and 4. The
// ceilings sit a few above, and under what the request cost while both
// tiers JSON-encoded the ack and the coordinator decoded the shard's ack
// with encoding/json into a buffer of its own (34 and 74). Every tier
// here is served by http.Server, not server.Listen: these ceilings are
// http.Server's numbers, the reference the loop's below are read against.
func TestAddAllocationCeilings(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	shards := make([]string, 4)
	for i := range shards {
		shards[i] = serve(server.New().Handler())
	}
	coord, err := NewCoordinator(shards, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name    string
		cl      *client.Client
		ceiling float64
	}{
		{"node", client.New(serve(server.New().Handler())), 32},
		{"4-shard coordinator", client.New(serve(coord)), 66},
	}
	families := []server.CreateRequest{
		{Type: "countmin", Width: 4096, Depth: 4, Seed: 1},
		{Type: "hll", P: 12, Seed: 1},
		{Type: "blockedbloom", NItems: 100_000, FPR: 0.01, Seed: 1},
	}
	var body []byte
	for i := 0; i < 1024; i++ {
		body = fmt.Appendf(body, "item%d\t%d\n", i, 1+i%9)
	}
	plain := bytes.ReplaceAll(body, []byte("\t"), []byte("-")) // hll and blockedbloom take whole lines
	for _, tier := range tiers {
		for _, req := range families {
			batch := plain
			if req.Type == "countmin" {
				batch = body
			}
			if err := tier.cl.Create(req.Type, req); err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun's warm-up call dials the connections and sizes the pools.
			n := testing.AllocsPerRun(50, func() {
				if err := tier.cl.AddBatch(req.Type, batch); err != nil {
					t.Fatal(err)
				}
			})
			if n > tier.ceiling {
				t.Errorf("%s, %s: %v allocs per 1024-line /add, ceiling %v", tier.name, req.Type, n, tier.ceiling)
			}
		}
	}
}

// The same 1024-line /add, process-wide, with every tier served as
// sketchd serves it, through server.Listen: the node, and the
// coordinator and its 4 shards. This tree reads 16 and 32 at GOMAXPROCS
// 1, 2 and 4, against 29 and 58 through net/http's server above, which
// spends a context, a background read and a header clone per request
// that the loop does not. The ceilings sit a few above.
func TestLoopAddAllocationCeilings(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	_, front := newFleet(t, 4).coordinator()
	var body []byte
	for i := 0; i < 1024; i++ {
		body = fmt.Appendf(body, "item%d\t%d\n", i, 1+i%9)
	}
	for _, tier := range []struct {
		name    string
		cl      *client.Client
		ceiling float64
	}{
		{"node", client.New(newFleet(t, 1).nodes[0].URL), 20},
		{"4-shard coordinator", client.New(front), 38},
	} {
		if err := tier.cl.Create("cm", server.CreateRequest{Type: "countmin", Width: 4096, Depth: 4, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's warm-up call dials the connections and sizes the pools.
		n := testing.AllocsPerRun(50, func() {
			if err := tier.cl.AddBatch("cm", body); err != nil {
				t.Fatal(err)
			}
		})
		if n > tier.ceiling {
			t.Errorf("%s: %v allocs per 1024-line /add, ceiling %v", tier.name, n, tier.ceiling)
		}
	}
}

// poolKeeps reports whether a sync.Pool hands back what it was given:
// under the race detector it drops a quarter of all Puts on purpose, and
// a byte count of what pooling saves has nothing to measure.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
	}
	for i := 0; i < 64; i++ {
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// A merged /snapshot?wire=full of a family that merges on the wire
// allocates no table and no envelope anywhere: the shards marshal into
// pooled buffers, the coordinator reads them into pooled buffers, folds
// three into the fourth where they lie and writes that one out. The
// count is bytes and process-wide, shards and HTTP on both hops
// included, against a ceiling of a quarter of the one envelope the reply
// carries; decoding the four shard envelopes and marshalling their merge
// allocated more than four envelopes' worth per read.
func TestMergedSnapshotAllocatesNoEnvelope(t *testing.T) {
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
	read := func() {
		if env, err = cl.SnapshotAppend("sf", "full", env[:0]); err != nil {
			t.Fatal(err)
		}
	}
	read() // the pools are sized by now
	const runs = 10
	merges := coord.ops.WireMerges.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= uint64(len(env))/4 {
		t.Errorf("a merged /snapshot of a %d-byte envelope allocated %d bytes per read, want under a quarter of it", len(env), got)
	}
	if got := coord.ops.WireMerges.Load() - merges; got != runs {
		t.Errorf("%d of %d reads merged on the wire", got, runs)
	}
}
