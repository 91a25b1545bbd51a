package cluster

// Slim-gather tests: the coordinator's ?wire=slim scatter-gather path
// must cut the bytes read from the shards while keeping merged answers
// overestimates of the true stream, and the pooled gather buffers must
// never leak one request's envelope into another's merge.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// sfFleet builds a 4-shard fleet with one sfsketch fed a weighted
// stream through the coordinator, and returns the coordinator's test
// server URL plus the exact per-item truth.
func sfFleet(t *testing.T) (*Coordinator, *client.Client, map[string]uint64) {
	t.Helper()
	shards := make([]*httptest.Server, 4)
	urls := make([]string, len(shards))
	for i := range shards {
		shards[i] = httptest.NewServer(server.New().Handler())
		t.Cleanup(shards[i].Close)
		urls[i] = shards[i].URL
	}
	coord, err := NewCoordinator(urls, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl := coordClient(t, coord)
	if err := cl.Create("freq", server.CreateRequest{Type: "sfsketch", Width: 128, Depth: 4, Seed: 3}); err != nil {
		t.Fatalf("create: %v", err)
	}
	truth := map[string]uint64{}
	var batch bytes.Buffer
	for i := 0; i < 5000; i++ {
		item := fmt.Sprintf("key-%d", i%500)
		w := uint64(i%7 + 1)
		fmt.Fprintf(&batch, "%s\t%d\n", item, w)
		truth[item] += w
	}
	if err := cl.AddBatch("freq", batch.Bytes()); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	return coord, cl, truth
}

func sfEstimate(t *testing.T, cl *client.Client, name, item, wire string) uint64 {
	t.Helper()
	params := url.Values{"item": {item}}
	if wire != "" {
		params.Set("wire", wire)
	}
	res, err := cl.Query(name, params)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	est, ok := res["estimate"].(float64)
	if !ok {
		t.Fatalf("query result %v: no estimate", res)
	}
	return uint64(est)
}

func TestSlimGatherCutsWireBytes(t *testing.T) {
	coord, cl, truth := sfFleet(t)

	base := coord.ops.GatherBytes.Load()
	fullEst := sfEstimate(t, cl, "freq", "key-3", "full")
	fullBytes := coord.ops.GatherBytes.Load() - base

	base = coord.ops.GatherBytes.Load()
	slimEst := sfEstimate(t, cl, "freq", "key-3", "slim")
	slimBytes := coord.ops.GatherBytes.Load() - base

	// Default shape is ratio 8: a slim gather moves roughly 1/9 of the
	// full envelope bytes. Require at least a 4x cut so the test tracks
	// the mechanism, not the exact shape.
	if slimBytes == 0 || slimBytes*4 > fullBytes {
		t.Fatalf("slim gather read %d bytes vs full %d: no wire saving", slimBytes, fullBytes)
	}
	if coord.ops.SlimGathers.Load() != 1 {
		t.Fatalf("slim_gathers = %d, want 1", coord.ops.SlimGathers.Load())
	}

	// Slim-merged answers stay overestimates of the true stream (each
	// shard's slim stage overestimates its substream; the cell-wise sum
	// preserves that), and the full-gather answer is at least as tight.
	want := truth["key-3"]
	if slimEst < want {
		t.Fatalf("slim-merged estimate %d undercounts true %d", slimEst, want)
	}
	if fullEst < want || fullEst > slimEst {
		t.Fatalf("full-gather estimate %d: want within [%d, %d]", fullEst, want, slimEst)
	}
	for item, want := range truth {
		if got := sfEstimate(t, cl, "freq", item, "slim"); got < want {
			t.Fatalf("slim-merged estimate(%s) = %d undercounts true %d", item, got, want)
		}
	}
}

// The wire form is the request's choice: a gather is full unless it asks
// for ?wire=slim, and slim_gathers counts the ones that did.
func TestSlimGatherDefaultAndOverride(t *testing.T) {
	coord, cl, truth := sfFleet(t)
	for _, c := range []struct {
		wire string
		slim uint64 // slim_gathers after the read
	}{{"", 0}, {"slim", 1}, {"full", 1}} {
		est := sfEstimate(t, cl, "freq", "key-1", c.wire)
		if got := coord.ops.SlimGathers.Load(); got != c.slim {
			t.Fatalf("after a ?wire=%q read: slim_gathers = %d, want %d", c.wire, got, c.slim)
		}
		if est < truth["key-1"] {
			t.Fatalf("?wire=%q: estimate %d undercounts true %d", c.wire, est, truth["key-1"])
		}
	}
}

func TestSlimGatherSnapshotStable(t *testing.T) {
	// Gathered-and-merged envelopes must be deterministic across repeat
	// reads in both wire modes — the pooled per-shard buffers are reused
	// between requests and must never bleed state into the merge. The
	// slim merged envelope also re-decodes as a mergeable slim-only
	// sketch (the GSKB/federation contract).
	_, cl, truth := sfFleet(t)

	full1, err := cl.SnapshotWire("freq", "full")
	if err != nil {
		t.Fatal(err)
	}
	slim1, err := cl.SnapshotWire("freq", "slim")
	if err != nil {
		t.Fatal(err)
	}
	full2, _ := cl.SnapshotWire("freq", "full")
	slim2, _ := cl.SnapshotWire("freq", "slim")
	if !bytes.Equal(full1, full2) {
		t.Fatal("repeated full gather+merge is not byte-identical")
	}
	if !bytes.Equal(slim1, slim2) {
		t.Fatal("repeated slim gather+merge is not byte-identical")
	}
	if len(slim1) >= len(full1) {
		t.Fatalf("merged slim envelope %d bytes >= full %d", len(slim1), len(full1))
	}

	merged, d, err := MergeEnvelopes([][]byte{slim1, slim2})
	if err != nil {
		t.Fatalf("slim envelopes do not re-merge: %v", err)
	}
	if d.Name != "sfsketch" {
		t.Fatalf("merged envelope family %s", d.Name)
	}
	res, err := d.Bind.Query(merged, map[string][]string{"item": {"key-2"}})
	if err != nil {
		t.Fatal(err)
	}
	// Doubled stream (slim1 == slim2), so the doubled truth bounds it.
	if est := uint64(res["estimate"].(uint64)); est < 2*truth["key-2"] {
		t.Fatalf("re-merged slim estimate %v undercounts doubled truth %d", res["estimate"], 2*truth["key-2"])
	}
}
