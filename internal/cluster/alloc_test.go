package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/server"
)

func TestRingShardSeededZeroAlloc(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("https://example.com/api/v1/users/1000000")
	if n := testing.AllocsPerRun(100, func() { r.ShardSeeded(key, 7) }); n != 0 {
		t.Errorf("Ring.ShardSeeded: %v allocs per key, want 0", n)
	}
}

// What one coordinator operation over 4 loopback shards allocates,
// shards' net/http servers included (the count is process-wide).
// Ceilings, not equalities: the runtime's own share moves with
// GOMAXPROCS and the Go release (a gathered read counted 120 at
// GOMAXPROCS 1 and 134 at 2 on one commit), and the race detector's
// sync.Pool drops a quarter of the pooled buffers (153, 128, 167
// there). They sit about half above what this tree reads (137, 120,
// 154) and far under what the same operations cost on net/http's client
// (441, 376, 493), so a hop that goes back to allocating per request
// fails here.
func TestCoordinatorAllocationCeilings(t *testing.T) {
	coord, _ := fleet(t, 4)
	cl := coordClient(t, coord)
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
		{"FanOutAdd of 1024 lines", 200, func() {
			if _, fails := coord.FanOutAdd("uniq", body.Bytes()); len(fails) > 0 {
				t.Fatal(fails)
			}
		}},
		{"gathered read, full envelopes", 180, func() {
			envs, fails := coord.Gather("uniq")
			if len(fails) > 0 {
				t.Fatal(fails)
			}
			if _, _, err := MergeEnvelopes(envs); err != nil {
				t.Fatal(err)
			}
		}},
		{"gathered read, ?wire=slim, over HTTP", 230, func() {
			if _, err := cl.SnapshotWire("freq", "slim"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		// AllocsPerRun's warm-up call dials the connections and sizes the pools.
		if n := testing.AllocsPerRun(50, tc.op); n > tc.ceiling {
			t.Errorf("%s: %v allocs per operation, ceiling %v", tc.name, n, tc.ceiling)
		}
	}
}
