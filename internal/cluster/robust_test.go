package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
)

// TestGatheredRobustDistinctQueryIsShardLocal: robustdistinct defends
// its estimate by sketch switching, and a release is what moves the
// switch, so a coordinator, which would ask a merge made for one read
// and thrown away, cannot answer it. One adaptive read sequence — 12
// batches, a read after each — runs against one server and through a
// 4-shard coordinator. The server's reads burn copies as the count
// drifts; the coordinator refuses every /query with a 501 that names the
// family as shard-local, while its /snapshot, behind every shard's read
// budget, still answers.
func TestGatheredRobustDistinctQueryIsShardLocal(t *testing.T) {
	req := server.CreateRequest{Type: "robustdistinct", Seed: 1, Params: map[string]float64{"lambda": 8, "eps": 0.05}}
	one := client.New(newFleet(t, 1).nodes[0].URL)
	_, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	for _, c := range []*client.Client{one, cl} {
		if err := c.Create("rd", req); err != nil {
			t.Fatal(err)
		}
	}

	var used float64
	for b := 0; b < 12; b++ {
		var batch bytes.Buffer
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&batch, "u-%d-%d\n", b, i)
		}
		for _, c := range []*client.Client{one, cl} {
			if err := c.AddBatch("rd", batch.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := one.Query("rd", nil)
		if err != nil {
			t.Fatal(err)
		}
		used = res["copies_used"].(float64)
		r := request(t, "GET", base+"/v1/sketch/rd/query", "")
		if code, body := r.status, r.body; code != http.StatusNotImplemented || !strings.Contains(string(body), "robustdistinct") || !strings.Contains(string(body), "shard-local") {
			t.Fatalf("read %d through the coordinator: HTTP %d %s, want 501 naming robustdistinct shard-local", b, code, body)
		}
	}
	if used < 2 {
		t.Fatalf("one server used %v copies over 12 drifting reads: the sequence does not exercise switching", used)
	}
	if code := request(t, "GET", base+"/v1/sketch/rd/snapshot", "").status; code != http.StatusOK {
		t.Fatalf("merged snapshot: HTTP %d, want 200", code)
	}
}
