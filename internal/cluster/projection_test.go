package cluster

// Query pushdown through the coordinator: a gathered point query over a
// projecting family (countmin, countsketch) moves the cells it reads,
// answers exactly what one server fed the same stream answers, and
// keeps every refusal and degradation rule of the full-envelope read.

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// weightedBatch renders a skewed signed-or-unsigned weighted stream.
func weightedBatch(signed bool) []byte {
	var b bytes.Buffer
	for i := 0; i < 4000; i++ {
		w := 1 + i%7
		if signed && i%3 == 0 {
			w = -w
		}
		fmt.Fprintf(&b, "flow-%d\t%d\n", (i*i)%257, w)
	}
	return b.Bytes()
}

func TestProjectedQueryEqualsSingleServer(t *testing.T) {
	for _, fam := range []struct {
		req    server.CreateRequest
		signed bool
	}{
		{server.CreateRequest{Type: "countmin", Width: 1 << 14, Depth: 4, Seed: 5}, false},
		{server.CreateRequest{Type: "countmin", Width: 1 << 10, Depth: 5, Seed: 5, Params: map[string]float64{"fused": 1}}, false},
		{server.CreateRequest{Type: "countsketch", Width: 1 << 12, Depth: 5, Seed: 5}, true},
	} {
		for _, tenant := range []string{"", "acme"} {
			fam, tenant := fam, tenant
			t.Run(fmt.Sprintf("%s/fused=%v/tenant=%q", fam.req.Type, fam.req.Params["fused"], tenant), func(t *testing.T) {
				coord, base := newFleet(t, 4).coordinator()
				cl := client.New(base).Tenant(tenant)
				scl := client.New(newFleet(t, 1).nodes[0].URL).Tenant(tenant)
				batch := weightedBatch(fam.signed)
				for _, c := range []*client.Client{cl, scl} {
					if err := c.Create("flows", fam.req); err != nil {
						t.Fatalf("create: %v", err)
					}
					if err := c.AddBatch("flows", batch); err != nil {
						t.Fatalf("add: %v", err)
					}
				}
				for _, item := range []string{"flow-0", "flow-1", "flow-256", "absent"} {
					q := url.Values{"item": {item}}
					before := coord.ops.snapshot()
					got, err := cl.Query("flows", q)
					if err != nil {
						t.Fatalf("cluster query: %v", err)
					}
					after := coord.ops.snapshot()
					want, err := scl.Query("flows", q)
					if err != nil {
						t.Fatalf("single query: %v", err)
					}
					if got["estimate"] != want["estimate"] || got["n"] != want["n"] {
						t.Errorf("item %s: cluster (%v, n %v), single server (%v, n %v)", item, got["estimate"], got["n"], want["estimate"], want["n"])
					}
					if got["shards_merged"] != float64(4) {
						t.Errorf("shards_merged %v, want 4", got["shards_merged"])
					}
					if b := after.GatherBytes - before.GatherBytes; b == 0 || b >= 1024 {
						t.Errorf("item %s: gathered %d bytes, want a projected read under 1 KB", item, b)
					}
					if after.ProjectedGathers != before.ProjectedGathers+1 || after.ShardRequests != before.ShardRequests+4 {
						t.Errorf("projected_gathers +%d, shard_requests +%d: want +1, +4",
							after.ProjectedGathers-before.ProjectedGathers, after.ShardRequests-before.ShardRequests)
					}
				}
				// The parameterless summary is not projectable: full gather, same answer.
				before := coord.ops.snapshot()
				got, err := cl.Query("flows", nil)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := scl.Query("flows", nil)
				if got["n"] != want["n"] || got["width"] != want["width"] {
					t.Errorf("summary: cluster %v, single %v", got, want)
				}
				if after := coord.ops.snapshot(); after.ProjectedGathers != before.ProjectedGathers || after.MixedRegathers != 0 {
					t.Errorf("summary read counted as projected (or re-gathered): %+v", after)
				}
			})
		}
	}
}

// A blocked Bloom point query through a 4-shard coordinator gathers the
// k bits each shard probes, not four whole filters, and answers what one
// server fed the same batches answers.
func TestProjectedBloomQueryEqualsSingleServer(t *testing.T) {
	coord, base := newFleet(t, 4).coordinator()
	cl := client.New(base)
	scl := client.New(newFleet(t, 1).nodes[0].URL)
	req := server.CreateRequest{Type: "blockedbloom", NItems: 20_000, FPR: 0.01, Seed: 3}
	for _, c := range []*client.Client{cl, scl} {
		if err := c.Create("seen", req); err != nil {
			t.Fatalf("create: %v", err)
		}
		for b := 0; b < 8; b++ { // a batch lands whole on one shard: two a shard
			var batch bytes.Buffer
			for i := 0; i < 500; i++ {
				fmt.Fprintf(&batch, "user-%d\n", b*500+i)
			}
			if err := c.AddBatch("seen", batch.Bytes()); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}
	answers := map[any]int{}
	for _, item := range []string{"user-0", "user-1999", "user-3999", "user-4000", "absent", "user-9999"} {
		q := url.Values{"item": {item}}
		before := coord.ops.snapshot()
		got, err := cl.Query("seen", q)
		if err != nil {
			t.Fatalf("cluster query: %v", err)
		}
		after := coord.ops.snapshot()
		want, err := scl.Query("seen", q)
		if err != nil {
			t.Fatalf("single query: %v", err)
		}
		if got["contains"] != want["contains"] || got["shards_merged"] != float64(4) {
			t.Errorf("item %s: cluster contains=%v over %v shards, single server %v", item, got["contains"], got["shards_merged"], want["contains"])
		}
		answers[got["contains"]]++
		if b := after.GatherBytes - before.GatherBytes; b == 0 || b >= 1024 {
			t.Errorf("item %s: gathered %d bytes, want a projected read under 1 KB", item, b)
		}
		if after.ProjectedGathers != before.ProjectedGathers+1 {
			t.Errorf("item %s: projected_gathers +%d, want +1", item, after.ProjectedGathers-before.ProjectedGathers)
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Errorf("answers %v: want both a member and a non-member", answers)
	}
}

// A family without Project, asked a parameterised query, is served by
// exactly the old gather: one round trip of full envelopes.
func TestUnprojectedFamilyOneRoundTrip(t *testing.T) {
	coord, base := newFleet(t, 3).coordinator()
	cl := client.New(base)
	if err := cl.Create("top", server.CreateRequest{Type: "misragries", K: 16}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch("top", weightedBatch(false)); err != nil {
		t.Fatal(err)
	}
	before := coord.ops.snapshot()
	res, err := cl.Query("top", url.Values{"k": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res["entries"].([]any)); n != 3 {
		t.Errorf("k=3 returned %d entries", n)
	}
	after := coord.ops.snapshot()
	if after.ShardRequests != before.ShardRequests+3 || after.ProjectedGathers != before.ProjectedGathers || after.MixedRegathers != 0 {
		t.Errorf("misragries ?k=3: shard_requests +%d (want 3), projected %d, regathers %d",
			after.ShardRequests-before.ShardRequests, after.ProjectedGathers, after.MixedRegathers)
	}
}

func TestProjectedQueryShardFailure(t *testing.T) {
	f := newFleet(t, 3)
	shards := f.nodes
	coord, base := f.coordinator()
	cl := client.New(base)
	if err := cl.Create("flows", server.CreateRequest{Type: "countmin", Width: 4096, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	for range shards { // a batch lands on one shard: one each, so the dead one holds a share
		if err := cl.AddBatch("flows", weightedBatch(false)); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := cl.Query("flows", url.Values{"item": {"flow-1"}})
	if err != nil {
		t.Fatal(err)
	}
	dead := shards[2]
	f.Kill(2)

	code, doc := request(t, "GET", base+"/v1/sketch/flows/query?item=flow-1", "").doc(t)
	if code != http.StatusServiceUnavailable || !strings.Contains(fmt.Sprint(doc["failed_shards"]), dead.URL) {
		t.Fatalf("projected read with a dead shard: HTTP %d %v, want 503 naming %s", code, doc, dead.URL)
	}
	code, doc = request(t, "GET", base+"/v1/sketch/flows/query?item=flow-1&allow_partial=true", "").doc(t)
	if code != http.StatusOK || doc["partial"] != true || !strings.Contains(fmt.Sprint(doc["failed_shards"]), dead.URL) {
		t.Fatalf("allow_partial projected read: HTTP %d %v, want a labelled partial answer", code, doc)
	}
	if doc["shards_merged"] != float64(2) || doc["n"].(float64) >= whole["n"].(float64) {
		t.Errorf("partial answer %v does not reflect 2 of 3 shards (whole n %v)", doc, whole["n"])
	}
	if got := coord.ops.snapshot(); got.ProjectedGathers != 2 || got.PartialQueries != 1 {
		t.Errorf("projected_gathers %d, partial_queries %d: want 2, 1", got.ProjectedGathers, got.PartialQueries)
	}
}

// A projected read is a read: it draws one token of the shard's query
// budget exactly like /query and /snapshot, and an exhausted budget
// passes through the coordinator as 429 + Retry-After.
func TestProjectedQueryDrawsQueryBudget(t *testing.T) {
	const budget = 3
	f := newFleet(t, 0)
	for range 2 {
		s := server.New()
		s.SetQueryBudget(server.QueryBudget{Queries: budget, Interval: time.Hour})
		f.add(s, "")
	}
	coord, base := f.coordinator()
	cl := client.New(base)
	if err := cl.Create("flows", server.CreateRequest{Type: "countmin", Width: 1024, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch("flows", []byte("a\t2\nb\n")); err != nil {
		t.Fatal(err)
	}
	q := url.Values{"item": {"a"}}
	for i := 0; i < budget; i++ {
		if _, err := cl.Query("flows", q); err != nil {
			t.Fatalf("projected query %d under budget: %v", i, err)
		}
	}
	_, err := cl.Query("flows", q)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter <= 0 {
		t.Fatalf("projected query over budget: %v, want 429 with Retry-After", err)
	}
	if got := coord.ops.snapshot().ProjectedGathers; got != budget {
		t.Errorf("projected_gathers %d, want %d (one token per read, none free)", got, budget)
	}
}

// A fleet where one shard predates ?for= answers a mix of projection
// and full envelopes; the coordinator re-gathers once in full and
// counts it instead of failing the read.
func TestMixedFleetRegathersInFull(t *testing.T) {
	f := newFleet(t, 0)
	var urls []string
	for i := 0; i < 3; i++ {
		h := server.New().Handler()
		if i == 1 { // the old shard: it has never heard of for=
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				q := r.URL.Query()
				q.Del("for")
				r.URL.RawQuery = q.Encode()
				inner.ServeHTTP(w, r)
			})
		}
		urls = append(urls, f.serve(h))
	}
	coord, err := NewCoordinator(urls, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(f.serve(coord))
	scl := client.New(newFleet(t, 1).nodes[0].URL)
	for _, c := range []*client.Client{cl, scl} {
		if err := c.Create("flows", server.CreateRequest{Type: "countmin", Width: 2048, Depth: 4}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddBatch("flows", weightedBatch(false)); err != nil {
			t.Fatal(err)
		}
	}
	q := url.Values{"item": {"flow-4"}}
	got, err := cl.Query("flows", q)
	if err != nil {
		t.Fatalf("query over a mixed fleet: %v", err)
	}
	want, _ := scl.Query("flows", q)
	if got["estimate"] != want["estimate"] || got["n"] != want["n"] {
		t.Errorf("mixed fleet answers %v, single server %v", got, want)
	}
	if ops := coord.ops.snapshot(); ops.MixedRegathers != 1 || ops.ProjectedGathers != 0 {
		t.Errorf("mixed_regathers %d, projected_gathers %d: want 1, 0", ops.MixedRegathers, ops.ProjectedGathers)
	}
}

// Shards that disagree on seed cannot be merged — in either envelope
// form — and the coordinator says so with the status a single server's
// /merge uses, 409, not a 500.
func TestIncompatibleShardsConflict(t *testing.T) {
	f := newFleet(t, 2)
	shards := f.nodes
	_, base := f.coordinator()
	for i, sh := range shards {
		scl := client.New(sh.URL)
		if err := scl.Create("flows", server.CreateRequest{Type: "countmin", Width: 256, Depth: 4, Seed: uint64(10 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := scl.AddBatch("flows", []byte("a\nb\n")); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/v1/sketch/flows/query?item=a", "/v1/sketch/flows/query"} {
		code, doc := request(t, "GET", base+path, "").doc(t)
		if code != http.StatusConflict {
			t.Errorf("GET %s over differently seeded shards: HTTP %d %v, want 409", path, code, doc)
		}
	}
}
