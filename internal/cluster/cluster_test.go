package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

// A fleet is sketchd nodes, each served through server.Listen as
// sketchd serves it, and the handlers a test serves beside them (a
// coordinator, a proxy), all closed when the test ends. A node is in
// memory, or durable at a directory of its own that Restart recovers it
// from.
type fleet struct {
	t     *testing.T
	nodes []*node
}

// node is one sketchd of a fleet.
type node struct {
	*server.Server
	URL string
	dir string // where the node is durable; "" in memory
	hs  *server.HTTPServer
}

// newFleet starts n in-memory nodes.
func newFleet(t *testing.T, n int) *fleet {
	f := &fleet{t: t}
	for range n {
		f.add(server.New(), "")
	}
	return f
}

// add serves s as the fleet's next node, durable at dir unless dir is
// "": s recovers what dir holds first.
func (f *fleet) add(s *server.Server, dir string) *node {
	n := &node{Server: s, dir: dir}
	f.start(n, "127.0.0.1:0")
	f.nodes = append(f.nodes, n)
	return n
}

// start serves n on addr, recovering it from its directory first. A
// durable node fsyncs every batch it drains and snapshots on no timer,
// so that what a test reads after a kill is what was acknowledged.
func (f *fleet) start(n *node, addr string) {
	f.t.Helper()
	if s := n.Server; n.dir != "" {
		if _, err := s.EnableDurability(n.dir, durable.Options{FsyncInterval: 0, SnapshotInterval: -1}); err != nil {
			f.t.Fatal(err)
		}
		f.t.Cleanup(func() { s.CloseDurability() })
	}
	hs, url, err := server.Listen(addr, n.Handler())
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { hs.Close() })
	n.hs, n.URL = hs, url
}

// Kill closes node i and every connection to it, and drops its WAL as a
// kill -9 does: its port refuses connections from then on.
func (f *fleet) Kill(i int) {
	n := f.nodes[i]
	n.hs.Close()
	if err := n.KillDurability(); err != nil {
		f.t.Fatal(err)
	}
}

// Restart brings node i back on its address as a new process would:
// recovered from its directory, or empty if it has none.
func (f *fleet) Restart(i int) {
	n := f.nodes[i]
	n.Server = server.New()
	f.start(n, strings.TrimPrefix(n.URL, "http://"))
}

// urls are the nodes' base URLs.
func (f *fleet) urls() []string {
	urls := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		urls[i] = n.URL
	}
	return urls
}

// serve serves h through server.Listen until the test ends and returns
// its base URL.
func (f *fleet) serve(h http.Handler) string {
	f.t.Helper()
	hs, url, err := server.Listen("127.0.0.1:0", h)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { hs.Close() })
	return url
}

// coordinator serves a coordinator over the fleet's nodes and returns it
// and its base URL.
func (f *fleet) coordinator() (*Coordinator, string) {
	f.t.Helper()
	coord, err := NewCoordinator(f.urls(), Options{RetryBackoff: time.Millisecond})
	if err != nil {
		f.t.Fatal(err)
	}
	return coord, f.serve(coord)
}

func ingestN(t *testing.T, cl *client.Client, name string, n int) {
	t.Helper()
	var batch bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&batch, "item-%d\n", i)
		if batch.Len() > 1<<16 {
			if err := cl.AddBatch(name, batch.Bytes()); err != nil {
				t.Fatalf("AddBatch: %v", err)
			}
			batch.Reset()
		}
	}
	if batch.Len() > 0 {
		if err := cl.AddBatch(name, batch.Bytes()); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
}

// The tentpole correctness claim: a cluster-wide estimate equals what
// one server would produce within the family's merge bounds, because
// the global sketch IS the merge of the per-shard sketches.
func TestCoordinatorGlobalEstimate(t *testing.T) {
	_, base := newFleet(t, 4).coordinator()
	cl := client.New(base)

	if err := cl.Create("users", server.CreateRequest{Type: "hll", P: 14, Seed: 1}); err != nil {
		t.Fatalf("create: %v", err)
	}
	const n = 50_000
	ingestN(t, cl, "users", n)

	est, err := cl.Estimate("users", nil)
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	// p=14 HLL: σ ≈ 1.04/√2^14 ≈ 0.81%. Merged registers are exactly
	// the single-server registers, so 5σ covers it with huge margin.
	if relErr := math.Abs(est-n) / n; relErr > 5*0.0081 {
		t.Errorf("cluster estimate %.0f vs true %d: %.2f%% error", est, n, 100*relErr)
	}

	// The merged envelope must agree with the per-shard envelopes
	// merged by hand — scatter-gather adds routing, not new math.
	scl := client.New(newFleet(t, 1).nodes[0].URL)
	if err := scl.Create("users", server.CreateRequest{Type: "hll", P: 14, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, scl, "users", n)
	sEst, err := scl.Estimate("users", nil)
	if err != nil {
		t.Fatal(err)
	}
	if est != sEst {
		t.Errorf("cluster %.2f vs single-server %.2f: same items, same params — estimates must be identical", est, sEst)
	}
}

// A batch lands on one shard whole, weights and all, so point frequency
// estimates survive sharding exactly.
func TestCoordinatorWeightedRouting(t *testing.T) {
	f := newFleet(t, 3)
	_, base := f.coordinator()
	cl := client.New(base)

	if err := cl.Create("freq", server.CreateRequest{Type: "countmin", Width: 4096, Depth: 4, Seed: 7}); err != nil {
		t.Fatalf("create: %v", err)
	}
	var batch bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&batch, "hot\t3\n")
		fmt.Fprintf(&batch, "noise-%d\n", i)
	}
	if err := cl.AddBatch("freq", batch.Bytes()); err != nil {
		t.Fatalf("add: %v", err)
	}
	res, err := cl.Query("freq", url.Values{"item": {"hot"}})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if est := res["estimate"].(float64); est < 1500 {
		t.Errorf("hot estimate %.0f, want >= 1500 (weight split across shards?)", est)
	}
	if merged := res["shards_merged"].(float64); merged != 3 {
		t.Errorf("shards_merged %v, want 3", merged)
	}

	// All 500 "hot" updates of the one batch landed on exactly one shard.
	holders := 0
	for _, sh := range f.nodes {
		scl := client.New(sh.URL)
		r, err := scl.Query("freq", url.Values{"item": {"hot"}})
		if err != nil {
			t.Fatal(err)
		}
		if r["estimate"].(float64) >= 1500 {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("%d shards hold item 'hot', want exactly 1", holders)
	}
}

// A shard dying mid-operation must never produce a silently wrong
// merge: reads fail with the shard named unless the caller opts into a
// labeled partial answer, and ingest fails for the batches sent to it,
// which are then applied nowhere.
func TestCoordinatorPartialFailure(t *testing.T) {
	f := newFleet(t, 0)
	for range 3 {
		f.add(server.New(), t.TempDir())
	}
	_, base := f.coordinator()
	cl := client.New(base)

	if err := cl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const users = 60_000 // some ten batches: every shard holds a share
	ingestN(t, cl, "users", users)
	if err := cl.Create("hits", server.CreateRequest{Type: "countmin", Width: 1024, Depth: 4}); err != nil {
		t.Fatal(err)
	}

	dead := f.nodes[1]
	f.Kill(1)

	// Default read: 503, failed shard named in the structured error.
	code, doc := request(t, "GET", base+"/v1/sketch/users/query", "").doc(t)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query with dead shard: HTTP %d, want 503 (%v)", code, doc)
	}
	if !strings.Contains(fmt.Sprint(doc["failed_shards"]), dead.URL) {
		t.Errorf("503 does not name dead shard %s: %v", dead.URL, doc)
	}

	// Opt-in degraded read: 200, labeled partial, still a sane
	// estimate over the ~2/3 of the batches the survivors took.
	code, doc = request(t, "GET", base+"/v1/sketch/users/query?allow_partial=true", "").doc(t)
	if code != http.StatusOK {
		t.Fatalf("allow_partial query: HTTP %d (%v)", code, doc)
	}
	if doc["partial"] != true {
		t.Errorf("degraded answer not labeled partial: %v", doc)
	}
	if !strings.Contains(fmt.Sprint(doc["failed_shards"]), dead.URL) {
		t.Errorf("partial answer does not name dead shard: %v", doc)
	}
	est := doc["estimate"].(float64)
	if est < users/3.0 || est > users*0.9 {
		t.Errorf("partial estimate %.0f implausible for 2/3 of %d keys", est, users)
	}

	// Ingest fails loudly too, and only where it must: exactly the
	// batches whose turn is the dead shard answer 503 naming it (after
	// the configured retries), the rest are acknowledged, and a refused
	// batch is on no shard — once the shard is back, re-sending what was
	// refused leaves n equal to the acknowledged weight exactly.
	const batches, weight = 9, 3 * 50
	batch := bytes.Repeat([]byte("checkout\t3\n"), 50)
	refused := 0
	for i := 0; i < batches; i++ {
		err := cl.AddBatch("hits", batch)
		var se *client.StatusError
		switch {
		case err == nil:
		case errors.As(err, &se) && se.Code == http.StatusServiceUnavailable && strings.Contains(err.Error(), dead.URL):
			refused++
		default:
			t.Fatalf("batch %d: %v, want an ack or a 503 naming %s", i, err, dead.URL)
		}
	}
	if refused != batches/3 {
		t.Errorf("%d of %d batches refused with 1 of 3 shards dead, want exactly every third", refused, batches)
	}
	f.Restart(1)
	hits := func() float64 {
		res, err := cl.Query("hits", nil)
		if err != nil {
			t.Fatal(err)
		}
		return res["n"].(float64)
	}
	if got := hits(); got != float64((batches-refused)*weight) {
		t.Errorf("n %v after %d acknowledged batches of weight %d: a refused batch was applied somewhere", got, batches-refused, weight)
	}
	for i := 0; i < refused; i++ {
		if err := cl.AddBatch("hits", batch); err != nil {
			t.Fatalf("re-sending a refused batch: %v", err)
		}
	}
	if got := hits(); got != batches*weight {
		t.Errorf("n %v after re-sending the refused batches, want %d", got, batches*weight)
	}
}

// A shard that fails transiently is retried with backoff; the batch
// lands without the client seeing the blip.
func TestCoordinatorIngestRetry(t *testing.T) {
	f := newFleet(t, 0)
	real := server.New().Handler()
	var failuresLeft atomic.Int32
	failuresLeft.Store(2)
	flaky := f.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/add") && failuresLeft.Add(-1) >= 0 {
			http.Error(w, `{"error":"synthetic overload"}`, http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))

	coord, err := NewCoordinator([]string{flaky}, Options{Retries: 3, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(f.serve(coord))
	if err := cl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddBatch("users", []byte("a\nb\nc\n")); err != nil {
		t.Fatalf("ingest through flaky shard: %v", err)
	}
	if got := coord.ops.Retries.Load(); got != 2 {
		t.Errorf("retries counter %d, want 2", got)
	}

	// A 4xx is not retried: same request, same answer.
	if err := cl.AddBatch("no-such-sketch", []byte("a\n")); err == nil {
		t.Error("add to missing sketch succeeded")
	}
	var se *client.StatusError
	if err := cl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err == nil {
		t.Error("duplicate create succeeded")
	} else if !asStatusError(err, &se) || se.Code != http.StatusConflict {
		t.Errorf("duplicate create: %v, want 409 passed through", err)
	}
}

func asStatusError(err error, target **client.StatusError) bool {
	se, ok := err.(*client.StatusError)
	if ok {
		*target = se
	}
	return ok
}

// The coordinator serves the same API surface a single sketchd does:
// a broadcast delete and per-shard status roll-up complete the story.
func TestCoordinatorAdminSurface(t *testing.T) {
	coord, base := newFleet(t, 3).coordinator()
	cl := client.New(base)

	if err := cl.Create("tmp", server.CreateRequest{Type: "hll", P: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	st := coord.Status()
	if st.Healthy != 3 {
		t.Errorf("healthy %d, want 3", st.Healthy)
	}
	for _, row := range st.Shards {
		if !row.OK || row.Status.Sketches != 1 {
			t.Errorf("shard %s: ok=%v sketches=%d, want created everywhere", row.Shard, row.OK, row.Status.Sketches)
		}
	}
	if err := cl.Delete("tmp"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for _, row := range coord.Status().Shards {
		if row.Status.Sketches != 0 {
			t.Errorf("shard %s still holds %d sketches after cluster delete", row.Shard, row.Status.Sketches)
		}
	}

	code, doc := request(t, "GET", base+"/v1/cluster/status", "").doc(t)
	if code != http.StatusOK || doc["healthy"].(float64) != 3 {
		t.Errorf("GET /v1/cluster/status: %d %v", code, doc)
	}
}

// A status poll names a dead shard in its row and is one plain call per
// shard: no retries, nothing on the shard-work counters.
func TestCoordinatorStatusNamesDeadShard(t *testing.T) {
	f := newFleet(t, 3)
	coord, _ := f.coordinator()
	f.Kill(1)
	st := coord.Status()
	if st.Healthy != 2 {
		t.Errorf("healthy %d, want 2", st.Healthy)
	}
	for i, row := range st.Shards {
		if dead := i == 1; row.OK == dead || (row.Error != "") != dead || (row.Status == nil) != dead || row.Shard != coord.shards[i] {
			t.Errorf("row %d (dead=%v): %+v", i, dead, row)
		}
	}
	if ops := st.Coordinator; ops.ShardRequests != 0 || ops.Retries != 0 || ops.ShardFailures != 0 {
		t.Errorf("status poll counted as shard work: %+v", ops)
	}
}

// errBody fails the read after a few bytes, as a client that drops the
// connection mid-body does.
type errBody struct{ sent bool }

func (b *errBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, errors.New("connection reset")
	}
	b.sent = true
	return copy(p, "k-1\n"), nil
}

// A body over the cap is the client's 413; any other failure to read it
// is a 400, as on a single sketchd.
func TestCoordinatorReadBodyStatus(t *testing.T) {
	coord, _ := newFleet(t, 1).coordinator()
	for name, tc := range map[string]struct {
		body func() io.Reader
		want int
	}{
		"over the cap": {func() io.Reader { return bytes.NewReader(make([]byte, server.MaxBodyBytes+1)) }, http.StatusRequestEntityTooLarge},
		"read error":   {func() io.Reader { return &errBody{} }, http.StatusBadRequest},
	} {
		for _, path := range []string{"/v1/sketch/s", "/v1/sketch/s/add"} {
			rec := httptest.NewRecorder()
			coord.ServeHTTP(rec, httptest.NewRequest("POST", path, tc.body()))
			if rec.Code != tc.want {
				t.Errorf("%s on %s: %d, want %d (%s)", name, path, rec.Code, tc.want, rec.Body)
			}
		}
	}
}

// The merged snapshot endpoint emits a plain GSK1 envelope — feeding
// it back through a single server's merge endpoint must work.
func TestCoordinatorSnapshotRoundTrip(t *testing.T) {
	_, base := newFleet(t, 3).coordinator()
	cl := client.New(base)
	if err := cl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, cl, "users", 5_000)
	env, err := cl.Snapshot("users")
	if err != nil {
		t.Fatalf("cluster snapshot: %v", err)
	}

	scl := client.New(newFleet(t, 1).nodes[0].URL)
	if err := scl.Create("import", server.CreateRequest{Type: "hll", P: 12, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := scl.Merge("import", env); err != nil {
		t.Fatalf("merge cluster envelope into single server: %v", err)
	}
	est, err := scl.Estimate("import", nil)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(est-5000) / 5000; relErr > 0.05 {
		t.Errorf("imported estimate %.0f, want ~5000", est)
	}
}

// TestCoordinator429Passthrough: when every shard refuses a read with
// a query-budget 429, the coordinator is not degraded — the workload
// is over budget. The response must be 429 with the largest shard
// Retry-After, not a 503 that invites failover.
func TestCoordinator429Passthrough(t *testing.T) {
	const budget = 2
	f := newFleet(t, 0)
	for range 2 {
		s := server.New()
		s.SetQueryBudget(server.QueryBudget{Queries: budget, Interval: time.Hour})
		f.add(s, "")
	}
	_, base := f.coordinator()
	cl := client.New(base)

	if err := cl.Create("metered", server.CreateRequest{Type: "hll", P: 10}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cl.Add("metered", []string{"a", "b", "c"}); err != nil {
		t.Fatalf("add: %v", err)
	}

	// Each coordinator read costs one snapshot token on every shard.
	for i := 0; i < budget; i++ {
		if _, err := cl.Estimate("metered", nil); err != nil {
			t.Fatalf("query %d under budget: %v", i, err)
		}
	}
	_, err := cl.Estimate("metered", nil)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("over budget via coordinator: %v, want StatusError 429", err)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("passthrough lost Retry-After: %+v", se)
	}

	// Ingest keeps flowing through the coordinator while reads are
	// refused — the guard must never become a write outage.
	if err := cl.Add("metered", []string{"d", "e"}); err != nil {
		t.Fatalf("add while throttled: %v", err)
	}

	// One shard throttled + one shard down is availability loss, not
	// budget exhaustion: the coordinator must answer 503, not 429.
	f.Kill(1)
	_, err = cl.Estimate("metered", nil)
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("mixed 429 + down shard: %v, want StatusError 503", err)
	}
}

// The wait between two attempts on a failing shard holds no in-flight
// slot: with one slot in all, a call to a healthy shard goes through
// while the failing shard's call sits in its back-off.
func TestRetryBackoffReleasesItsSlot(t *testing.T) {
	coord, err := NewCoordinator([]string{"a:1", "b:1"}, Options{maxInflight: 1, Retries: 1, RetryBackoff: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var tries atomic.Int32
	first, down := make(chan struct{}), make(chan error, 1)
	go func() {
		down <- coord.callShard(func() error {
			if tries.Add(1) == 1 {
				close(first)
			}
			return &client.StatusError{Code: 503, Msg: "down"}
		})
	}()
	<-first
	if err := coord.callShard(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := tries.Load(); n != 1 {
		t.Errorf("the healthy call returned after attempt %d on the failing shard: it waited out the back-off", n)
	}
	var se *client.StatusError
	if err := <-down; !errors.As(err, &se) || se.Code != 503 || tries.Load() != 2 {
		t.Errorf("failing shard: %v after %d attempts, want the 503 after 2", err, tries.Load())
	}
}

// The coordinator's merged /snapshot declares its length, as a shard's
// does: a > 1 MB envelope would otherwise go out chunked, and the
// reader's buffer would grow by doubling. With the header the client
// sizes its buffer once, and the bytes are the merge of the shards'.
func TestCoordinatorSnapshotDeclaresLength(t *testing.T) {
	coord, base := newFleet(t, 3).coordinator()
	cl := client.New(base)
	if err := cl.Create("cm", server.CreateRequest{Type: "countmin", Width: 65536, Depth: 4}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, cl, "cm", 5_000)

	resp, err := http.Get(base + "/v1/sketch/cm/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) < 1<<20 {
		t.Fatalf("merged snapshot: %d bytes, %v", len(body), err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("merged snapshot of %d bytes: Content-Length %d, Transfer-Encoding %v", len(body), resp.ContentLength, resp.TransferEncoding)
	}
	envs, fails := coord.Gather("cm")
	if len(fails) > 0 {
		t.Fatal(fails)
	}
	merged, _, err := MergeEnvelopes(envs)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := registry.Marshal(merged); !bytes.Equal(body, want) {
		t.Fatal("merged snapshot is not the merge of the shard snapshots")
	}

	got, err := cl.SnapshotAppend("cm", "", make([]byte, 0, 512))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("SnapshotAppend through the coordinator: %d bytes, %v", len(got), err)
	}
	if cap(got) != len(body)+1 {
		t.Errorf("buffer grew to cap %d for a declared %d bytes: want one allocation of len+1", cap(got), len(body))
	}
	// A second read lands in the coordinator's pooled response buffer;
	// the reply must not change for it.
	again, err := cl.SnapshotAppend("cm", "", got)
	if err != nil || !bytes.Equal(again, body) || &again[0] != &got[0] {
		t.Errorf("second read: %d bytes, reused %v, err %v", len(again), len(again) > 0 && &again[0] == &got[0], err)
	}
}
