package server_test

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/quantile"
	"repro/internal/server"
	"repro/internal/server/client"
)

func TestHLLLifecycle(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	if err := cl.Create("users", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
		t.Fatalf("create: %v", err)
	}
	items := make([]string, 0, 20000)
	for i := 0; i < 20000; i++ {
		items = append(items, "user-"+strconv.Itoa(i))
	}
	for i := 0; i < len(items); i += 1000 {
		if err := cl.Add("users", items[i:i+1000]); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	est, err := cl.Estimate("users", nil)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if relErr := core.RelErr(est, 20000); relErr > 0.1 {
		t.Errorf("estimate %.1f, rel err %.3f", est, relErr)
	}

	// Merge a peer sketch holding a disjoint set; union must grow. The
	// peer shares p and seed, so its items hash identically to
	// server-side adds.
	peer := cardinality.NewHLL(12, 1)
	for i := 20000; i < 40000; i++ {
		peer.Add([]byte("user-" + strconv.Itoa(i)))
	}
	env, err := peer.MarshalBinary()
	if err != nil {
		t.Fatalf("peer marshal: %v", err)
	}
	if err := cl.Merge("users", env); err != nil {
		t.Fatalf("merge: %v", err)
	}
	est, err = cl.Estimate("users", nil)
	if err != nil {
		t.Fatalf("query after merge: %v", err)
	}
	if relErr := core.RelErr(est, 40000); relErr > 0.1 {
		t.Errorf("post-merge estimate %.1f, rel err %.3f", est, relErr)
	}

	// Snapshot must round-trip into a plain HLL with the same estimate.
	snap, err := cl.Snapshot("users")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var back cardinality.HLL
	if err := back.UnmarshalBinary(snap); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}
	if back.Estimate() != est {
		t.Errorf("snapshot estimate %.1f != served %.1f", back.Estimate(), est)
	}
}

func TestCountMinLifecycle(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	if err := cl.Create("freq", server.CreateRequest{Type: "countmin", Width: 2048, Depth: 4, Seed: 7}); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Weighted and unweighted lines.
	batch := strings.Repeat("apple\n", 10) + "banana\t90\n"
	if err := cl.AddBatch("freq", []byte(batch)); err != nil {
		t.Fatalf("add: %v", err)
	}
	res, err := cl.Query("freq", url.Values{"item": {"banana"}})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if est := res["estimate"].(float64); est < 90 {
		t.Errorf("banana estimate %v < 90", est)
	}

	// Merge a hash-compatible plain CountMin.
	peer := frequency.NewCountMin(2048, 4, 7)
	for i := 0; i < 25; i++ {
		peer.AddString("apple")
	}
	env, _ := peer.MarshalBinary()
	if err := cl.Merge("freq", env); err != nil {
		t.Fatalf("merge: %v", err)
	}
	res, _ = cl.Query("freq", url.Values{"item": {"apple"}})
	if est := res["estimate"].(float64); est < 35 {
		t.Errorf("apple estimate %v < 35 after merge", est)
	}

	// Incompatible shape must 409.
	bad := frequency.NewCountMin(1024, 4, 7)
	env, _ = bad.MarshalBinary()
	if err := cl.Merge("freq", env); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("incompatible merge: got %v, want HTTP 409", err)
	}
	// A bad weight line must reject the batch.
	if err := cl.AddBatch("freq", []byte("pear\tnotanumber\n")); err == nil {
		t.Error("bad weight accepted")
	}
}

func TestBloomKLLTheta(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	// Bloom.
	if err := cl.Create("seen", server.CreateRequest{Type: "bloom", NItems: 1000, FPR: 0.01, Seed: 3}); err != nil {
		t.Fatalf("create bloom: %v", err)
	}
	if err := cl.Add("seen", []string{"alpha", "beta"}); err != nil {
		t.Fatalf("add bloom: %v", err)
	}
	res, err := cl.Query("seen", url.Values{"item": {"alpha"}})
	if err != nil || res["contains"] != true {
		t.Errorf("bloom contains alpha: res=%v err=%v", res, err)
	}
	res, _ = cl.Query("seen", url.Values{"item": {"never-added"}})
	if res["contains"] != false {
		t.Errorf("bloom contains never-added: %v", res)
	}

	// KLL.
	if err := cl.Create("lat", server.CreateRequest{Type: "kll", K: 200, Seed: 4}); err != nil {
		t.Fatalf("create kll: %v", err)
	}
	vals := make([]string, 0, 10000)
	for i := 0; i < 10000; i++ {
		vals = append(vals, strconv.Itoa(i))
	}
	if err := cl.Add("lat", vals); err != nil {
		t.Fatalf("add kll: %v", err)
	}
	res, err = cl.Query("lat", url.Values{"q": {"0.9"}})
	if err != nil {
		t.Fatalf("query kll: %v", err)
	}
	if q := res["quantile"].(float64); q < 8000 || q > 10000 {
		t.Errorf("p90 = %v, want ~9000", q)
	}
	// Non-numeric lines must reject the batch.
	if err := cl.Add("lat", []string{"not-a-float"}); err == nil {
		t.Error("kll accepted a non-numeric item")
	}

	// Theta, including a merge.
	if err := cl.Create("set", server.CreateRequest{Type: "theta", K: 1024, Seed: 5}); err != nil {
		t.Fatalf("create theta: %v", err)
	}
	if err := cl.Add("set", vals[:5000]); err != nil {
		t.Fatalf("add theta: %v", err)
	}
	peer := cardinality.NewTheta(1024, 5)
	for i := 5000; i < 10000; i++ {
		peer.AddString(strconv.Itoa(i))
	}
	env, _ := peer.MarshalBinary()
	if err := cl.Merge("set", env); err != nil {
		t.Fatalf("merge theta: %v", err)
	}
	est, err := cl.Estimate("set", nil)
	if err != nil {
		t.Fatalf("query theta: %v", err)
	}
	if relErr := core.RelErr(est, 10000); relErr > 0.1 {
		t.Errorf("theta estimate %.1f, rel err %.3f", est, relErr)
	}

	// KLL merge via snapshot: a second KLL server-side merge path.
	other := quantile.NewKLL(200, 4)
	for i := 0; i < 1000; i++ {
		other.Add(float64(i))
	}
	env, _ = other.MarshalBinary()
	if err := cl.Merge("lat", env); err != nil {
		t.Fatalf("merge kll: %v", err)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts := server.ServeLoop(t, server.New().Handler(), nil)
	cl := client.New(ts.URL)

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Unknown sketch: 404 on every per-name op.
	if code := post("/v1/sketch/ghost/add", "x\n"); code != http.StatusNotFound {
		t.Errorf("add to missing sketch: %d", code)
	}
	// Bad create bodies: 400.
	if code := post("/v1/sketch/x", `{"type":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown type: %d", code)
	}
	if code := post("/v1/sketch/x", `not json`); code != http.StatusBadRequest {
		t.Errorf("non-JSON create: %d", code)
	}
	if code := post("/v1/sketch/x", `{"type":"hll","p":3}`); code != http.StatusBadRequest {
		t.Errorf("bad hll precision: %d", code)
	}
	// Duplicate create: 409.
	if err := cl.Create("dup", server.CreateRequest{Type: "hll"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if code := post("/v1/sketch/dup", `{"type":"hll"}`); code != http.StatusConflict {
		t.Errorf("duplicate create: %d", code)
	}
	// Corrupt merge envelope: 400 (ErrCorrupt, not a conflict).
	if code := post("/v1/sketch/dup/merge", "GSK1 garbage"); code != http.StatusBadRequest {
		t.Errorf("corrupt merge: %d", code)
	}
	// Cross-type merge (theta envelope into an hll sketch): the payload
	// is well-formed and self-describing, so it's an incompatibility
	// conflict (409), not a malformed request.
	th := cardinality.NewTheta(64, 1)
	th.AddString("x")
	env, _ := th.MarshalBinary()
	resp, err := http.Post(ts.URL+"/v1/sketch/dup/merge", "application/octet-stream", strings.NewReader(string(env)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cross-type merge: %d, want 409", resp.StatusCode)
	}
	// Delete then 404.
	if err := cl.Delete("dup"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if code := post("/v1/sketch/dup/add", "x\n"); code != http.StatusNotFound {
		t.Errorf("add after delete: %d", code)
	}
}

func TestStatszCounters(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	if err := cl.Create("s", server.CreateRequest{Type: "hll"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add("s", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Estimate("s", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Snapshot("s"); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Statsz()
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if stats.Ops.Adds != 3 || stats.Ops.AddBatches != 1 {
		t.Errorf("ops = %+v, want 3 adds in 1 batch", stats.Ops)
	}
	if stats.Ops.Queries != 1 || stats.Ops.Snapshots != 1 {
		t.Errorf("ops = %+v, want 1 query and 1 snapshot", stats.Ops)
	}
	if stats.Ops.BatchBytes == 0 {
		t.Error("batch bytes not counted")
	}
	if len(stats.Sketches) != 1 || stats.Sketches[0].Name != "s" ||
		stats.Sketches[0].Adds != 3 || stats.Sketches[0].Bytes == 0 {
		t.Errorf("sketch stats = %+v", stats.Sketches)
	}
}

// TestConcurrentAddMergeSnapshot is the -race interleaving test the CI
// race job exists for: writers batch-ingest, a merger posts peer
// envelopes, and readers pull snapshots, estimates and statsz, all
// against one sketch, all at once.
func TestConcurrentAddMergeSnapshot(t *testing.T) {
	cl := client.New(server.ServeLoop(t, server.New().Handler(), nil).URL)
	if err := cl.Create("race", server.CreateRequest{Type: "hll", P: 12, Seed: 1, Params: map[string]float64{"shards": 4}}); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const batches = 30
	const batchSize = 200
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			items := make([]string, batchSize)
			for b := 0; b < batches; b++ {
				for i := range items {
					items[i] = strconv.Itoa(w<<24 | b<<12 | i)
				}
				if err := cl.Add("race", items); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			peer := cardinality.NewHLL(12, 1)
			for i := 0; i < 500; i++ {
				peer.Add([]byte("merge-" + strconv.Itoa(b<<16|i)))
			}
			env, _ := peer.MarshalBinary()
			if err := cl.Merge("race", env); err != nil {
				t.Errorf("merger: %v", err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			if _, err := cl.Estimate("race", nil); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			snap, err := cl.Snapshot("race")
			if err != nil {
				t.Errorf("snapshotter: %v", err)
				return
			}
			var h cardinality.HLL
			if err := h.UnmarshalBinary(snap); err != nil {
				t.Errorf("snapshot decode: %v", err)
				return
			}
			if _, err := cl.Statsz(); err != nil {
				t.Errorf("statsz: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	// After the dust settles the union must cover all distinct items.
	want := float64(writers*batches*batchSize + batches*500)
	est, err := cl.Estimate("race", nil)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := core.RelErr(est, want); relErr > 0.1 {
		t.Errorf("final estimate %.1f vs %d distinct, rel err %.3f", est, int(want), relErr)
	}
}

func TestSplitBatch(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"\n\n\n", nil},
		{"a", []string{"a"}},
		{"a\n", []string{"a"}},
		{"a\nb\nc", []string{"a", "b", "c"}},
		{"a\r\nb\r\n", []string{"a", "b"}},
		{"a\n\nb", []string{"a", "b"}},
	}
	for _, c := range cases {
		got := server.SplitBatch([]byte(c.in))
		if len(got) != len(c.want) {
			t.Errorf("SplitBatch(%q) = %d items, want %d", c.in, len(got), len(c.want))
			continue
		}
		for i := range got {
			if string(got[i]) != c.want[i] {
				t.Errorf("SplitBatch(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}
