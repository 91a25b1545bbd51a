package benchrun

import (
	"net"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Cluster-layer entries: the coordinator's two hot paths measured over
// real loopback HTTP shards, so a routing or fan-out regression shows
// up in benchdiff next to the sketch kernels it sits on.

// clusterHarness stands up n in-process shards plus a coordinator and
// returns the coordinator with a teardown.
func clusterHarness(b *testing.B, n int) (*cluster.Coordinator, func()) {
	b.Helper()
	var stops []func()
	urls := make([]string, n)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		hs := &http.Server{Handler: server.New().Handler()}
		go hs.Serve(ln)
		urls[i] = "http://" + ln.Addr().String()
		stops = append(stops, func() { hs.Close() })
	}
	coord, err := cluster.NewCoordinator(urls, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return coord, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// clusterFanOutAdd measures coordinator ingest end to end: ring-route
// a 1024-line batch into per-shard sub-batches and POST them to 4
// shards in parallel. Reported per line.
func clusterFanOutAdd(b *testing.B) {
	coord, stop := clusterHarness(b, 4)
	defer stop()
	const lines = 1024
	var body []byte
	for i := 0; i < lines; i++ {
		body = append(body, "item"+strconv.Itoa(i)+"\n"...)
	}
	for _, u := range coord.Shards() {
		if err := client.New(u).Create("bench", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(body) / lines))
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		if _, fails := coord.FanOutAdd("bench", body); len(fails) > 0 {
			b.Fatalf("fan-out failed: %v", fails)
		}
	}
}

// clusterScatterGather measures a global read end to end: snapshot all
// 4 shards in parallel, decode the envelopes, tree-merge them through
// mergex, and answer the query. Reported per global query.
func clusterScatterGather(b *testing.B) {
	coord, stop := clusterHarness(b, 4)
	defer stop()
	const lines = 4096
	var body []byte
	for i := 0; i < lines; i++ {
		body = append(body, "item"+strconv.Itoa(i)+"\n"...)
	}
	for _, u := range coord.Shards() {
		if err := client.New(u).Create("bench", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if _, fails := coord.FanOutAdd("bench", body); len(fails) > 0 {
		b.Fatalf("seed ingest failed: %v", fails)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		envs, fails := coord.Gather("bench")
		if len(fails) > 0 {
			b.Fatalf("gather failed: %v", fails)
		}
		if _, _, err := cluster.MergeEnvelopes(envs); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterSlimSnapshot measures the wire-efficient global read end to
// end over loopback HTTP: the coordinator scatter-gathers 4 shards'
// SLIM sfsketch envelopes through its pooled read buffers, tree-merges
// them, and serves the merged envelope. The companion to
// clusterScatterGather — the delta between the two is the slim-wire
// saving plus the pooled-buffer path.
func clusterSlimSnapshot(b *testing.B) {
	coord, stop := clusterHarness(b, 4)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: coord}
	go hs.Serve(ln)
	defer hs.Close()

	const lines = 4096
	var body []byte
	for i := 0; i < lines; i++ {
		body = append(body, "item"+strconv.Itoa(i)+"\n"...)
	}
	for _, u := range coord.Shards() {
		if err := client.New(u).Create("bench", server.CreateRequest{Type: "sfsketch", Width: 512, Depth: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if _, fails := coord.FanOutAdd("bench", body); len(fails) > 0 {
		b.Fatalf("seed ingest failed: %v", fails)
	}
	cl := client.New("http://" + ln.Addr().String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.SnapshotWire("bench", "slim"); err != nil {
			b.Fatal(err)
		}
	}
}

// ringRoute measures the pure routing lookup over a ring of n shards x
// 128 virtual nodes: one XXHash64 plus the prefix-index lookup.
// ClusterRingRoute is the benchmark's 4-shard ring, one index bucket in
// eight holding a point; RingLocate the largest ring the package
// documents, 16 shards, every other bucket holding one.
func ringRoute(n int) func(b *testing.B) {
	return func(b *testing.B) {
		shards := make([]string, n)
		for i := range shards {
			shards[i] = "shard-" + strconv.Itoa(i)
		}
		ring, err := cluster.NewRing(shards, 0)
		if err != nil {
			b.Fatal(err)
		}
		keys := ByteKeys()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ring.Shard(keys[i&(keyCount-1)])
		}
	}
}
