package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/server/client"
)

func init() {
	register("E30", "sharded cluster: scatter-gather accuracy, projected point query, replication lag", runE30)
}

// runE30 checks the cluster layer end to end, all in-process over
// loopback HTTP. Its output holds no clock reading (cluster_ingest in
// benchmark/ times coordinator ingest):
//
//  1. scatter-gather accuracy — concurrent batched ingest through a
//     coordinator over 1, 2 and 4 shards, the cluster-wide estimate
//     against ground truth and against a single server fed the
//     identical stream. Merged HLL registers are exactly the
//     single-server registers, so the two estimates must agree to the
//     bit;
//  2. projected point query — a gathered Count-Min / Count-Sketch
//     point query against a single server fed the identical stream
//     (bit-identical, or the bar is not met) and the bytes it moves,
//     next to the full envelopes the same read used to gather;
//  3. replication lag — a durable shard shipping sealed WAL segments
//     to a follower: the LSN gap before a sync round, and none after.
func runE30() *Result {
	const itemsPerClient = 1 << 16
	const clients = 4
	const batch = 1000

	accuracy := core.NewTable("cluster-wide estimate vs ground truth",
		"shards", "true_distinct", "estimate", "rel_err_pct", "matches_single_server")
	const claim = "the gathered HLL estimate equals a single server's at 1, 2 and 4 shards"
	clusterBar := bar(true, claim)
	for _, nShards := range []int{1, 2, 4} {
		est, sEst, trueN, err := runClusterConfig(nShards, clients, batch, itemsPerClient)
		if err != nil {
			clusterBar = bar(false, "%s (%d shards failed: %v)", claim, nShards, err)
			break
		}
		clusterBar.Met = clusterBar.Met && est == sEst
		accuracy.AddRow(nShards, trueN, est, 100*math.Abs(est-float64(trueN))/float64(trueN), est == sEst)
	}

	projTbl, projBar := runProjectedPointQuery()
	lagTbl, lagBar := runReplicationLag()

	return &Result{
		ID:     "E30",
		Title:  "sharded cluster: scatter-gather accuracy, projected point query, replication lag",
		Claim:  "mergeable summaries make sharding trivial: route anywhere, merge everywhere — per-node sketches compose into the global answer with no accuracy loss (§4 pathways to impact)",
		Tables: []*core.Table{accuracy, projTbl, lagTbl},
		Bars:   []Bar{clusterBar, projBar, lagBar},
	}
}

// runClusterConfig stands up nShards in-process sketchds plus a
// coordinator, drives the loadgen through the coordinator and the same
// items into a single server, and returns both estimates and the
// number of items the coordinator acknowledged.
func runClusterConfig(nShards, clients, batch, itemsPerClient int) (est, sEst float64, trueN int, err error) {
	_, coordBase, stop, err := startFleet(nShards)
	if err != nil {
		return 0, 0, 0, err
	}
	defer stop()
	hs, single, err := server.Listen("127.0.0.1:0", server.New().Handler())
	if err != nil {
		return 0, 0, 0, err
	}
	defer hs.Close()

	ingest := func(base string) (est float64, acked int, err error) {
		cl := client.New(base)
		if err := cl.Create("e30", server.CreateRequest{Type: "hll", P: 14, Seed: 1}); err != nil {
			return 0, 0, err
		}
		if acked, err = driveIngest(base, "e30", clients, batch, itemsPerClient); err != nil {
			return 0, acked, err
		}
		est, err = cl.Estimate("e30", nil)
		return est, acked, err
	}
	if est, trueN, err = ingest(coordBase); err != nil {
		return 0, 0, 0, err
	}
	sEst, _, err = ingest(single)
	return est, sEst, trueN, err
}

// driveIngest runs `clients` goroutines, each sending itemsPerClient
// items unique across clients in batches of `batch` lines. It returns
// how many items the server acknowledged and the first error: a client
// stops at its first failed batch.
func driveIngest(base, name string, clients, batch, itemsPerClient int) (acked int, err error) {
	ackedBy := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base)
			buf := make([]byte, 0, batch*16)
			for sent := 0; sent < itemsPerClient; {
				buf = buf[:0]
				n := min(batch, itemsPerClient-sent)
				for i := 0; i < n; i++ {
					buf = strconv.AppendInt(buf, int64(c)<<32|int64(sent+i), 10)
					buf = append(buf, '\n')
				}
				if errs[c] = cl.AddBatch(name, buf); errs[c] != nil {
					return
				}
				sent += n
				ackedBy[c] = sent
			}
		}(c)
	}
	wg.Wait()
	for c := range ackedBy {
		acked += ackedBy[c]
		if err == nil {
			err = errs[c]
		}
	}
	return acked, err
}

// runProjectedPointQuery asks a 4-shard coordinator and a single server
// fed the same weighted stream the same point queries. The shards answer
// the coordinator's gather with projections (the cells each query
// reads), so the answers must match exactly while the bytes gathered
// per query fall from four tables to four handfuls of counters.
func runProjectedPointQuery() (*core.Table, Bar) {
	const claim = "projected point queries bit-identical to a single server at < 1 KB gathered per query"
	tbl := core.NewTable("projected point query, 4 shards: bit-identical, bytes per query",
		"family", "queries", "matches_single_server", "bytes_per_query", "full_gather_bytes", "reduction")
	fail := func(err error) (*core.Table, Bar) {
		return tbl, bar(false, "%s (run failed: %v)", claim, err)
	}
	const queries = 64
	shards, coordBase, stop, err := startFleet(4)
	if err != nil {
		return fail(err)
	}
	defer stop()
	hs, single, err := server.Listen("127.0.0.1:0", server.New().Handler())
	if err != nil {
		return fail(err)
	}
	defer hs.Close()
	ccl, scl := client.New(coordBase), client.New(single)

	var batch []byte
	for i := 0; i < 20000; i++ {
		batch = fmt.Appendf(batch, "flow-%d\t%d\n", (i*i)%1021, 1+i%5)
	}
	allMet := true
	for _, req := range []server.CreateRequest{
		{Type: "countmin", Width: 1 << 16, Depth: 4},
		{Type: "countsketch", Width: 1 << 16, Depth: 5},
	} {
		for _, cl := range []*client.Client{ccl, scl} {
			if err := cl.Create(req.Type, req); err != nil {
				return fail(err)
			}
			if err := cl.AddBatch(req.Type, batch); err != nil {
				return fail(err)
			}
		}
		full := 0 // what the same read gathered before: every shard's envelope
		for _, u := range shards {
			env, err := client.New(u).Snapshot(req.Type)
			if err != nil {
				return fail(err)
			}
			full += len(env)
		}
		before, err := coordGatherBytes(coordBase)
		if err != nil {
			return fail(err)
		}
		match := true
		for k := 0; k < queries; k++ {
			q := url.Values{"item": {fmt.Sprintf("flow-%d", k*17)}}
			got, err := ccl.Query(req.Type, q)
			if err != nil {
				return fail(err)
			}
			want, err := scl.Query(req.Type, q)
			if err != nil {
				return fail(err)
			}
			match = match && got["estimate"] == want["estimate"] && got["n"] == want["n"]
		}
		after, err := coordGatherBytes(coordBase)
		if err != nil {
			return fail(err)
		}
		perQuery := float64(after-before) / queries
		tbl.AddRow(req.Type, queries, match, perQuery, full, float64(full)/perQuery)
		allMet = allMet && match && perQuery < 1024
	}
	return tbl, bar(allMet, claim)
}

// runReplicationLag ships a durable shard's WAL to a follower and
// reads the LSN gap off the leader's status before and after one sync
// round, which must close it.
func runReplicationLag() (*core.Table, Bar) {
	const claim = "one sync round brings the follower's applied LSN to the leader's wal_lsn"
	tbl := core.NewTable("WAL-shipped replication, 64 ingest batches",
		"point", "leader_wal_lsn", "follower_applied", "lag_records")
	fail := func(err error) (*core.Table, Bar) {
		return tbl, bar(false, "%s (run failed: %v)", claim, err)
	}

	dir, err := os.MkdirTemp("", "e30-repl-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	leader := server.New()
	if _, err := leader.EnableDurability(dir, durable.Options{
		FsyncInterval: 0, SnapshotInterval: -1, WALMaxBytes: 64 << 20,
	}); err != nil {
		return fail(err)
	}
	defer leader.CloseDurability()
	hs, base, err := server.Listen("127.0.0.1:0", leader.Handler())
	if err != nil {
		return fail(err)
	}
	defer hs.Close()

	lcl := client.New(base)
	if err := lcl.Create("e30", server.CreateRequest{Type: "hll", P: 14, Seed: 1}); err != nil {
		return fail(err)
	}
	const batches = 64
	buf := make([]byte, 0, 1000*12)
	for b := 0; b < batches; b++ {
		buf = buf[:0]
		for i := 0; i < 1000; i++ {
			buf = strconv.AppendInt(buf, int64(b)<<32|int64(i), 10)
			buf = append(buf, '\n')
		}
		if err := lcl.AddBatch("e30", buf); err != nil {
			return fail(err)
		}
	}

	fsrv := server.New()
	rep := cluster.NewReplica(base, fsrv, cluster.ReplicaOptions{})
	st := leader.DurabilityStatus()
	tbl.AddRow("before sync", st.WALLSN, rep.Applied(), st.WALLSN-rep.Applied())
	if err := rep.SyncOnce(); err != nil {
		return fail(err)
	}
	st = leader.DurabilityStatus()
	tbl.AddRow("after sync", st.WALLSN, rep.Applied(), st.WALLSN-rep.Applied())
	return tbl, bar(rep.Applied() == st.WALLSN, claim)
}

// startFleet serves n in-process sketchd shards and a coordinator over
// them on loopback; stop tears everything down.
func startFleet(n int) (shards []string, coordBase string, stop func(), err error) {
	var servers []*server.HTTPServer
	stop = func() {
		for _, hs := range servers {
			hs.Close()
		}
	}
	for i := 0; i < n; i++ {
		hs, base, err := server.Listen("127.0.0.1:0", server.New().Handler())
		if err != nil {
			stop()
			return nil, "", nil, err
		}
		shards, servers = append(shards, base), append(servers, hs)
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{})
	if err != nil {
		stop()
		return nil, "", nil, err
	}
	hs, coordBase, err := server.Listen("127.0.0.1:0", coord)
	if err != nil {
		stop()
		return nil, "", nil, err
	}
	servers = append(servers, hs)
	return shards, coordBase, stop, nil
}

// coordGatherBytes reads gather_bytes off a coordinator's /v1/status.
func coordGatherBytes(coordBase string) (uint64, error) {
	resp, err := http.Get(coordBase + "/v1/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Ops cluster.CoordCountersSnapshot `json:"ops"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Ops.GatherBytes, err
}
