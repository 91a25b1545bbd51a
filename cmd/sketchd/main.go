// Command sketchd serves the sketch library over HTTP: a namespace of
// named sketches (any servable registry family) with batched ingest,
// queries, mergeable-summary exchange, and /debug/statsz counters. See
// internal/server for the route table and README "Running sketchd"
// for curl examples.
//
// With -data-dir set, sketchd is durable: every mutation is appended
// to a write-ahead log (group-committed by a background syncer),
// periodic snapshots truncate the log, and a restart — clean or not —
// recovers every sketch from the latest snapshot plus the WAL tail.
// Without -data-dir the server is in-memory only, exactly as before.
//
// Usage:
//
//	sketchd -addr :7600
//	sketchd -addr :7600 -data-dir /var/lib/sketchd \
//	        -fsync-interval 100ms -snapshot-interval 1m -wal-max-bytes 67108864
//
// -fsync-interval > 0 group-commits on that period (bounded data-loss
// window); 0 fsyncs after every drained batch; negative never fsyncs
// (the OS page cache decides).
//
// Every sketch is its plain kernel behind the registry's one lock.
// -concurrent-ingest=buffered puts a local-buffer/global-propagation
// buffer in front of that lock for this process's hll, countmin and
// blockedbloom sketches (server.Server.SetBufferedIngest, set before
// recovery): each batch goes to a writer-local buffer, and a propagator
// goroutine applies the buffers with the plain batch kernel under the
// lock, so reads answer with a bounded staleness window (reported as
// staleness_bound on queries). atomic (the default; the name is kept so
// existing scripts still work) applies each batch under the lock
// itself and keeps reads exact to the last completed batch.
//
// -pprof mounts net/http/pprof's handlers under /debug/pprof/ on
// either tier, so the shipped binary can be profiled in place:
//
//	go tool pprof 'http://127.0.0.1:7600/debug/pprof/profile?seconds=10'
//
// Sketches live in tenant namespaces: /v1/t/{tenant}/sketch/... (or
// the X-Sketch-Tenant header) scopes every call, the bare /v1 paths
// address the "default" tenant unchanged, -tenant-max-sketches and
// -tenant-max-bytes cap each namespace (429 on breach), and sketches
// created with ttl_s are evicted by a WAL-logged background reaper
// every -ttl-sweep-interval.
//
// Two cluster modes turn single sketchds into a fleet (internal/cluster):
//
//	sketchd -addr :7700 -coordinator -shards http://h1:7600,http://h2:7600
//	sketchd -addr :7601 -follow http://h1:7600 [-follow-mirror DIR]
//
// A coordinator serves the same /v1/sketch API, handing each ingest
// batch whole to one shard in rotation (any shard can absorb any slice
// of the stream) and answering reads by scatter-gathering and merging
// every shard's envelope. A
// follower replays a durable leader's sealed WAL segments into a local
// in-memory namespace — a warm standby whose replication lag the
// leader reports on /v1/status.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7600", "listen address")
	dataDir := flag.String("data-dir", "", "durability directory (empty: in-memory only)")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond,
		"WAL group-commit interval (>0 timed, 0 per-batch, <0 never fsync)")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute,
		"interval between snapshots that truncate the WAL (<=0 disables the timer)")
	walMaxBytes := flag.Int64("wal-max-bytes", 64<<20,
		"WAL size that forces a snapshot + truncation")
	concurrentIngest := flag.String("concurrent-ingest", "atomic",
		"multi-writer ingest mode for hll, countmin and blockedbloom, each the plain sketch behind the registry's lock: "+
			"atomic (each batch applied under the lock; reads exact) or "+
			"buffered (per-writer local buffers + a propagator applying them under the lock; reads lag by a bounded staleness)")
	pprofOn := flag.Bool("pprof", false,
		"mount net/http/pprof's handlers under /debug/pprof/ (CPU, heap, goroutine profiles of this process)")
	coordinator := flag.Bool("coordinator", false,
		"run as a cluster coordinator over -shards instead of serving sketches locally")
	shards := flag.String("shards", "",
		"comma-separated shard base URLs for -coordinator mode")
	follow := flag.String("follow", "",
		"leader base URL to replicate from (follower mode; serves a read-only warm standby)")
	followInterval := flag.Duration("follow-interval", 500*time.Millisecond,
		"replication poll interval in follower mode")
	followMirror := flag.String("follow-mirror", "",
		"directory receiving byte-identical copies of shipped WAL segments and snapshots")
	tenantMaxSketches := flag.Int("tenant-max-sketches", 0,
		"per-tenant sketch-count quota (0: unlimited); breaches answer 429")
	tenantMaxBytes := flag.Int64("tenant-max-bytes", 0,
		"per-tenant resident-bytes quota (0: unlimited); breaches answer 429")
	tenantMaxQPS := flag.Int("tenant-max-qps", 0,
		"per-tenant reads-per-second cap over /query and /snapshot (0: unlimited); "+
			"breaches answer 429 + Retry-After without gating ingest or merges")
	queryBudget := flag.Int64("query-budget", 0,
		"per-(tenant,sketch) adaptive-query budget per -query-budget-interval (0: unlimited); "+
			"exhaustion answers 429 + Retry-After — the server-side guard against adaptive attacks")
	queryBudgetInterval := flag.Duration("query-budget-interval", time.Minute,
		"refill window for -query-budget")
	ttlSweep := flag.Duration("ttl-sweep-interval", 30*time.Second,
		"interval between TTL eviction sweeps (<=0 disables the reaper; expired sketches then linger)")
	saltSeeds := flag.Bool("salt-seeds", false,
		"derive per-(tenant,name) hash seeds for creates with no explicit seed, so sketches stop "+
			"sharing one hash function; replicas of the same sketch still derive the same seed "+
			"(use the same setting on every shard and across restarts)")
	flag.Parse()
	if !*pprofOn {
		// Linking net/http/pprof turns on the runtime's heap-profile
		// sampling, which a binary without it runs with off; under
		// ingest_mem its buckets cost a shard half a megabyte of RSS.
		runtime.MemProfileRate = 0
	}

	if *coordinator {
		runCoordinator(*addr, *shards, *pprofOn)
		return
	}

	if *concurrentIngest != "atomic" && *concurrentIngest != "buffered" {
		log.Fatalf("sketchd: -concurrent-ingest must be atomic or buffered, got %q", *concurrentIngest)
	}

	srv := server.New()
	// Before recovery: restored sketches are built in the server's mode.
	srv.SetBufferedIngest(*concurrentIngest == "buffered")
	if *saltSeeds {
		// Before recovery: replayed creates carry stamped seeds, but new
		// creates must salt from the first request on.
		srv.SetSaltSeeds(true)
		log.Printf("sketchd: salting hash seeds per (tenant, sketch)")
	}
	if *tenantMaxSketches > 0 || *tenantMaxBytes > 0 || *tenantMaxQPS > 0 {
		srv.SetTenantQuota(server.TenantQuota{
			MaxSketches: *tenantMaxSketches,
			MaxBytes:    *tenantMaxBytes,
			MaxQPS:      *tenantMaxQPS,
		})
		log.Printf("sketchd: per-tenant quota: max %d sketches, %d resident bytes, %d queries/sec (0 = unlimited)",
			*tenantMaxSketches, *tenantMaxBytes, *tenantMaxQPS)
	}
	if *queryBudget > 0 {
		srv.SetQueryBudget(server.QueryBudget{
			Queries:  *queryBudget,
			Interval: *queryBudgetInterval,
		})
		log.Printf("sketchd: per-sketch query budget: %d reads per %v", *queryBudget, *queryBudgetInterval)
	}
	if *follow != "" && *dataDir != "" {
		// Replicated state is the leader's history; a follower writing
		// its own WAL would interleave two histories on restart.
		log.Fatalf("sketchd: -follow is incompatible with -data-dir (the follower mirrors the leader's log)")
	}
	if *dataDir != "" {
		stats, err := srv.EnableDurability(*dataDir, durable.Options{
			FsyncInterval:    *fsyncInterval,
			SnapshotInterval: *snapshotInterval,
			WALMaxBytes:      *walMaxBytes,
			Logf:             log.Printf,
		})
		if err != nil {
			log.Fatalf("sketchd: durability: %v", err)
		}
		log.Printf("sketchd: durable in %s: recovered %d sketches (snapshot lsn %d), replayed %d WAL records",
			*dataDir, stats.SketchesLoaded, stats.SnapshotLSN, stats.RecordsReplayed)
	}

	// The reaper starts after recovery so restored TTL sketches whose
	// deadlines passed during downtime are swept (and WAL-logged) by the
	// revived server, not resurrected silently.
	srv.StartReaper(*ttlSweep)

	replCtx, replCancel := context.WithCancel(context.Background())
	defer replCancel()
	if *follow != "" {
		rep := cluster.NewReplica(*follow, srv, cluster.ReplicaOptions{
			PollInterval: *followInterval,
			MirrorDir:    *followMirror,
		})
		go rep.Run(replCtx, func(err error) { log.Printf("sketchd: replication: %v", err) })
		log.Printf("sketchd: following %s (poll %v)", *follow, *followInterval)
	}

	log.Printf("sketchd listening on %s", *addr)
	// Requests are drained first, then the WAL is flushed and a final
	// snapshot written, so a clean restart recovers without replaying
	// anything.
	serve(*addr, withPprof(srv.Handler(), *pprofOn))
	srv.StopReaper() // before the WAL closes: a mid-sweep eviction still logs
	if err := srv.CloseDurability(); err != nil {
		log.Printf("sketchd: closing durability: %v", err)
	}
	ops := srv.Ops().Snapshot()
	log.Printf("sketchd: served %d adds in %d batches, %d merges, %d queries",
		ops.Adds, ops.AddBatches, ops.Merges, ops.Queries)
}

// withPprof serves net/http/pprof's handlers under /debug/pprof/ in
// front of h when on; off, h alone answers every path, that one with
// its 404.
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// runCoordinator serves the cluster-facing /v1/sketch API over a shard
// fleet and blocks until SIGINT/SIGTERM.
func runCoordinator(addr, shardList string, pprofOn bool) {
	if shardList == "" {
		log.Fatalf("sketchd: -coordinator requires -shards url1,url2,...")
	}
	coord, err := cluster.NewCoordinator(strings.Split(shardList, ","), cluster.Options{})
	if err != nil {
		log.Fatalf("sketchd: coordinator: %v", err)
	}
	log.Printf("sketchd coordinator listening on %s over %d shards", addr, len(coord.Shards()))
	serve(addr, withPprof(coord, pprofOn))
}

// serve answers h on addr through server.HTTPServer until SIGINT or
// SIGTERM, then stops accepting requests and drains in-flight ones for
// up to 5 s.
func serve(addr string, h http.Handler) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("sketchd: %v", err)
	}
	hs := &server.HTTPServer{Handler: h}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("sketchd: %v", err)
		}
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("sketchd: shutdown: %v", err)
	}
}
