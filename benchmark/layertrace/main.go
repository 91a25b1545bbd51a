// Command layertrace is the benchmark's traced run. It pushes the same
// generated bodies the end-to-end workloads send through each layer's
// public entry point in turn — innermost first, on instances shaped like
// the ones sketchd serves — and records one span per call. The per_layer
// metrics of BENCHMARK.json are all derived from those spans (and from a
// few exact counters), so the difference between two layers' figures is
// the price of the code between them.
//
// This is the only program of the benchmark that imports repro/internal.
// It runs in one process, with no tracing inside sketchd: the spans are
// taken around the calls, from outside.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/benchmark/gen"
	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/durable"
	"repro/internal/frequency"
	"repro/internal/hashx"
	"repro/internal/mergex"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

const (
	seed   = 1 // sketchd's default hash seed
	shards = 4
)

// span is one call into one layer. Spans that handle the same body share
// Req; Parent names the layer whose span for that body contains this
// layer's work, so a layer's self time for a body is its span minus the
// spans that name it as parent.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs"`
}

type tracer struct {
	t0     time.Time
	spans  []span
	byName map[string][]int // span indexes per layer, in Req order
	failed int
	errs   []string
}

// layer runs n more calls into one layer. prep(i) does whatever call i
// needs that is not the layer's own work and returns the call to time.
// Allocations are the process's malloc count across the call, which for
// the loopback layers includes the in-process server side.
func (tr *tracer) layer(name, parent string, n int, prep func(i int) func() error) {
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		call := prep(i)
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := call()
		end := time.Now()
		runtime.ReadMemStats(&after)
		if err != nil {
			tr.failed++
			if len(tr.errs) < 5 {
				tr.errs = append(tr.errs, name+": "+err.Error())
			}
		}
		tr.byName[name] = append(tr.byName[name], len(tr.spans))
		tr.spans = append(tr.spans, span{
			Name: name, Parent: parent, Req: len(tr.byName[name]) - 1,
			StartNS: start.Sub(tr.t0).Nanoseconds(), EndNS: end.Sub(tr.t0).Nanoseconds(),
			Allocs: after.Mallocs - before.Mallocs,
		})
	}
}

func med(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ns is the median duration of a layer's spans, in nanoseconds.
func (tr *tracer) ns(name string) float64 {
	var d []float64
	for _, i := range tr.byName[name] {
		d = append(d, float64(tr.spans[i].EndNS-tr.spans[i].StartNS))
	}
	return med(d)
}

func (tr *tracer) allocs(name string) float64 {
	var a []float64
	for _, i := range tr.byName[name] {
		a = append(a, float64(tr.spans[i].Allocs))
	}
	return med(a)
}

// selfNS is the median over bodies of a layer's span minus its
// children's spans for the same body, not below zero.
func (tr *tracer) selfNS(name string, children ...string) float64 {
	var d []float64
	for req, i := range tr.byName[name] {
		self := float64(tr.spans[i].EndNS - tr.spans[i].StartNS)
		for _, c := range children {
			j := tr.byName[c][req]
			self -= float64(tr.spans[j].EndNS - tr.spans[j].StartNS)
		}
		d = append(d, self)
	}
	if m := med(d); m > 0 {
		return m
	}
	return 0
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	seedFlag := flag.Int64("seed", 1, "input seed")
	bodies := flag.Int("bodies", 2000, "request bodies pushed through every ingest layer")
	out := flag.String("out", "", "write the spans and the derived metrics here")
	tmp := flag.String("tmp", "", "directory for the durable layers' data (default: the system's)")
	flag.Parse()
	if err := run(*seedFlag, *bodies, *out, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "layertrace:", err)
		os.Exit(1)
	}
}

// loopback serves h on a free loopback port until stop is called.
func loopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

var createReqs = map[string]server.CreateRequest{
	"cm":  {Type: "countmin", Width: gen.CMWidth, Depth: gen.CMDepth},
	"hll": {Type: "hll", P: gen.HLLP},
	"bb":  {Type: "blockedbloom", NItems: gen.BloomN, FPR: gen.BloomFPR},
	"sf":  {Type: "sfsketch", Width: gen.SFWidth, Depth: gen.SFDepth},
}

func createAll(cl *client.Client, names ...string) error {
	for _, name := range names {
		if err := cl.Create(name, createReqs[name]); err != nil {
			return err
		}
	}
	return nil
}

// serve calls h in process, without TCP, and reports a non-2xx as an error.
func serve(h http.Handler, req *http.Request) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return rec, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

func run(inputSeed int64, n int, out, tmp string) error {
	in := gen.New(inputSeed, gen.Bodies)
	nb := len(in.Plain)
	// The lines of every body, split once: bare keys and weighted lines.
	keys := make([][][]byte, nb)
	lines := make([][][]byte, nb)
	for b := range keys {
		keys[b] = server.SplitBatch(in.Plain[b])
		lines[b] = server.SplitBatch(in.Weighted[b])
	}
	dataDir, err := os.MkdirTemp(tmp, "layertrace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	tr := &tracer{t0: time.Now(), byName: map[string][]int{}}
	heavy := max(n/40, 3) // calls into layers that move megabytes per call

	// ---- ingest, innermost first -------------------------------------
	hs := make([][]uint64, nb) // the hashes of every body's keys, kept for the kernels
	tr.layer("hashx.xxhash", "registry.cm_ingest", n, func(i int) func() error {
		b := i % nb
		if hs[b] == nil {
			hs[b] = make([]uint64, len(keys[b]))
		}
		return func() error {
			for j, k := range keys[b] {
				hs[b][j] = hashx.XXHash64(k, seed)
			}
			return nil
		}
	})
	for b := n; b < nb; b++ { // fewer calls than bodies: hash the rest untimed
		hs[b] = make([]uint64, len(keys[b]))
		for j, k := range keys[b] {
			hs[b][j] = hashx.XXHash64(k, seed)
		}
	}

	cmKernel := frequency.NewCountMin(gen.CMWidth, gen.CMDepth, seed)
	tr.layer("frequency.cm_addhashbatch", "concurrent.cm_atomic_addhashbatch", n, func(i int) func() error {
		return func() error { cmKernel.AddHashBatch(hs[i%nb]); return nil }
	})
	tr.layer("frequency.cm_estimate", "", n, func(i int) func() error {
		return func() error {
			for _, k := range keys[i%nb] {
				cmKernel.Estimate(k)
			}
			return nil
		}
	})
	hllKernel := cardinality.NewHLL(gen.HLLP, seed)
	tr.layer("cardinality.hll_addhashbatch", "concurrent.hll_sharded_addhashbatch", n, func(i int) func() error {
		return func() error { hllKernel.AddHashBatch(hs[i%nb]); return nil }
	})
	bbKernel := bloom.NewBlockedWithEstimates(gen.BloomN, gen.BloomFPR, seed)
	tr.layer("bloom.blocked_addbatch", "concurrent.bloom_atomic_addbatch", n, func(i int) func() error {
		return func() error { bbKernel.AddBatch(keys[i%nb]); return nil }
	})

	cmAtomic := concurrent.NewAtomicCountMin(gen.CMWidth, gen.CMDepth, seed)
	tr.layer("concurrent.cm_atomic_addhashbatch", "registry.cm_ingest", n, func(i int) func() error {
		return func() error { cmAtomic.AddHashBatch(hs[i%nb]); return nil }
	})
	tr.layer("concurrent.cm_atomic_2writers", "", n/2, func(i int) func() error {
		// Both clients of the end-to-end loop on one sketch: two bodies
		// at once, so the per-item figure is the span over 2 bodies.
		return func() error {
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(h []uint64) { defer wg.Done(); cmAtomic.AddHashBatch(h) }(hs[(2*i+w)%nb])
			}
			wg.Wait()
			return nil
		}
	})
	hllHandle := concurrent.NewShardedHLL(runtime.GOMAXPROCS(0), gen.HLLP, seed).Handle()
	tr.layer("concurrent.hll_sharded_addhashbatch", "registry.hll_ingest", n, func(i int) func() error {
		return func() error { hllHandle.AddHashBatch(hs[i%nb]); return nil }
	})
	bbAtomic := concurrent.NewAtomicBlockedBloom(bbKernel.M(), bbKernel.K(), seed)
	tr.layer("concurrent.bloom_atomic_addbatch", "registry.bloom_ingest", n, func(i int) func() error {
		return func() error { bbAtomic.AddBatch(keys[i%nb]); return nil }
	})

	// The registry's serving adapter, on the instances sketchd would
	// build: weight parse + hash + update over split lines.
	for _, r := range []struct {
		span, family string
		params       map[string]float64
		items        [][][]byte
	}{
		{"registry.cm_ingest", "countmin", map[string]float64{"width": gen.CMWidth, "depth": gen.CMDepth}, lines},
		{"registry.hll_ingest", "hll", map[string]float64{"p": gen.HLLP}, keys},
		{"registry.bloom_ingest", "blockedbloom", map[string]float64{"n": gen.BloomN, "fpr": gen.BloomFPR}, keys},
	} {
		d, ok := registry.Lookup(r.family)
		if !ok {
			return fmt.Errorf("registry: no %s", r.family)
		}
		p, err := d.Validate(seed, r.params)
		if err != nil {
			return err
		}
		inst, err := d.ServingNew()(p)
		if err != nil {
			return err
		}
		parent := ""
		if r.family == "countmin" {
			parent = "server.entry_add_cm"
		}
		tr.layer(r.span, parent, n, func(i int) func() error {
			return func() error { return d.Serve.Ingest(inst, r.items[i%nb]) }
		})
	}

	// The server's own work under the handler: split, then the entry.
	split := make([][]byte, 0, gen.Lines)
	tr.layer("server.split", "", n, func(i int) func() error {
		return func() error { split = server.SplitBatchAppend(split[:0], in.Weighted[i%nb]); return nil }
	})
	entry, err := server.NewEntry(createReqs["cm"])
	if err != nil {
		return err
	}
	tr.layer("server.entry_add_cm", "server.handler_add", n, func(i int) func() error {
		return func() error {
			split = server.SplitBatchAppend(split[:0], in.Weighted[i%nb])
			return entry.Add(split)
		}
	})

	// The handler, in process on a recorder: no TCP, no net/http server.
	mem := server.New()
	memURL, stopMem, err := loopback(mem.Handler())
	if err != nil {
		return err
	}
	defer stopMem()
	memClient := client.New(memURL)
	if err := createAll(memClient, "cm", "hll", "bb"); err != nil {
		return err
	}
	tr.layer("server.handler_add", "client.add_batch", n, func(i int) func() error {
		req := httptest.NewRequest(http.MethodPost, "/v1/sketch/cm/add", bytes.NewReader(in.Weighted[i%nb]))
		return func() error { _, err := serve(mem.Handler(), req); return err }
	})
	tr.layer("server.handler_query", "", n, func(i int) func() error {
		req := httptest.NewRequest(http.MethodGet, "/v1/sketch/cm/query?item="+gen.Key(uint32(i%1000)), nil)
		return func() error { _, err := serve(mem.Handler(), req); return err }
	})
	tr.layer("server.handler_snapshot_cm", "client.snapshot_append_cm", heavy, func(int) func() error {
		req := httptest.NewRequest(http.MethodGet, "/v1/sketch/cm/snapshot", nil)
		return func() error { _, err := serve(mem.Handler(), req); return err }
	})

	// The same request over loopback TCP, one client.
	tr.layer("client.add_batch", "client.add_batch_wal", n, func(i int) func() error {
		return func() error { return memClient.AddBatch("cm", in.Weighted[i%nb]) }
	})
	var envBuf []byte
	tr.layer("client.snapshot_append_cm", "cluster.gather_cm", heavy, func(int) func() error {
		return func() (err error) { envBuf, err = memClient.SnapshotAppend("cm", "", envBuf); return err }
	})

	// The same with the write-ahead log on, at sketchd's default policy.
	walOpts := durable.Options{FsyncInterval: 100 * time.Millisecond, SnapshotInterval: time.Minute, WALMaxBytes: 64 << 20}
	wal := server.New()
	if _, err := wal.EnableDurability(dataDir+"/server", walOpts); err != nil {
		return err
	}
	walURL, stopWAL, err := loopback(wal.Handler())
	if err != nil {
		return err
	}
	defer stopWAL()
	walClient := client.New(walURL)
	if err := createAll(walClient, "cm"); err != nil {
		return err
	}
	tr.layer("client.add_batch_wal", "", n, func(i int) func() error {
		return func() error { return walClient.AddBatch("cm", in.Weighted[i%nb]) }
	})
	// Crash, then recover the n records just written into a new server.
	if err := wal.KillDurability(); err != nil {
		return err
	}
	stopWAL()
	var replayed int
	recovered := server.New()
	tr.layer("durable.recover", "", 1, func(int) func() error {
		return func() error {
			stats, err := recovered.EnableDurability(dataDir+"/server", walOpts)
			replayed = stats.RecordsReplayed
			return err
		}
	})
	if err := recovered.CloseDurability(); err != nil {
		return err
	}

	// The log alone: append, group commit, snapshot cut.
	mgr, err := durable.Open(dataDir+"/log", walOpts)
	if err != nil {
		return err
	}
	if _, err := mgr.Recover(nopRecovery{}); err != nil {
		return err
	}
	cmEnv, _ := cmAtomic.MarshalBinary()
	bbEnv, _ := bbAtomic.MarshalBinary()
	hllEnv, _ := hllKernel.MarshalBinary()
	capture := func() []durable.SketchSnap {
		return []durable.SketchSnap{{Name: "cm", Data: cmEnv}, {Name: "hll", Data: hllEnv}, {Name: "bb", Data: bbEnv}}
	}
	if err := mgr.Start(capture); err != nil {
		return err
	}
	const rounds = 5
	var walBytes, walItems float64
	for r := 0; r < rounds; r++ {
		tr.layer("durable.append", "client.add_batch_wal", n/rounds, func(i int) func() error {
			return func() error { mgr.Append(durable.OpIngest, "", "cm", in.Weighted[i%nb]); return nil }
		})
		tr.layer("durable.sync", "", 1, func(int) func() error { return mgr.Sync })
		walItems += float64(n / rounds * gen.Lines)
	}
	walBytes = float64(mgr.Status().WALBytes)
	tr.layer("durable.snapshot_now", "", 3, func(int) func() error { return mgr.SnapshotNow })
	if err := mgr.Close(); err != nil {
		return err
	}

	// ---- the cluster: 4 in-process shards behind a coordinator -------
	urls := make([]string, shards)
	for i := range urls {
		url, stop, err := loopback(server.New().Handler())
		if err != nil {
			return err
		}
		defer stop()
		urls[i] = url
	}
	coord, err := cluster.NewCoordinator(urls, cluster.Options{})
	if err != nil {
		return err
	}
	coordURL, stopCoord, err := loopback(coord)
	if err != nil {
		return err
	}
	defer stopCoord()
	if err := createAll(client.New(coordURL), "cm", "hll", "sf"); err != nil {
		return err
	}
	ring := coord.Ring()
	tr.layer("cluster.ring", "cluster.fanout_add", n, func(i int) func() error {
		return func() error {
			for _, k := range keys[i%nb] {
				ring.Shard(k)
			}
			return nil
		}
	})
	// Reference sketches of exactly what the cluster is about to hold.
	refCM := frequency.NewCountMin(gen.CMWidth, gen.CMDepth, seed)
	refHLL := cardinality.NewHLL(gen.HLLP, seed)
	opsBefore := coord.Status().Coordinator
	tr.layer("cluster.fanout_add", "", n, func(i int) func() error {
		b := i % nb
		for j, k := range keys[b] {
			refCM.Add(k, uint64(in.Weights[b][j]))
		}
		return func() error {
			if _, fails := coord.FanOutAdd("cm", in.Weighted[b]); len(fails) > 0 {
				return fmt.Errorf("fan-out: %v", fails)
			}
			return nil
		}
	})
	shardRequestsPerAdd := float64(coord.Status().Coordinator.ShardRequests-opsBefore.ShardRequests) / float64(n)
	for b := 0; b < nb; b++ { // cluster_read's pre-load of the other two sketches
		refHLL.AddBatch(keys[b])
		if _, fails := coord.FanOutAdd("hll", in.Plain[b]); len(fails) > 0 {
			return fmt.Errorf("fan-out: %v", fails)
		}
		if _, fails := coord.FanOutAdd("sf", in.Weighted[b]); len(fails) > 0 {
			return fmt.Errorf("fan-out: %v", fails)
		}
	}

	// ---- reads, innermost first --------------------------------------
	// One shard's envelopes in each wire form, and all shards' for merges.
	envs := map[string][][]byte{}
	for _, name := range []string{"cm", "hll", "sf"} {
		got, fails := coord.Gather(name)
		if len(fails) > 0 {
			return fmt.Errorf("gather %s: %v", name, fails)
		}
		envs[name] = got
	}
	var sink any // keeps the decoded instances alive across the call
	for _, r := range []struct {
		key, sketch string
		slim        bool
		calls       int
	}{{"hll", "hll", false, n}, {"cm", "cm", false, heavy}, {"sf_full", "sf", false, heavy}, {"sf_slim", "sf", true, n}} {
		inst, _, err := registry.Decode(envs[r.sketch][0])
		if err != nil {
			return err
		}
		var env []byte
		tr.layer("registry.marshal_"+r.key, "", r.calls, func(int) func() error {
			return func() (err error) { env, _, err = registry.MarshalWire(inst, r.slim); return err }
		})
		tr.layer("registry.decode_"+r.key, "", r.calls, func(int) func() error {
			return func() (err error) { sink, _, err = registry.Decode(env); return err }
		})
	}
	tr.layer("mergex.tree4_cm", "cluster.merge_envelopes_cm", heavy, func(int) func() error {
		items := make([]*frequency.CountMin, shards)
		for i, env := range envs["cm"] {
			inst, _, err := registry.Decode(env)
			if err != nil {
				return func() error { return err }
			}
			items[i] = inst.(*frequency.CountMin)
		}
		return func() error { _, err := mergex.Tree(items, (*frequency.CountMin).Merge); return err }
	})
	for _, r := range []struct {
		sketch, query string
		calls         int
	}{{"hll", "", n / 4}, {"cm", "?item=" + gen.Key(0), heavy}} {
		tr.layer("cluster.merge_envelopes_"+r.sketch, "cluster.http_query_"+r.sketch, r.calls, func(int) func() error {
			return func() error { _, _, err := cluster.MergeEnvelopes(envs[r.sketch]); return err }
		})
		// The public Gather allocates a buffer per shard; the HTTP read
		// below fetches into pooled ones through an unexported twin, so
		// this span prices the same fetches but is not that span's child.
		tr.layer("cluster.gather_"+r.sketch, "", r.calls, func(int) func() error {
			return func() error {
				if _, fails := coord.Gather(r.sketch); len(fails) > 0 {
					return fmt.Errorf("gather: %v", fails)
				}
				return nil
			}
		})
		tr.layer("cluster.http_query_"+r.sketch, "", r.calls, func(int) func() error {
			req := httptest.NewRequest(http.MethodGet, "/v1/sketch/"+r.sketch+"/query"+r.query, nil)
			return func() error { _, err := serve(coord, req); return err }
		})
	}
	opsAfter := coord.Status().Coordinator
	_ = sink

	// ---- outputs are right -------------------------------------------
	var failures []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	check(tr.failed == 0, "%d calls failed: %v", tr.failed, tr.errs)
	check(replayed == n+1, "recovery replayed %d records, want %d", replayed, n+1)
	var cmDoc struct{ Estimate, N uint64 }
	if rec, err := serve(coord, httptest.NewRequest(http.MethodGet, "/v1/sketch/cm/query?item="+gen.Key(0), nil)); err == nil {
		json.Unmarshal(rec.Body.Bytes(), &cmDoc)
	}
	check(cmDoc.N == refCM.N() && cmDoc.Estimate == refCM.Estimate([]byte(gen.Key(0))),
		"coordinator Count-Min answers (%d, n %d), a single sketch of the same bodies (%d, n %d)", cmDoc.Estimate, cmDoc.N, refCM.Estimate([]byte(gen.Key(0))), refCM.N())
	var hllDoc struct{ Estimate float64 }
	if rec, err := serve(coord, httptest.NewRequest(http.MethodGet, "/v1/sketch/hll/query", nil)); err == nil {
		json.Unmarshal(rec.Body.Bytes(), &hllDoc)
	}
	check(hllDoc.Estimate == refHLL.Estimate(), "coordinator HLL answers %v, a single sketch of the same bodies %v", hllDoc.Estimate, refHLL.Estimate())

	// ---- metrics -----------------------------------------------------
	perItem := func(name string) float64 { return tr.ns(name) / gen.Lines }
	us := func(name string) float64 { return tr.ns(name) / 1e3 }
	ms := func(name string) float64 { return tr.ns(name) / 1e6 }
	reads := float64(len(tr.byName["cluster.http_query_hll"]) + len(tr.byName["cluster.http_query_cm"]))
	// The ingest stack's self times, hashx up to the handler: what the
	// harness can attribute to a layer it calls. The rest of a loopback
	// request is HTTP: both net/http ends, loopback TCP, scheduling.
	attributed := tr.ns("hashx.xxhash") + tr.ns("frequency.cm_addhashbatch") +
		tr.selfNS("concurrent.cm_atomic_addhashbatch", "frequency.cm_addhashbatch") +
		tr.selfNS("registry.cm_ingest", "hashx.xxhash", "concurrent.cm_atomic_addhashbatch") +
		tr.selfNS("server.entry_add_cm", "registry.cm_ingest") +
		tr.selfNS("server.handler_add", "server.entry_add_cm")
	metrics := []metric{
		{"hashx.xxhash_ns_per_item", perItem("hashx.xxhash"), "ns"},
		{"frequency.cm_addhashbatch_ns_per_item", perItem("frequency.cm_addhashbatch"), "ns"},
		{"frequency.cm_estimate_ns", perItem("frequency.cm_estimate"), "ns"},
		{"cardinality.hll_addhashbatch_ns_per_item", perItem("cardinality.hll_addhashbatch"), "ns"},
		{"bloom.blocked_addbatch_ns_per_item", perItem("bloom.blocked_addbatch"), "ns"},
		{"concurrent.cm_atomic_addhashbatch_ns_per_item", perItem("concurrent.cm_atomic_addhashbatch"), "ns"},
		{"concurrent.cm_atomic_2writers_ns_per_item", perItem("concurrent.cm_atomic_2writers") / 2, "ns"},
		{"concurrent.hll_sharded_addhashbatch_ns_per_item", perItem("concurrent.hll_sharded_addhashbatch"), "ns"},
		{"concurrent.bloom_atomic_addbatch_ns_per_item", perItem("concurrent.bloom_atomic_addbatch"), "ns"},
		{"registry.cm_ingest_ns_per_item", perItem("registry.cm_ingest"), "ns"},
		{"registry.hll_ingest_ns_per_item", perItem("registry.hll_ingest"), "ns"},
		{"registry.bloom_ingest_ns_per_item", perItem("registry.bloom_ingest"), "ns"},
		{"registry.marshal_hll_us", us("registry.marshal_hll"), "us"},
		{"registry.marshal_cm_us", us("registry.marshal_cm"), "us"},
		{"registry.marshal_sf_full_us", us("registry.marshal_sf_full"), "us"},
		{"registry.marshal_sf_slim_us", us("registry.marshal_sf_slim"), "us"},
		{"registry.decode_hll_us", us("registry.decode_hll"), "us"},
		{"registry.decode_cm_us", us("registry.decode_cm"), "us"},
		{"registry.decode_sf_full_us", us("registry.decode_sf_full"), "us"},
		{"registry.decode_sf_slim_us", us("registry.decode_sf_slim"), "us"},
		{"registry.decode_cm_allocs", tr.allocs("registry.decode_cm"), "count"},
		{"server.split_ns_per_item", perItem("server.split"), "ns"},
		{"server.entry_add_cm_ns_per_item", perItem("server.entry_add_cm"), "ns"},
		{"server.handler_add_ns_per_item", perItem("server.handler_add"), "ns"},
		{"server.handler_add_allocs_per_req", tr.allocs("server.handler_add"), "count"},
		{"server.handler_query_us", us("server.handler_query"), "us"},
		{"server.handler_query_allocs_per_req", tr.allocs("server.handler_query"), "count"},
		{"server.handler_snapshot_cm_us", us("server.handler_snapshot_cm"), "us"},
		{"client.add_batch_us_per_req", us("client.add_batch"), "us"},
		{"client.add_allocs_per_req", tr.allocs("client.add_batch"), "count"},
		{"client.snapshot_append_cm_us", us("client.snapshot_append_cm"), "us"},
		{"client.http_overhead_us_per_req", tr.selfNS("client.add_batch", "server.handler_add") / 1e3, "us"},
		{"durable.add_batch_wal_us_per_req", us("client.add_batch_wal"), "us"},
		{"durable.append_ns_per_record", tr.ns("durable.append"), "ns"},
		{"durable.sync_ms", ms("durable.sync"), "ms"},
		{"durable.snapshot_now_ms", ms("durable.snapshot_now"), "ms"},
		{"durable.recover_ms_per_krecord", ms("durable.recover") / float64(n+1) * 1e3, "ms"},
		{"durable.wal_bytes_per_item", walBytes / walItems, "B"},
		{"cluster.ring_ns_per_key", perItem("cluster.ring"), "ns"},
		{"cluster.fanout_add_us_per_req", us("cluster.fanout_add"), "us"},
		{"cluster.fanout_add_allocs_per_req", tr.allocs("cluster.fanout_add"), "count"},
		{"cluster.shard_requests_per_add", shardRequestsPerAdd, "count"},
		{"cluster.gather_hll_us", us("cluster.gather_hll"), "us"},
		{"cluster.gather_cm_us", us("cluster.gather_cm"), "us"},
		{"cluster.gather_allocs_per_read", tr.allocs("cluster.gather_hll"), "count"},
		{"cluster.gather_bytes_per_read", float64(opsAfter.GatherBytes-opsBefore.GatherBytes) / reads, "B"},
		{"cluster.merge_envelopes_hll_us", us("cluster.merge_envelopes_hll"), "us"},
		{"cluster.merge_envelopes_cm_us", us("cluster.merge_envelopes_cm"), "us"},
		{"cluster.http_query_hll_us", us("cluster.http_query_hll"), "us"},
		{"cluster.http_query_cm_us", us("cluster.http_query_cm"), "us"},
		{"cluster.retries", float64(opsAfter.Retries), "count"},
		{"mergex.tree4_cm_us", us("mergex.tree4_cm"), "us"},
		{"trace.coverage_pct", 100 * attributed / tr.ns("client.add_batch"), "%"},
	}

	fmt.Printf("layer trace: seed %d, %d bodies per ingest layer, %d spans, GOMAXPROCS %d, %s\n",
		inputSeed, n, len(tr.spans), runtime.GOMAXPROCS(0), runtime.Version())
	line := map[string]any{}
	for _, m := range metrics {
		fmt.Printf("  %-48s %14.3f %s\n", m.Name, m.Value, m.Unit)
		line[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, f := range failures {
		fmt.Println("  check FAIL", f)
	}
	if out != "" {
		doc, err := json.Marshal(map[string]any{"seed": inputSeed, "bodies": n, "metrics": metrics, "spans": tr.spans})
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, doc, 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct": len(failures) == 0, "attempted": len(tr.spans), "failed": tr.failed, "metrics": line,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if len(failures) > 0 {
		return fmt.Errorf("%d check(s) failed", len(failures))
	}
	return nil
}

// nopRecovery recovers an empty directory.
type nopRecovery struct{}

func (nopRecovery) Begin(uint64) error                     { return nil }
func (nopRecovery) RestoreSketch(durable.SketchSnap) error { return nil }
func (nopRecovery) Replay(durable.Record) error            { return nil }
