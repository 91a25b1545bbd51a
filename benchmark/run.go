package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/benchmark/gen"
)

// runConfig is what one workload run needs besides the workload.
type runConfig struct {
	sketchd string // binary under test
	self    string // this program, started again as the reference server
	tmp     string // directory for data dirs, removed by the caller
	in      *gen.Input
	seconds time.Duration // measured window
	warmup  time.Duration
	setups  int // most set-ups timed per run, at least 1; setup_s is their median
}

// What runMain puts into every runConfig: issue 11 fixes the warm-up, and
// the driver's contract asks for the median of several set-ups. They are
// not flags, so two result files always agree on them; the smoke test
// alone shortens them.
const (
	warmup = 3 * time.Second
	setups = 15
)

// A run sets up minSetups times, then on up to cfg.setups times while
// all of them together have taken less than setupBudget: a set-up of
// 10 ms (one node) is timed 15 times, one of 0.8 s (cluster_read's
// pre-load) three times, so the median is steadiest where it is smallest.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

// maxStealPct is the share of host CPU time stolen by the hypervisor
// above which a window is invalid and the run is repeated: the same
// ingest_mem run has read 4.2 M and 1.6 M items/s on this host without
// and with a steal burst.
const maxStealPct = 2.0

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's run: every metric, the per-class
// request counts behind them, the noise guard's reading and the checks.
type workloadResult struct {
	Name             string                 `json:"name"`
	Valid            bool                   `json:"valid"` // steal stayed under maxStealPct
	Attempts         int                    `json:"attempts"`
	StealPct         float64                `json:"steal_pct"`
	InvolCtxSwitches int64                  `json:"involuntary_ctx_switches"`
	RefSamples       int                    `json:"reference_samples"` // behind ref_rt_ms
	Metrics          map[string]metricValue `json:"metrics"`
	Ops              []classStats           `json:"ops"`
	Coordinator      *coordStats            `json:"coordinator,omitempty"` // cluster workloads
	Checks           []check                `json:"checks"`
}

// coordStats is the coordinator's own account of the window, from its
// /v1/status counters: exact counts, not timings.
type coordStats struct {
	ShardRequestsPerRequest float64 `json:"shard_requests_per_request"`
	GatherBytesPerRead      float64 `json:"gather_bytes_per_read"`
	Retries                 uint64  `json:"retries"`
}

// coordOps is the ops block of the coordinator's /v1/status.
type coordOps struct {
	AddBatches    uint64 `json:"add_batches"`
	Queries       uint64 `json:"queries"`
	ShardRequests uint64 `json:"shard_requests"`
	Retries       uint64 `json:"retries"`
	GatherBytes   uint64 `json:"gather_bytes"`
}

func readCoordOps(hc *http.Client, url string) (coordOps, error) {
	var st struct {
		Ops coordOps `json:"ops"`
	}
	err := getJSON(hc, url+"/v1/status", &st)
	return st.Ops, err
}

func (r *workloadResult) set(name string, v float64) {
	m, ok := metricByName(name)
	if !ok {
		panic("undefined metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.unit}
}

func (r *workloadResult) counts() (attempted, failed int) {
	for _, c := range r.Ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// runWorkload runs w, and again for as long as the noise guard rejects
// the window and repeats are left, and returns the attempt that lost
// least to steal. Issue 11 allows two repeats; the driver's runs get
// none, because its time limit has no room for them (README, "Noise").
func runWorkload(w *workload, cfg runConfig, repeats int) (*workloadResult, error) {
	var best *workloadResult
	for attempt := 1; ; attempt++ {
		res, err := runOnce(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if best == nil || res.StealPct < best.StealPct {
			best = res
		}
		best.Attempts = attempt
		if best.Valid || attempt > repeats {
			return best, nil
		}
		fmt.Fprintf(os.Stderr, "%s: steal %.2f %% > %.1f %%, repeating\n", w.name, res.StealPct, maxStealPct)
	}
}

func runOnce(w *workload, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Metrics: map[string]metricValue{}}

	// The reference server is not part of the system: it starts before
	// the timed set-ups and its CPU time and memory are not counted.
	var reference fleet
	defer reference.stop()
	refURL, err := startReference(&reference, cfg.self)
	if err != nil {
		return nil, err
	}

	// Set-up, timed several times; the last system is the one measured.
	var (
		sys     *system
		tgt     *target
		cs      []*client
		setupsS []float64
	)
	began := time.Now()
	for i := 0; i < cfg.setups && (i < minSetups || time.Since(began) < setupBudget); i++ {
		if sys != nil {
			sys.stop()
		}
		start := time.Now()
		var err error
		if sys, tgt, cs, err = setUp(w, cfg); err != nil {
			return nil, err
		}
		setupsS = append(setupsS, time.Since(start).Seconds())
	}
	defer func() { sys.stop() }()

	// Warm-up, then the measured window, bracketed by /proc samples.
	for _, c := range cs {
		c.refURL = refURL
	}
	from := time.Now().Add(cfg.warmup)
	until := from.Add(cfg.seconds)
	done := make(chan struct{})
	go func() {
		runClients(cs, w.script(tgt), from, until, func(*client) bool { return !time.Now().Before(until) })
		close(done)
	}()
	pids := sys.fleet.pids()
	hc := newHTTPClient()
	var coordBefore, coordAfter coordOps
	time.Sleep(time.Until(from))
	before, err := sampleProcs(pids)
	if err == nil && w.shards > 0 {
		coordBefore, err = readCoordOps(hc, sys.front.url)
	}
	if err != nil {
		return nil, err
	}
	time.Sleep(time.Until(until))
	after, err := sampleProcs(pids)
	if err == nil && w.shards > 0 {
		coordAfter, err = readCoordOps(hc, sys.front.url)
	}
	if err != nil {
		return nil, err
	}
	<-done
	if w.shards > 0 {
		requests := float64(coordAfter.AddBatches - coordBefore.AddBatches + coordAfter.Queries - coordBefore.Queries)
		res.Coordinator = &coordStats{
			ShardRequestsPerRequest: float64(coordAfter.ShardRequests-coordBefore.ShardRequests) / requests,
			GatherBytesPerRead:      float64(coordAfter.GatherBytes-coordBefore.GatherBytes) / float64(coordAfter.Queries-coordBefore.Queries),
			Retries:                 coordAfter.Retries - coordBefore.Retries,
		}
	}

	if host := after.hostTicks - before.hostTicks; host > 0 {
		res.StealPct = 100 * float64(after.stealTicks-before.stealTicks) / float64(host)
	}
	res.Valid = res.StealPct <= maxStealPct
	res.InvolCtxSwitches = after.involCtx - before.involCtx

	ops := 0
	for i, name := range w.classes {
		st := mergeClass(cs, i, name)
		res.Ops = append(res.Ops, st)
		ops += st.Succeeded
		if st.Succeeded == 0 {
			return nil, fmt.Errorf("no %s request was acknowledged inside the window (first error: %v)", name, firstErr(cs))
		}
	}
	var refLat []float64
	for _, c := range cs {
		if c.refErr != nil {
			return nil, fmt.Errorf("reference request: %w", c.refErr)
		}
		refLat = append(refLat, c.refLat...)
	}
	if len(refLat) < minRefSamples {
		return nil, fmt.Errorf("%d reference round trips inside the window, want at least %d", len(refLat), minRefSamples)
	}
	res.RefSamples = len(refLat)
	rt := median(refLat) // ms
	secs := cfg.seconds.Seconds()
	cpuS := float64(after.cpuTicks-before.cpuTicks) / clockTick
	bulk, query := res.Ops[0].sorted, res.Ops[1].sorted
	res.set("setup_s", median(setupsS))
	res.set("peak_rss_mb", float64(after.rssKB)/1024)
	res.set("ref_rt_ms", rt)
	// The gated timings, in reference round trips of the same window.
	res.set("ops_per_rt", float64(ops)/secs*rt/1e3)
	res.set("bulk_p50_rt", percentile(bulk, 50)/rt)
	res.set("bulk_p90_rt", percentile(bulk, 90)/rt)
	res.set("query_p50_rt", percentile(query, 50)/rt)
	res.set("query_p90_rt", percentile(query, 90)/rt)
	res.set("cpu_rt_per_op", 1e3*cpuS/float64(ops)/rt)
	// The same figures as the clock read them.
	res.set("ops_per_s", float64(ops)/secs)
	res.set("bulk_p50_ms", percentile(bulk, 50))
	res.set("bulk_p90_ms", percentile(bulk, 90))
	res.set("query_p50_ms", percentile(query, 50))
	res.set("query_p90_ms", percentile(query, 90))
	res.set("cpu_ms_per_op", 1e3*cpuS/float64(ops))
	// The same window under issue 11's workload-specific names.
	if w.ingest {
		items := float64(res.Ops[0].Succeeded) * gen.Lines
		res.set("ingest_items_per_s", items/secs)
		res.set("cpu_us_per_item", 1e6*cpuS/items)
		res.set("ingest_p50_ms", percentile(bulk, 50))
		res.set("ingest_p99_ms", percentile(bulk, 99))
		res.set("query_p99_ms", percentile(query, 99))
	} else {
		res.set("reads_per_s", float64(ops)/secs)
		res.set("cpu_ms_per_read", 1e3*cpuS/float64(ops))
		res.set("gather_small_p90_ms", percentile(query, 90))
		for _, st := range res.Ops {
			res.set(st.Class+"_p50_ms", percentile(st.sorted, 50))
		}
	}

	// Correctness, on the quiescent system.
	k := &checker{hc: hc, in: cfg.in}
	if w.shards > 0 {
		k.mergedEqualsCoordinator(w, sys)
		k.sketches(w, sys.shards[0].url, "verify_", cs)
	} else {
		k.sketches(w, sys.front.url, "", cs)
	}
	sys.stop()
	if w.durable {
		s, err := recoveryPhase(w, cfg, k)
		if err != nil {
			return nil, fmt.Errorf("recovery phase: %w", err)
		}
		res.set("recovery_s", s)
	}
	res.Checks = k.checks
	return res, nil
}

// setUp brings w's system to the point where it can take the measured
// traffic: processes ready, sketches created and, for a preload
// workload, loaded. The clients come with it because their tallies
// already count the pre-load.
func setUp(w *workload, cfg runConfig) (*system, *target, []*client, error) {
	sys, err := startSystem(w, cfg.sketchd, cfg.tmp)
	if err != nil {
		return nil, nil, nil, err
	}
	tgt := newTarget(w, cfg.in, sys.front.url)
	cs := newClients(w, cfg.in)
	if w.preload {
		if err := preload(tgt, cs); err != nil {
			sys.stop()
			return nil, nil, nil, err
		}
	}
	return sys, tgt, cs, nil
}

func newClients(w *workload, in *gen.Input) []*client {
	cs := make([]*client, clients)
	for id := range cs {
		cs[id] = newClient(id, len(w.sketches), len(in.Plain), len(w.classes))
	}
	return cs
}

// preload ingests every body once into every sketch and fails on the
// first request that is not acknowledged.
func preload(t *target, cs []*client) error {
	next, done := t.preloadScript()
	if err := drive(cs, next, done); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	for _, c := range cs {
		c.n = 0
	}
	return nil
}

// recoveryBatches is the fixed length of the WAL the recovery phase
// replays.
const recoveryBatches = 2000

// recoveryPhase measures crash recovery over a fixed WAL: on a fresh
// data dir with snapshots off, ingest exactly recoveryBatches batches,
// idle so that the 100 ms group commit has flushed them, record every
// sketch's snapshot, then three times over: kill -9, restart, time until
// /v1/status answers with all sketches, and require every snapshot to
// come back byte-identical. With snapshots off each restart replays the
// same log, and the median of the three is reported.
func recoveryPhase(w *workload, cfg runConfig, k *checker) (float64, error) {
	sys, err := startSystem(w, cfg.sketchd, cfg.tmp, "-snapshot-interval", "0", "-wal-max-bytes", "1073741824")
	if err != nil {
		return 0, err
	}
	defer sys.stop()
	tgt := newTarget(w, cfg.in, sys.front.url)
	cs := newClients(w, cfg.in)
	if err := drive(cs, tgt.add, func(c *client) bool { return c.adds >= recoveryBatches/clients }); err != nil {
		return 0, err
	}
	time.Sleep(300 * time.Millisecond)

	snapshots := func(base string) ([][]byte, error) {
		out := make([][]byte, len(w.sketches))
		for i, sk := range w.sketches {
			var err error
			if out[i], err = getBytes(k.hc, sketchURL(base, sk.name)+"/snapshot"); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	node := sys.front
	want, err := snapshots(node.url)
	if err != nil {
		return 0, err
	}
	var recoveries []float64
	var differs error
	for i := 0; i < 3; i++ {
		args := node.args
		sys.fleet.kill(node)
		killed := time.Now()
		if node, err = sys.fleet.start(args, statusReady(k.hc, len(w.sketches))); err != nil {
			return 0, err
		}
		recoveries = append(recoveries, time.Since(killed).Seconds())
		got, err := snapshots(node.url)
		if err != nil {
			return 0, err
		}
		for i, sk := range w.sketches {
			if differs == nil && !bytes.Equal(want[i], got[i]) {
				differs = fmt.Errorf("%s: snapshot after restart differs from the one before kill -9", sk.name)
			}
		}
	}
	k.record("recovery_byte_identical", differs, fmt.Sprintf("%d sketches byte-identical after each of %d kill -9 restarts over a %d-record WAL", len(w.sketches), len(recoveries), recoveryBatches))
	return median(recoveries), nil
}
