package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cardinality"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashx"
	"repro/internal/quantile"
	"repro/internal/randx"
)

func init() {
	register("E7", "Mergeable summaries: sharded vs single-stream accuracy", runE7)
	register("E7a", "Ablation: concurrent sketch update throughput", runE7a)
}

// runE7 shards one stream 64 ways, merges per-shard sketches, and
// compares against single-stream sketches — the Mergeable Summaries
// (PODS 2012) contract.
func runE7() *Result {
	const shards = 64
	const perShard = 10000
	const domain = 50000
	rng := randx.New(67)
	z := randx.NewZipf(rng, 1.2, domain)

	shardHLL := make([]*cardinality.HLL, shards)
	shardCM := make([]*frequency.CountMin, shards)
	shardKLL := make([]*quantile.KLL, shards)
	shardSS := make([]*frequency.SpaceSaving, shards)
	for i := 0; i < shards; i++ {
		shardHLL[i] = cardinality.NewHLL(12, 71)
		shardCM[i] = frequency.NewCountMin(1024, 5, 71)
		shardKLL[i] = quantile.NewKLL(200, uint64(i))
		shardSS[i] = frequency.NewSpaceSaving(256)
	}
	wholeHLL := cardinality.NewHLL(12, 71)
	wholeCM := frequency.NewCountMin(1024, 5, 71)
	wholeKLL := quantile.NewKLL(200, 999)
	wholeSS := frequency.NewSpaceSaving(256)

	truth := map[uint64]uint64{}
	var vals []float64
	for s := 0; s < shards; s++ {
		for i := 0; i < perShard; i++ {
			v := z.Next()
			truth[v]++
			vals = append(vals, float64(v))
			shardHLL[s].AddUint64(v)
			shardCM[s].AddUint64(v, 1)
			shardKLL[s].Add(float64(v))
			shardSS[s].Add(fmt.Sprint(v), 1)
			wholeHLL.AddUint64(v)
			wholeCM.AddUint64(v, 1)
			wholeKLL.Add(float64(v))
			wholeSS.Add(fmt.Sprint(v), 1)
		}
	}
	mergedHLL := shardHLL[0]
	mergedCM := shardCM[0]
	mergedKLL := shardKLL[0]
	mergedSS := shardSS[0]
	for s := 1; s < shards; s++ {
		must(mergedHLL.Merge(shardHLL[s]))
		must(mergedCM.Merge(shardCM[s]))
		must(mergedKLL.Merge(shardKLL[s]))
		must(mergedSS.Merge(shardSS[s]))
	}

	sort.Float64s(vals)
	distinct := float64(len(truth))
	var topItem uint64
	var topCount uint64
	for item, c := range truth {
		if c > topCount {
			topItem, topCount = item, c
		}
	}
	tbl := core.NewTable("E7: 64-way sharded merge vs single stream (n=640k, zipf 1.2)",
		"sketch", "single-stream answer", "merged answer", "truth", "lossless?")
	tbl.AddRow("HLL distinct", wholeHLL.Estimate(), mergedHLL.Estimate(), distinct,
		fmt.Sprint(wholeHLL.Estimate() == mergedHLL.Estimate()))
	tbl.AddRow("CM top-item count", wholeCM.EstimateUint64(topItem), mergedCM.EstimateUint64(topItem),
		topCount, fmt.Sprint(wholeCM.EstimateUint64(topItem) == mergedCM.EstimateUint64(topItem)))
	trueMedian := vals[len(vals)/2]
	tbl.AddRow("KLL median", wholeKLL.Quantile(0.5), mergedKLL.Quantile(0.5), trueMedian, "randomized")
	tbl.AddRow("SS top-item count", wholeSS.Estimate(fmt.Sprint(topItem)),
		mergedSS.Estimate(fmt.Sprint(topItem)), topCount, "bounded")
	return &Result{
		ID:     "E7",
		Title:  "Mergeable summaries",
		Claim:  "§2/PODS 2012: sketches of shards merge into exactly (HLL, CM) or boundedly (KLL, SS) the sketch of the whole stream.",
		Tables: []*core.Table{tbl},
	}
}

// runE7a measures update throughput of the concurrent wrappers across
// goroutine counts against the single-mutex baseline.
func runE7a() *Result {
	const opsPerWorker = 200000
	tbl := core.NewTable("E7a: concurrent Count-Min updates (ops/ms, higher is better)",
		"goroutines", "mutex", "atomic", "speedup")
	// Sweep past GOMAXPROCS so single-core machines still exercise the
	// contention behaviour (speedups only appear with real cores).
	maxWorkers := runtime.GOMAXPROCS(0) * 4
	if maxWorkers > 8 {
		maxWorkers = 8
	}
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		mutexRate := benchWorkers(workers, opsPerWorker, func() func(uint64) {
			c := newMutexCountMin(4096, 4, 1)
			return func(v uint64) { c.AddUint64(v, 1) }
		})
		atomicRate := benchWorkers(workers, opsPerWorker, func() func(uint64) {
			c := concurrent.NewAtomicCountMin(4096, 4, 1)
			return func(v uint64) { c.AddUint64(v, 1) }
		})
		tbl.AddRow(workers, mutexRate, atomicRate, atomicRate/mutexRate)
	}
	hllTbl := core.NewTable("E7a-hll: sharded HLL updates (ops/ms)",
		"goroutines", "sharded HLL rate")
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		s := concurrent.NewShardedHLL(workers, 14, 1)
		rate := benchWorkersHandles(workers, opsPerWorker, s)
		hllTbl.AddRow(workers, rate)
	}
	return &Result{
		ID:     "E7a",
		Title:  "Concurrent sketch throughput",
		Claim:  "§2: the DataSketches project 'emphasised the need for concurrency and mergability of sketches'.",
		Tables: []*core.Table{tbl, hllTbl},
		Notes: []string{
			"Rates vary with hardware; the shape (atomic >= mutex under contention, scaling with real cores) is the claim.",
			fmt.Sprintf("This run used GOMAXPROCS=%d.", runtime.GOMAXPROCS(0)),
		},
	}
}

// mutexCountMin is E7a's strawman: a Count-Min guarded by one mutex,
// there to show what sharding and atomics buy. The item is hashed
// outside the lock and the sketch shares concurrent.AtomicCountMin's
// layout, so the comparison isolates the synchronization cost, not the
// hashing.
type mutexCountMin struct {
	mu sync.Mutex
	cm *frequency.CountMin
}

func newMutexCountMin(width, depth int, seed uint64) *mutexCountMin {
	return &mutexCountMin{cm: frequency.NewCountMin(width, depth, seed)}
}

// AddUint64 adds weight to an item's count under the lock.
func (c *mutexCountMin) AddUint64(item, weight uint64) {
	h := hashx.HashUint64(item, c.cm.Seed())
	c.mu.Lock()
	c.cm.AddHash(h, weight)
	c.mu.Unlock()
}

// benchWorkers runs the shared update function from `workers`
// goroutines and returns aggregate ops per millisecond.
func benchWorkers(workers, ops int, build func() func(uint64)) float64 {
	update := build()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := 0; i < ops; i++ {
				update(base | uint64(i))
			}
		}(w)
	}
	wg.Wait()
	ms := float64(time.Since(start).Microseconds()) / 1000
	return float64(workers*ops) / ms
}

func benchWorkersHandles(workers, ops int, s *concurrent.ShardedHLL) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Handle()
			base := uint64(w) << 32
			for i := 0; i < ops; i++ {
				h.AddUint64(base | uint64(i))
			}
		}(w)
	}
	wg.Wait()
	ms := float64(time.Since(start).Microseconds()) / 1000
	return float64(workers*ops) / ms
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
