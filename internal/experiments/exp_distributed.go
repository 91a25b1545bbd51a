package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/quantile"
	"repro/internal/randx"
)

func init() {
	register("E7", "Mergeable summaries: sharded vs single-stream accuracy", runE7)
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

func must(err error) {
	if err != nil {
		panic(err)
	}
}
