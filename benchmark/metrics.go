package main

import (
	"math"
	"sort"
)

// metricDef is one end-to-end metric of the benchmark. The rows with a
// gate are BENCHMARK.json's end_to_end list: every workload emits them,
// which is why same-role figures share a name there, and their timings
// are in reference round trips (unit rt, see reference.go), because the
// host's speed moves by more than any bound the driver allows. The other
// rows are the same windows as the clock read them, under the gated rows'
// names in ms and s and under issue 11's workload-specific names, emitted
// by the workloads they apply to and judged by compare only (README,
// "Metric glossary").
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the base by which it may worsen: what compare applies
	floor  float64 // absolute worsening compare always tolerates, in unit
	gate   float64 // the driver's bound in BENCHMARK.json; 0: not in end_to_end
}

// bound is issue 11's: 10 % for medians, throughput, CPU and memory, 20 %
// for tails. gate is what ten runs on ten seeds hold with room to spare on
// this host (README, "Noise"): their spread, interquartile range over
// median, has to stay under it. p90 is the gated tail because p99
// spreads by up to 38 %.
var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.2, gate: 0.25},
	{name: "ops_per_rt", unit: "1/rt", higher: true, bound: 0.10, gate: 0.25},
	{name: "bulk_p50_rt", unit: "rt", bound: 0.10, gate: 0.25},
	{name: "bulk_p90_rt", unit: "rt", bound: 0.20, gate: 0.25},
	{name: "query_p50_rt", unit: "rt", bound: 0.10, gate: 0.25},
	{name: "query_p90_rt", unit: "rt", bound: 0.20, gate: 0.25},
	{name: "cpu_rt_per_op", unit: "rt", bound: 0.10, gate: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10, gate: 0.20},
	{name: "ref_rt_ms", unit: "ms", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.10},
	{name: "bulk_p50_ms", unit: "ms", bound: 0.10},
	{name: "bulk_p90_ms", unit: "ms", bound: 0.20},
	{name: "query_p50_ms", unit: "ms", bound: 0.10},
	{name: "query_p90_ms", unit: "ms", bound: 0.20},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.10},
	{name: "ingest_items_per_s", unit: "1/s", higher: true, bound: 0.10},
	{name: "ingest_p50_ms", unit: "ms", bound: 0.10},
	{name: "ingest_p99_ms", unit: "ms", bound: 0.20},
	{name: "query_p99_ms", unit: "ms", bound: 0.20},
	{name: "cpu_us_per_item", unit: "us", bound: 0.10},
	{name: "reads_per_s", unit: "1/s", higher: true, bound: 0.10},
	{name: "gather_small_p50_ms", unit: "ms", bound: 0.10},
	{name: "gather_small_p90_ms", unit: "ms", bound: 0.20},
	{name: "gather_large_p50_ms", unit: "ms", bound: 0.10},
	{name: "snapshot_full_p50_ms", unit: "ms", bound: 0.10},
	{name: "snapshot_slim_p50_ms", unit: "ms", bound: 0.10},
	{name: "cpu_ms_per_read", unit: "ms", bound: 0.10},
	{name: "recovery_s", unit: "s", bound: 0.15, floor: 0.1},
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p % of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// verdict compares a candidate value with a base value of the same
// metric: "worse" when it is worse by more than max(bound·base, floor),
// "better" when it is better by more than that, else "within".
func (m metricDef) verdict(base, cand float64) string {
	if math.IsNaN(base) || math.IsNaN(cand) || base <= 0 {
		return "invalid"
	}
	allowed := math.Max(m.bound*base, m.floor)
	worse := cand - base
	if m.higher {
		worse = base - cand
	}
	switch {
	case worse > allowed:
		return "worse"
	case -worse > allowed:
		return "better"
	}
	return "within"
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark's acceptance procedure uses for spreads.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // outside [0, 4] it extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
