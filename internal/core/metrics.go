package core

import (
	"math"
	"sort"
	"sync/atomic"
)

// This file holds the measurement helpers used by the experiment
// harness (cmd/sketchbench) to compare sketch estimates against ground
// truth: relative error, RMSE, rank error for quantiles, and simple
// summary statistics over repeated trials — plus the lock-free
// operation counters the serving layer (internal/server) exposes on
// /debug/statsz.

// Counter is a wait-free monotonic event counter safe for concurrent
// use. The zero value is ready.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// OpCounters aggregates the operation counts of a sketch-serving
// process: items folded in, ingest batches and their byte volume,
// merges of peer envelopes, point/estimate queries, and snapshot
// serializations out. All fields are independently wait-free; a read
// is a per-counter linearizable snapshot, which is all a stats page
// needs. The zero value is ready.
type OpCounters struct {
	Adds       Counter // individual items ingested
	AddBatches Counter // ingest requests (one batch each)
	BatchBytes Counter // raw bytes across all ingest bodies
	Merges     Counter // peer envelopes merged in
	Queries    Counter // estimate/point/quantile queries served
	Snapshots  Counter // serializations out
	// NotModified counts conditional snapshot reads answered 304: the
	// reader's copy was the current state, and no envelope went out.
	NotModified Counter
}

// OpSnapshot is a point-in-time copy of an OpCounters, in plain
// integers for JSON rendering.
type OpSnapshot struct {
	Adds       uint64 `json:"adds"`
	AddBatches uint64 `json:"add_batches"`
	BatchBytes uint64 `json:"batch_bytes"`
	Merges     uint64 `json:"merges"`
	Queries    uint64 `json:"queries"`
	Snapshots  uint64 `json:"snapshots"`

	NotModified uint64 `json:"not_modified"`
}

// Snapshot copies the current counter values.
func (o *OpCounters) Snapshot() OpSnapshot {
	return OpSnapshot{
		Adds:       o.Adds.Load(),
		AddBatches: o.AddBatches.Load(),
		BatchBytes: o.BatchBytes.Load(),
		Merges:     o.Merges.Load(),
		Queries:    o.Queries.Load(),
		Snapshots:  o.Snapshots.Load(),

		NotModified: o.NotModified.Load(),
	}
}

// RelErr returns |est − truth| / truth; truth must be nonzero. For
// truth = 0 it returns the absolute error so that callers can still
// aggregate sensibly.
func RelErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// Median returns the median of xs (sorting a copy).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MedianInt64 returns the median of xs as a float (sorting a copy).
func MedianInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid])
	}
	return (float64(s[mid-1]) + float64(s[mid])) / 2
}
