// Package window implements sliding-window sketches in the
// Datar–Gionis–Indyk–Motwani exponential-histogram style. The paper's
// "Massive Data Streams" era (§3) monitored live network traffic where
// only the recent past matters; exponential histograms answer "how
// many events in the last W ticks" (and weighted sums) with relative
// error ε in O((1/ε)·log² W) bits, expiring old data exactly as the
// window slides.
//
// The package also provides WindowedHLL, a coarse sliding-window
// distinct counter built from rotating HLL panes — the construction
// practitioners actually deploy for "distinct users in the last hour".
package window

import (
	"fmt"

	"repro/internal/cardinality"
)

// EH is an exponential histogram counting events (optionally weighted
// by integer amounts) over the last W ticks. Buckets hold exponentially
// growing counts; at most k/2+1 buckets of each size are kept, giving
// relative error 1/k on the window count.
type EH struct {
	window  uint64
	k       int // inverse accuracy: at most k/2+1 buckets per size
	buckets []ehBucket
	now     uint64
	total   uint64 // sum of bucket counts (maintained incrementally)
}

type ehBucket struct {
	ts    uint64 // timestamp of the most recent event in the bucket
	count uint64 // always a power of two times the unit... kept exact
}

// NewEH creates an exponential histogram over a window of W ticks with
// relative error about 1/k (k >= 2).
func NewEH(window uint64, k int) *EH {
	if window < 1 {
		panic("window: EH window must be >= 1")
	}
	if k < 2 {
		panic("window: EH k must be >= 2")
	}
	return &EH{window: window, k: k}
}

// Tick advances the clock to timestamp ts (monotonically) and expires
// buckets that fell out of the window.
func (h *EH) Tick(ts uint64) {
	if ts < h.now {
		panic("window: time went backwards")
	}
	h.now = ts
	h.expire()
}

func (h *EH) expire() {
	// Buckets are ordered oldest first; drop while fully expired.
	for len(h.buckets) > 0 && h.buckets[0].ts+h.window <= h.now {
		h.total -= h.buckets[0].count
		h.buckets = h.buckets[1:]
	}
}

// Add records one event at the current timestamp.
func (h *EH) Add() { h.AddN(1) }

// AddN records n simultaneous events at the current timestamp.
func (h *EH) AddN(n uint64) {
	for i := uint64(0); i < n; i++ {
		h.buckets = append(h.buckets, ehBucket{ts: h.now, count: 1})
		h.total++
		h.merge()
	}
}

// merge enforces the at-most-(k/2+1)-buckets-per-size invariant by
// merging the two oldest buckets of any overfull size.
func (h *EH) merge() {
	limit := h.k/2 + 1
	for {
		// Count buckets per size from the newest end; find the oldest
		// overfull size class.
		counts := map[uint64][]int{}
		for i := range h.buckets {
			c := h.buckets[i].count
			counts[c] = append(counts[c], i)
		}
		mergedAny := false
		// Merge smallest size class first (standard EH cascade).
		for size := uint64(1); size <= h.total; size *= 2 {
			idxs := counts[size]
			if len(idxs) > limit {
				// Merge the two *oldest* buckets of this size.
				i, j := idxs[0], idxs[1]
				h.buckets[j].count *= 2 // j is newer; keeps its ts
				h.buckets = append(h.buckets[:i], h.buckets[i+1:]...)
				mergedAny = true
				break
			}
		}
		if !mergedAny {
			return
		}
	}
}

// Count estimates the number of events in the window: all complete
// buckets plus half of the oldest (straddling) bucket.
func (h *EH) Count() float64 {
	h.expire()
	if len(h.buckets) == 0 {
		return 0
	}
	est := float64(h.total)
	// The oldest bucket may straddle the window boundary: by the EH
	// analysis, counting half of it bounds the relative error by 1/k.
	est -= float64(h.buckets[0].count) / 2
	if est < 0 {
		est = 0
	}
	return est
}

// BucketCount returns the number of stored buckets — O(k·log W).
func (h *EH) BucketCount() int { return len(h.buckets) }

// WindowedHLL tracks distinct items over a sliding window using p
// rotating panes of HLL sketches: each pane covers window/panes ticks;
// a query merges the live panes. Expiry granularity is one pane — the
// coarse but robust construction used in production dashboards.
type WindowedHLL struct {
	window    uint64
	paneWidth uint64
	precision uint8
	seed      uint64
	panes     []hllPane
	now       uint64
}

type hllPane struct {
	start uint64
	hll   *cardinality.HLL
}

// NewWindowedHLL creates a sliding-window distinct counter with the
// given window length, number of panes (granularity), and HLL
// precision.
func NewWindowedHLL(window uint64, panes int, precision uint8, seed uint64) *WindowedHLL {
	if window < 1 || panes < 1 || uint64(panes) > window {
		panic("window: need 1 <= panes <= window")
	}
	return &WindowedHLL{
		window:    window,
		paneWidth: (window + uint64(panes) - 1) / uint64(panes),
		precision: precision,
		seed:      seed,
	}
}

// Tick advances the clock.
func (w *WindowedHLL) Tick(ts uint64) {
	if ts < w.now {
		panic("window: time went backwards")
	}
	w.now = ts
	w.expire()
}

func (w *WindowedHLL) expire() {
	keep := w.panes[:0]
	for _, p := range w.panes {
		if p.start+w.paneWidth+w.window > w.now {
			keep = append(keep, p)
		}
	}
	w.panes = keep
}

// Add records an item at the current timestamp.
func (w *WindowedHLL) Add(item []byte) {
	pane := w.currentPane()
	pane.hll.Add(item)
}

// AddUint64 records an integer item at the current timestamp.
func (w *WindowedHLL) AddUint64(v uint64) {
	w.currentPane().hll.AddUint64(v)
}

func (w *WindowedHLL) currentPane() *hllPane {
	start := w.now - w.now%w.paneWidth
	for i := range w.panes {
		if w.panes[i].start == start {
			return &w.panes[i]
		}
	}
	w.panes = append(w.panes, hllPane{start: start, hll: cardinality.NewHLL(w.precision, w.seed)})
	return &w.panes[len(w.panes)-1]
}

// Estimate returns the distinct count over (approximately) the last
// window ticks: the union of all live panes. The window edge is
// quantized to pane boundaries.
func (w *WindowedHLL) Estimate() float64 {
	w.expire()
	merged := cardinality.NewHLL(w.precision, w.seed)
	for _, p := range w.panes {
		if err := merged.Merge(p.hll); err != nil {
			panic(fmt.Sprintf("window: pane merge: %v", err)) // same shape by construction
		}
	}
	return merged.Estimate()
}

// SizeBytes returns the live sketch memory.
func (w *WindowedHLL) SizeBytes() int {
	total := 0
	for _, p := range w.panes {
		total += p.hll.SizeBytes()
	}
	return total
}
