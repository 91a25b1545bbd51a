package experiments

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/frequency"
	"repro/internal/hashx"
	"repro/internal/mergex"
)

func init() {
	register("E28", "cache-conscious layouts and batch-pipelined ingest",
		func() *Result { return runE28(4_000_000) })
}

// runE28 measures the memory-layout work at sizes where it matters:
// every structure is sized well past L2, so a scattered probe pattern
// pays a cache miss per probe and the layout changes (one 512-bit block
// per Bloom item, d Count-Min rows fused into adjacent cache lines,
// two-phase hash-then-update batch loops) convert k misses per update
// into one or two. The BenchmarkHot rows at the module root time the
// same paths at L2-resident sizes; this experiment is the >L2
// complement, where the speedups are the point of the design.
//
// The Bloom layout comparison runs twice. The speed table sizes both
// filters past even a large server L3 (~292 MiB), where every probe is
// a genuine memory miss — Add cost is independent of fill, so timing
// insert passes into a mostly-empty filter of that capacity measures
// exactly the per-layout miss count. The FPR/query table runs at design
// load (n inserted ≈ capacity), because false-positive rate and
// early-exit Contains behavior only mean anything at the load the
// filter was sized for.
//
// Blocked Bloom trades FPR for locality: confining an item's k bits to
// one block adds a Poisson block-load penalty over the flat filter's
// (1-e^{-kn/m})^k. The FPR table reports both measured rates against
// both theoretical curves — the penalty is real, bounded, and priced.
//
// nItems sets every size. The registered run's 4M puts every structure
// past L2 and the speed tables past L3; the test sweep runs it reduced,
// for its bar and table shape, since past-L3 timings are the point only
// of the full run.
func runE28(nItems int) *Result {
	const (
		fpr      = 0.01
		cmDepth  = 5
		hllP     = 16 // 64 KiB registers per shard
		shards   = 64
		perShard = 20_000
	)
	var (
		bigItems = 64 * uint64(nItems) // Bloom speed-table capacity: ~292 MiB filters at 4M, past any L3
		nProbes  = nItems / 8          // negative membership probes for measured FPR
		keysN    = nItems / 2          // byte keys for the full-ingest pipelining table
		// Count-Min widths, powers of two: at 4M, 1Mi counters/row × 5
		// rows × 8B = 40 MiB for the layouts table, and 8Mi × 5 × 8B =
		// 320 MiB, past L3, for the pipelining table.
		cmWidth = 1 << bits.Len(uint(nItems/4-1))
		pipeCMW = 1 << bits.Len(uint(2*nItems-1))
	)

	// Pre-hash every key once so the timed loops measure memory
	// behavior, not Murmur3 throughput: h1s/h2s feed the Bloom paths,
	// h1s alone feeds Count-Min and HLL.
	h1s := make([]uint64, nItems)
	h2s := make([]uint64, nItems)
	for i := range h1s {
		h1s[i] = hashx.HashUint64(uint64(i), 0xE28)
		h2s[i] = hashx.DeriveH2(h1s[i])
	}

	// Layout speed past L3: Add the same pre-hashed keys into filters
	// sized for bigItems. Fill level doesn't change Add's work (k
	// unconditional bit-ORs either way), so 4M inserts into a 292 MiB
	// filter time the miss pattern without paying 256M inserts of wall
	// clock. Contains is deliberately absent here: on an underloaded
	// filter the standard layout early-exits on the first zero bit,
	// which flatters it in a way no loaded filter would see.
	bigStd := bloom.NewWithEstimates(bigItems, fpr, 1)
	bigBlk := bloom.NewBlockedWithEstimates(bigItems, fpr, 1)
	bigStdAdd := warmNs(nItems, func() {
		for i := range h1s {
			bigStd.AddHash(h1s[i], h2s[i])
		}
	})
	bigBlkAdd := warmNs(nItems, func() {
		for i := range h1s {
			bigBlk.AddHash(h1s[i], h2s[i])
		}
	})
	bigMiB := float64(bigStd.M()) / 8 / (1 << 20)
	bigSpeedTbl := core.NewTable(
		fmt.Sprintf("Bloom layout Add speed, filters ~%.0f MiB (past L3; keys pre-hashed)", bigMiB),
		"layout", "mib", "ns_per_add", "add_speedup")
	bigSpeedTbl.AddRow("standard", float64(bigStd.M())/8/(1<<20), bigStdAdd, 1.0)
	bigSpeedTbl.AddRow("blocked", float64(bigBlk.M())/8/(1<<20), bigBlkAdd, bigStdAdd/bigBlkAdd)
	bloomSpeedup := bigStdAdd / bigBlkAdd
	bigStd, bigBlk = nil, nil // release ~600 MiB before the rest of the run

	std := bloom.NewWithEstimates(uint64(nItems), fpr, 1)
	blk := bloom.NewBlockedWithEstimates(uint64(nItems), fpr, 1)

	stdAdd := warmNs(nItems, func() {
		for i := range h1s {
			std.AddHash(h1s[i], h2s[i])
		}
	})
	blkAdd := warmNs(nItems, func() {
		for i := range h1s {
			blk.AddHash(h1s[i], h2s[i])
		}
	})
	sink := false
	stdContains := warmNs(nItems, func() {
		for i := range h1s {
			sink = std.ContainsHash(h1s[i], h2s[i]) != sink
		}
	})
	blkContains := warmNs(nItems, func() {
		for i := range h1s {
			sink = blk.ContainsHash(h1s[i], h2s[i]) != sink
		}
	})
	_ = sink

	// Measured FPR over keys disjoint from the inserted set.
	stdFP, blkFP := 0, 0
	for i := 0; i < nProbes; i++ {
		h1 := hashx.HashUint64(uint64(nItems+i), 0xE28)
		h2 := hashx.DeriveH2(h1)
		if std.ContainsHash(h1, h2) {
			stdFP++
		}
		if blk.ContainsHash(h1, h2) {
			blkFP++
		}
	}
	stdBound := math.Pow(1-math.Exp(-float64(std.K())*float64(nItems)/float64(std.M())), float64(std.K()))
	blkBound := bloom.TheoreticalBlockedFPR(blk.M(), blk.K(), uint64(nItems))

	bloomTbl := core.NewTable(
		fmt.Sprintf("Bloom FPR and query at design load, n=%d fpr=%g (filters ~%.1f MiB)", nItems, fpr, float64(std.M())/8/(1<<20)),
		"layout", "mib", "ns_per_add", "ns_per_contains", "add_speedup", "measured_fpr", "theoretical_fpr")
	bloomTbl.AddRow("standard", float64(std.M())/8/(1<<20), stdAdd, stdContains, 1.0,
		float64(stdFP)/float64(nProbes), stdBound)
	bloomTbl.AddRow("blocked", float64(blk.M())/8/(1<<20), blkAdd, blkContains, stdAdd/blkAdd,
		float64(blkFP)/float64(nProbes), blkBound)

	// Count-Min layouts: the same d=5 updates against row-major (d
	// scattered lines) and fused (d adjacent lines in one block).
	cmRow := frequency.NewCountMin(cmWidth, cmDepth, 1)
	cmFused := frequency.NewCountMinLayout(frequency.Layout{Width: cmWidth, Depth: cmDepth, Mode: frequency.Fused, Seed: 1})
	rowAdd := warmNs(nItems, func() {
		for _, h := range h1s {
			cmRow.AddHash(h, 1)
		}
	})
	fusedAdd := warmNs(nItems, func() {
		for _, h := range h1s {
			cmFused.AddHash(h, 1)
		}
	})
	var est uint64
	rowEst := warmNs(nItems, func() {
		for _, h := range h1s {
			est += cmRow.EstimateUint64(h)
		}
	})
	fusedEst := warmNs(nItems, func() {
		for _, h := range h1s {
			est += cmFused.EstimateUint64(h)
		}
	})
	_ = est

	cmTbl := core.NewTable(
		fmt.Sprintf("Count-Min layouts, width=%d depth=%d (%.0f MiB, past L2)", cmWidth, cmDepth, float64(cmWidth*cmDepth*8)/(1<<20)),
		"layout", "ns_per_add", "ns_per_estimate", "add_speedup", "estimate_speedup")
	cmTbl.AddRow("row-major", rowAdd, rowEst, 1.0, 1.0)
	cmTbl.AddRow("fused", fusedAdd, fusedEst, rowAdd/fusedAdd, rowEst/fusedEst)

	// Batch pipelining: the full byte-key ingest path — hash plus
	// update per item — scalar vs the two-phase AddBatch loops. The
	// structures are sized past L3 (like the Bloom speed table above)
	// so each update's misses are genuine memory misses; that is where
	// separating the ALU-pure hash phase from the memory-streaming
	// update phase pays, because the out-of-order window stays dense
	// with independent misses instead of spending itself on hash math.
	// HLL stays at p=16: its registers are cache-resident by design,
	// which is why its row is the control — near-1x, nothing to win.
	keys := make([][]byte, keysN)
	for i := range keys {
		keys[i] = hashx.Uint64Bytes(uint64(i) * 0x9e3779b97f4a7c15)
	}
	pipeTbl := core.NewTable(
		fmt.Sprintf("batch-pipelined AddBatch vs scalar Add, byte keys, past-L3 structures (Bloom ~%.0f MiB, Count-Min %.0f MiB; 256-item internal chunks)",
			bigMiB, float64(pipeCMW*cmDepth*8)/(1<<20)),
		"path", "scalar_ns_per_op", "batched_ns_per_op", "speedup")
	addPipeRow := func(name string, scalar, batched func()) float64 {
		s := warmNs(keysN, scalar)
		p := warmNs(keysN, batched)
		pipeTbl.AddRow(name, s, p, s/p)
		return s / p
	}
	std2, std3 := bloom.NewWithEstimates(bigItems, fpr, 2), bloom.NewWithEstimates(bigItems, fpr, 2)
	addPipeRow("bloom.Add",
		func() {
			for _, k := range keys {
				std2.Add(k)
			}
		},
		func() { std3.AddBatch(keys) })
	std2, std3 = nil, nil
	blk2, blk3 := bloom.NewBlockedWithEstimates(bigItems, fpr, 2), bloom.NewBlockedWithEstimates(bigItems, fpr, 2)
	addPipeRow("blockedbloom.Add",
		func() {
			for _, k := range keys {
				blk2.Add(k)
			}
		},
		func() { blk3.AddBatch(keys) })
	blk2, blk3 = nil, nil
	cm2, cm3 := frequency.NewCountMin(pipeCMW, cmDepth, 2), frequency.NewCountMin(pipeCMW, cmDepth, 2)
	cmSpeedup := addPipeRow("countmin.Add",
		func() {
			for _, k := range keys {
				cm2.Add(k, 1)
			}
		},
		func() { cm3.AddBatch(keys) })
	cm2, cm3 = nil, nil
	hll2, hll3 := cardinality.NewHLL(hllP, 2), cardinality.NewHLL(hllP, 2)
	addPipeRow("hll.Add",
		func() {
			for _, k := range keys {
				hll2.Add(k)
			}
		},
		func() { hll3.AddBatch(keys) })

	// Parallel tree merge vs the serial fold, 64 HLL shards (4 MiB of
	// registers total). On a 1-core host the tree runs its rounds
	// inline; the speedup column is meaningful only when GOMAXPROCS > 1.
	build := func() []*cardinality.HLL {
		items := make([]*cardinality.HLL, shards)
		for s := range items {
			items[s] = cardinality.NewHLL(hllP, 3)
			for i := 0; i < perShard; i++ {
				items[s].AddUint64(uint64(s*perShard + i))
			}
		}
		return items
	}
	serialItems, treeItems := build(), build()
	serialStart := time.Now()
	serialDst := serialItems[0]
	for _, src := range serialItems[1:] {
		if err := serialDst.Merge(src); err != nil {
			return &Result{ID: "E28", Title: "cache-conscious layouts and batch-pipelined ingest",
				Notes: []string{fmt.Sprintf("serial merge: %v", err)}}
		}
	}
	serialMs := float64(time.Since(serialStart).Microseconds()) / 1000
	treeStart := time.Now()
	treeDst, err := mergex.Tree(treeItems, (*cardinality.HLL).Merge)
	if err != nil {
		return &Result{ID: "E28", Title: "cache-conscious layouts and batch-pipelined ingest",
			Notes: []string{fmt.Sprintf("tree merge: %v", err)}}
	}
	treeMs := float64(time.Since(treeStart).Microseconds()) / 1000

	workers := runtime.GOMAXPROCS(0)
	mergeTbl := core.NewTable(
		fmt.Sprintf("tree vs serial fan-in, %d HLL shards p=%d (%d KiB/shard)", shards, hllP, (1<<hllP)/1024),
		"schedule", "wall_ms", "speedup", "workers", "estimate")
	mergeTbl.AddRow("serial fold", serialMs, 1.0, 1, serialDst.Estimate())
	mergeTbl.AddRow("parallel tree", treeMs, serialMs/treeMs, workers, treeDst.Estimate())

	notes := []string{
		fmt.Sprintf("blocked Bloom Add speedup over standard at ~%.0f MiB (> L2, past L3): %.2fx (acceptance ≥1.5x: %s)",
			bigMiB, bloomSpeedup, metStr(bloomSpeedup >= 1.5)),
		fmt.Sprintf("at the L3-resident design-load size (~%.1f MiB) the gap narrows to %.2fx — when both layouts fit in L3 the probe misses the blocking saves are cheap ones",
			float64(std.M())/8/(1<<20), stdAdd/blkAdd),
		fmt.Sprintf("batch-pipelined Count-Min ingest speedup over scalar: %.2fx (acceptance ≥1.5x: %s)",
			cmSpeedup, metStr(cmSpeedup >= 1.5)),
		fmt.Sprintf("blocked FPR %.4f vs blocked-theory %.4f (ratio %.2f) — the blocking penalty over the flat bound %.4f is predicted, not a bug",
			float64(blkFP)/float64(nProbes), blkBound, float64(blkFP)/float64(nProbes)/blkBound, stdBound),
	}
	if workers == 1 {
		notes = append(notes, "parallel tree merge speedup qualified: GOMAXPROCS=1 on this host, so the tree's rounds run on one core")
	}
	return &Result{
		ID:     "E28",
		Title:  "cache-conscious layouts and batch-pipelined ingest",
		Claim:  "sketch speed at scale is a memory-system property: the paper's production deployments (§3) work because updates touch O(1) cache lines, and layout — blocked Bloom filters, fused Count-Min rows, pipelined batches, parallel fan-in — is where that constant is won",
		Tables: []*core.Table{bigSpeedTbl, bloomTbl, cmTbl, pipeTbl, mergeTbl},
		Bars: []Bar{bar(treeDst.Estimate() == serialDst.Estimate(),
			"the tree-merged estimate equals the serial fold's exactly (associative merges; same registers either way)")},
		Notes: notes,
	}
}

// nsPerOp times fn once and returns wall nanoseconds per op for the n
// operations it performs.
func nsPerOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// warmNs runs fn once untimed — faulting in every page the workload
// touches and warming the TLB — then times three identical passes and
// keeps the fastest. Without the warm pass a fresh multi-MiB sketch
// charges its page faults to the first timed loop; without the
// min-of-reps, a noisy neighbor on a shared host charges its cache
// and memory-bus contention to whichever layout ran while it was
// active. The minimum estimates uncontended speed, which is what a
// layout comparison is after.
func warmNs(n int, fn func()) float64 {
	fn()
	best := nsPerOp(n, fn)
	for rep := 0; rep < 2; rep++ {
		if ns := nsPerOp(n, fn); ns < best {
			best = ns
		}
	}
	return best
}
