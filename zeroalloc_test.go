package sketch_test

// Allocation-regression tests for the hash-once hot paths: every
// per-item update and query below must stay at exactly zero heap
// allocations, or the BenchmarkHot throughput numbers quietly rot.
// Keys are longer than 32 bytes where strings are involved, past the
// size where the compiler could hide a []byte(s) conversion in a stack
// temporary.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/concurrent"
	"repro/internal/frequency"
	"repro/internal/hashx"
	typereg "repro/internal/registry"
)

func assertZeroAlloc(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Errorf("%s: %v allocs per op, want 0", name, n)
	}
}

func TestZeroAllocHotPaths(t *testing.T) {
	key := []byte("https://example.com/api/v1/users/1000000")
	skey := strings.Repeat("zero-alloc-key/", 4) // 60 bytes

	f := bloom.NewWithEstimates(10_000, 0.01, 1)
	assertZeroAlloc(t, "bloom.Add", func() { f.Add(key) })
	assertZeroAlloc(t, "bloom.Contains", func() { _ = f.Contains(key) })
	assertZeroAlloc(t, "bloom.AddString", func() { f.AddString(skey) })
	assertZeroAlloc(t, "bloom.ContainsString", func() { _ = f.ContainsString(skey) })

	cf := bloom.NewCounting(1<<14, 5, 1)
	assertZeroAlloc(t, "bloom.CountingFilter.Add", func() { cf.Add(key) })
	assertZeroAlloc(t, "bloom.CountingFilter.Contains", func() { _ = cf.Contains(key) })

	cm := frequency.NewCountMin(512, 4, 1)
	assertZeroAlloc(t, "frequency.CountMin.AddUint64", func() { cm.AddUint64(42, 1) })
	assertZeroAlloc(t, "frequency.CountMin.Add", func() { cm.Add(key, 1) })
	assertZeroAlloc(t, "frequency.CountMin.AddString", func() { cm.AddString(skey) })
	assertZeroAlloc(t, "frequency.CountMin.EstimateUint64", func() { _ = cm.EstimateUint64(42) })

	ccm := frequency.NewCountMin(512, 4, 1)
	ccm.SetConservative(true)
	assertZeroAlloc(t, "frequency.CountMin(conservative).AddUint64", func() { ccm.AddUint64(42, 1) })

	cs := frequency.NewCountSketch(512, 5, 1)
	assertZeroAlloc(t, "frequency.CountSketch.AddUint64", func() { cs.AddUint64(42, 1) })
	assertZeroAlloc(t, "frequency.CountSketch.AddString", func() { cs.AddString(skey, 1) })

	h := cardinality.NewHLL(12, 1)
	assertZeroAlloc(t, "cardinality.HLL.AddUint64", func() { h.AddUint64(42) })
	assertZeroAlloc(t, "cardinality.HLL.Add", func() { h.Add(key) })
	assertZeroAlloc(t, "cardinality.HLL.AddString", func() { h.AddString(skey) })

	sf := frequency.NewSFSketch(512, 4, 4096, 4, 1)
	assertZeroAlloc(t, "frequency.SFSketch.AddUint64", func() { sf.AddUint64(42, 1) })
	assertZeroAlloc(t, "frequency.SFSketch.Add", func() { sf.Add(key, 1) })
	assertZeroAlloc(t, "frequency.SFSketch.AddString", func() { sf.AddString(skey) })
	assertZeroAlloc(t, "frequency.SFSketch.EstimateUint64", func() { _ = sf.EstimateUint64(42) })
	assertZeroAlloc(t, "frequency.SFSketch.EstimateString", func() { _ = sf.EstimateString(skey) })

	acm := concurrent.NewAtomicCountMin(512, 4, 1)
	assertZeroAlloc(t, "concurrent.AtomicCountMin.AddUint64", func() { acm.AddUint64(42, 1) })
	assertZeroAlloc(t, "concurrent.AtomicCountMin.AddString", func() { acm.AddString(skey, 1) })
	assertZeroAlloc(t, "concurrent.AtomicCountMin.EstimateUint64", func() { _ = acm.EstimateUint64(42) })

	handle := concurrent.NewShardedHLL(4, 12, 1).Handle()
	assertZeroAlloc(t, "concurrent.HLLHandle.AddUint64", func() { handle.AddUint64(42) })

	assertZeroAlloc(t, "hashx.XXHash64String", func() { _ = hashx.XXHash64String(skey, 1) })
	assertZeroAlloc(t, "hashx.Murmur3_128String", func() { _, _ = hashx.Murmur3_128String(skey, 1) })
}

func TestZeroAllocBlockedAndFusedPaths(t *testing.T) {
	// The PR 5 cache-conscious layouts and two-phase batch loops must
	// hold the same zero-allocation line as the scalar paths they
	// accelerate: the pipelined loops buffer their chunks in fixed-size
	// stack arrays, never on the heap.
	key := []byte("https://example.com/api/v1/users/1000000")
	skey := strings.Repeat("zero-alloc-key/", 4) // 60 bytes

	bf := bloom.NewBlockedWithEstimates(10_000, 0.01, 1)
	assertZeroAlloc(t, "bloom.BlockedFilter.Add", func() { bf.Add(key) })
	assertZeroAlloc(t, "bloom.BlockedFilter.Contains", func() { _ = bf.Contains(key) })
	assertZeroAlloc(t, "bloom.BlockedFilter.AddString", func() { bf.AddString(skey) })
	assertZeroAlloc(t, "bloom.BlockedFilter.ContainsString", func() { _ = bf.ContainsString(skey) })

	batch := make([][]byte, 512)
	for i := range batch {
		batch[i] = key
	}
	h1s := make([]uint64, 512)
	h2s := make([]uint64, 512)
	for i := range h1s {
		h1s[i], h2s[i] = hashx.Murmur3_128(key, 1)
	}
	assertZeroAlloc(t, "bloom.BlockedFilter.AddBatch", func() { bf.AddBatch(batch) })
	assertZeroAlloc(t, "bloom.BlockedFilter.AddHashBatch", func() { bf.AddHashBatch(h1s, h2s) })

	f := bloom.NewWithEstimates(10_000, 0.01, 1)
	assertZeroAlloc(t, "bloom.Filter.AddBatch", func() { f.AddBatch(batch) })

	abf := concurrent.NewAtomicBlockedBloom(1<<17, 5, 1)
	assertZeroAlloc(t, "concurrent.AtomicBlockedBloom.Add", func() { abf.Add(key) })
	assertZeroAlloc(t, "concurrent.AtomicBlockedBloom.Contains", func() { _ = abf.Contains(key) })
	assertZeroAlloc(t, "concurrent.AtomicBlockedBloom.AddString", func() { abf.AddString(skey) })
	assertZeroAlloc(t, "concurrent.AtomicBlockedBloom.AddBatch", func() { abf.AddBatch(batch) })
	assertZeroAlloc(t, "concurrent.AtomicBlockedBloom.AddHashBatch", func() { abf.AddHashBatch(h1s, h2s) })

	hs := make([]uint64, 512)
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), 1)
	}

	fcm := frequency.NewCountMinLayout(frequency.Layout{Width: 2048, Depth: 5, Mode: frequency.Fused, Seed: 1})
	assertZeroAlloc(t, "frequency.CountMin(fused).AddUint64", func() { fcm.AddUint64(42, 1) })
	assertZeroAlloc(t, "frequency.CountMin(fused).EstimateUint64", func() { _ = fcm.EstimateUint64(42) })
	assertZeroAlloc(t, "frequency.CountMin(fused).AddHashBatch", func() { fcm.AddHashBatch(hs) })

	cm := frequency.NewCountMin(2048, 5, 1)
	assertZeroAlloc(t, "frequency.CountMin.AddHashBatch", func() { cm.AddHashBatch(hs) })
	assertZeroAlloc(t, "frequency.CountMin.AddBatch", func() { cm.AddBatch(batch) })

	fcs := frequency.NewCountSketchLayout(frequency.Layout{Width: 2048, Depth: 5, Mode: frequency.Fused, Seed: 1})
	assertZeroAlloc(t, "frequency.CountSketch(fused).AddUint64", func() { fcs.AddUint64(42, 1) })
	assertZeroAlloc(t, "frequency.CountSketch(fused).EstimateUint64", func() { _ = fcs.EstimateUint64(42) })
	assertZeroAlloc(t, "frequency.CountSketch(fused).AddHashBatch", func() { fcs.AddHashBatch(hs) })

	cs := frequency.NewCountSketch(2048, 5, 1)
	assertZeroAlloc(t, "frequency.CountSketch.AddHashBatch", func() { cs.AddHashBatch(hs) })

	sf := frequency.NewSFSketch(512, 4, 4096, 4, 1)
	assertZeroAlloc(t, "frequency.SFSketch.AddHashBatch", func() { sf.AddHashBatch(hs) })
	assertZeroAlloc(t, "frequency.SFSketch.AddBatch", func() { sf.AddBatch(batch) })

	h := cardinality.NewHLL(12, 1)
	assertZeroAlloc(t, "cardinality.HLL.AddHashBatch", func() { h.AddHashBatch(hs) })
}

func TestZeroAllocBufferedWriterPaths(t *testing.T) {
	// The local-buffer/global-propagation writer handles: the whole
	// point of writer-local ingest is an L1-resident append per update,
	// so any allocation on the hot path (including in the amortized
	// buffer handoff — recycled through channels, never reallocated)
	// defeats the design. The propagator goroutine, applying each flush
	// half with the plain kernel under a mutex, runs concurrently with
	// the measurement and must stay alloc-free too.
	key := []byte("https://example.com/api/v1/users/1000000")

	bc := bufferOver(frequency.NewCountMin(512, 4, 1), (*frequency.CountMin).AddWeightedHashBatch)
	defer bc.Close()
	bw := bc.Writer()
	assertZeroAlloc(t, "concurrent.Writer.Put2 (countmin)", func() { bw.Put2(hashx.XXHash64(key, 1), 1) })
	block := make([]uint64, 300)
	assertZeroAlloc(t, "concurrent.Buffer.Add (countmin)", func() { bc.Add(block, block) })

	bh := bufferOver(cardinality.NewHLL(12, 1), func(h *cardinality.HLL, h1s, _ []uint64) { h.AddHashBatch(h1s) })
	defer bh.Close()
	hw := bh.Writer()
	assertZeroAlloc(t, "concurrent.Writer.Put (hll)", func() { hw.Put(42) })

	bb := bufferOver(bloom.NewBlocked(1<<17, 5, 1), (*bloom.BlockedFilter).AddHashBatch)
	defer bb.Close()
	fw := bb.Writer()
	assertZeroAlloc(t, "concurrent.Writer.Put2 (blockedbloom)", func() { fw.Put2(hashx.Murmur3_128(key, 1)) })

	// What a buffered sketchd serves: the registry's ingest binding on
	// Serving(p, true) — cut, parse and hash a body into the pooled
	// block, hand it to a pooled writer, flush at batch end.
	var body []byte
	for i := 0; i < 1024; i++ {
		body = append(body, "flow"+strconv.Itoa(i%300)+"\t"+strconv.Itoa(1+i%9)+"\n"...)
	}
	d, _ := typereg.Lookup("countmin")
	p, err := d.Validate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := d.Serving(p, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.(interface{ Close() }).Close()
	assertZeroAlloc(t, "countmin Bind.Ingest on Serving(p, true)", func() {
		if _, err := d.Bind.Ingest(inst, body); err != nil {
			t.Fatal(err)
		}
	})
}

func TestZeroAllocRegistryIngest(t *testing.T) {
	// A served body is cut and parsed once into a block the binding
	// recycles: after the first request has sized it, the whole adapter
	// — cut lines, split weights, hash, pooled block, batch kernel —
	// allocates nothing.
	var weighted, plain []byte
	for i := 0; i < 1024; i++ {
		plain = append(plain, "flow"+strconv.Itoa(i%300)+"\n"...)
		weighted = append(weighted, "flow"+strconv.Itoa(i%300)+"\t"+strconv.Itoa(1+i%9)+"\n"...)
	}
	for _, tc := range []struct {
		typ  string
		body []byte
	}{
		{"countmin", weighted},    // (hash, weight) block into the weighted kernel, under the holder's lock
		{"sfsketch", weighted},    // the same block and the same lock
		{"countsketch", weighted}, // (item, signed weight) block, applied item by item
		{"hll", plain},            // (h1, h2) block into the register kernel, under the same lock
		{"blockedbloom", plain},   // (h1, h2) block into the filter's batch kernel, under the same lock
	} {
		d, ok := typereg.Lookup(tc.typ)
		if !ok {
			t.Fatalf("no descriptor %q", tc.typ)
		}
		p, err := d.Validate(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Bind over the plain instance and over what a live entry holds:
		// the plain instance behind the registry's locked holder (whose
		// lock, like the no-op on a bare instance, must cost no
		// allocation), and for a hashed family its buffered form (a pooled
		// writer handle, flushed at batch end).
		plain, err := d.New(p)
		if err != nil {
			t.Fatal(err)
		}
		insts := map[string]any{"plain": plain}
		for variant, buffered := range map[string]bool{"served": false, "buffered": true} {
			if variant == "buffered" && d.Kernel == nil {
				continue
			}
			if insts[variant], err = d.Serving(p, buffered); err != nil {
				t.Fatal(err)
			}
			if c, ok := insts[variant].(interface{ Close() }); ok {
				defer c.Close()
			}
		}
		for variant, inst := range insts {
			ingest := func() {
				if _, err := d.Bind.Ingest(inst, tc.body); err != nil {
					t.Fatal(err)
				}
			}
			assertZeroAlloc(t, tc.typ+"/"+variant+" Ingest", ingest)
		}
	}
}
