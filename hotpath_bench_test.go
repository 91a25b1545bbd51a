package sketch_test

// Hot-path microbenchmarks: `go test -run '^$' -bench 'Hot/<row>'
// -benchmem -count 8 .` is how every kernel, wire and cluster-hop
// timing README, DESIGN and EXPERIMENTS cite is reproduced. Timings
// here inform; the end-to-end claims of a PR are judged by benchmark/,
// and the counts these rows print (allocs/op, envelope bytes) are
// pinned by tier-1 tests next to the code they count.
//
// Methodology: every structure is sized once (L2-resident) and keys
// cycle through a pre-generated pool, so ns/op measures the update
// path itself rather than DRAM misses on a structure that grows with
// b.N, and allocs/op exposes any per-item heap traffic — the two
// quantities the hash-once/allocation-free work optimizes. The rows
// named ...4M are the exception on purpose: a filter at the served
// shape (4.8 MB, past L2) fed more distinct keys than it has cache
// lines, because a stall on a miss cannot show on a resident table.

import (
	"encoding"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/frequency"
	"repro/internal/hashx"
	typereg "repro/internal/registry"
	"repro/internal/server"
	"repro/internal/server/client"
)

func BenchmarkHot(b *testing.B) {
	for _, nb := range hotBenchmarks {
		b.Run(nb.name, nb.f)
	}
}

// bufferOver is the buffered serving shape the Buffered rows and the
// writer allocation audit price: a concurrent.Buffer in front of a
// plain sketch's batch kernel under one mutex, as the registry builds
// it.
func bufferOver[S any](s S, kernel func(S, []uint64, []uint64)) *concurrent.Buffer {
	var mu sync.Mutex
	return concurrent.NewBuffer(concurrent.DefaultWriterBuffer, func(a, b []uint64) {
		mu.Lock()
		defer mu.Unlock()
		kernel(s, a, b)
	})
}

// hllKernel is the HLL's register update over the first of the two
// words an item the buffered serving path puts.
func hllKernel(h *cardinality.HLL, h1s, _ []uint64) { h.AddHashBatch(h1s) }

// keyCount is the pooled-key working set; a power of two so the cycle
// index is a mask, not a modulo.
const keyCount = 1 << 16

// byteKeys returns keyCount distinct 8-byte keys.
func byteKeys() [][]byte {
	keys := make([][]byte, keyCount)
	for i := range keys {
		keys[i] = hashx.Uint64Bytes(uint64(i) * 0x9e3779b97f4a7c15)
	}
	return keys
}

// stringKeys returns URL-shaped keys longer than 32 bytes — past the
// size where a []byte(s) conversion can hide in a stack temporary, the
// regime the string fast paths are specialized for.
func stringKeys() []string {
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = "https://example.com/api/v1/users/" + strconv.Itoa(1_000_000+i*7919)
	}
	return keys
}

// hotBenchmarks is the suite in reporting order. A row's name is what
// the docs cite it by; renaming one orphans its history.
var hotBenchmarks = []struct {
	name string
	f    func(b *testing.B)
}{
	{"BloomAdd", func(b *testing.B) {
		f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
		keys := byteKeys()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Add(keys[i&(keyCount-1)])
		}
	}},
	{"BloomContains", func(b *testing.B) {
		f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
		keys := byteKeys()
		for _, k := range keys {
			f.Add(k)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Contains(keys[i&(keyCount-1)])
		}
	}},
	{"BloomAddBatch", func(b *testing.B) {
		f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
		keys := byteKeys()
		batch := keys[:1024]
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(batch) {
			f.AddBatch(batch)
		}
	}},
	{"BlockedBloomAdd", func(b *testing.B) {
		f := bloom.NewBlockedWithEstimates(1_000_000, 0.01, 1)
		keys := byteKeys()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Add(keys[i&(keyCount-1)])
		}
	}},
	{"BlockedBloomContains", func(b *testing.B) {
		f := bloom.NewBlockedWithEstimates(1_000_000, 0.01, 1)
		keys := byteKeys()
		for _, k := range keys {
			f.Add(k)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Contains(keys[i&(keyCount-1)])
		}
	}},
	{"BlockedBloomAddBatch", func(b *testing.B) {
		f := bloom.NewBlockedWithEstimates(1_000_000, 0.01, 1)
		keys := byteKeys()
		batch := keys[:1024]
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(batch) {
			f.AddBatch(batch)
		}
	}},
	{"BlockedBloomAddBatch4M", func(b *testing.B) {
		f := bloom.NewBlockedWithEstimates(4_000_000, 0.01, 1)
		bloomAddBatch4M(b, f.AddBatch)
	}},
	{"AtomicBlockedBloomAddBatch4M", func(b *testing.B) {
		shape := bloom.NewBlockedWithEstimates(4_000_000, 0.01, 1)
		f := concurrent.NewAtomicBlockedBloom(shape.M(), shape.K(), 1)
		bloomAddBatch4M(b, f.AddBatch)
	}},
	{"BloomAddString", func(b *testing.B) {
		f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
		keys := stringKeys()
		b.SetBytes(int64(len(keys[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.AddString(keys[i&(keyCount-1)])
		}
	}},
	{"CountMinAddUint64", func(b *testing.B) {
		cm := frequency.NewCountMin(2048, 5, 1)
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.AddUint64(uint64(i), 1)
		}
	}},
	{"CountMinAddBytes", func(b *testing.B) {
		cm := frequency.NewCountMin(2048, 5, 1)
		keys := byteKeys()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Add(keys[i&(keyCount-1)], 1)
		}
	}},
	{"CountMinAddString", func(b *testing.B) {
		cm := frequency.NewCountMin(2048, 5, 1)
		keys := stringKeys()
		b.SetBytes(int64(len(keys[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.AddString(keys[i&(keyCount-1)])
		}
	}},
	{"CountMinFusedAddUint64", func(b *testing.B) {
		cm := frequency.NewCountMinLayout(frequency.Layout{Width: 2048, Depth: 5, Mode: frequency.Fused, Seed: 1})
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.AddUint64(uint64(i), 1)
		}
	}},
	{"CountMinAddHashBatch", func(b *testing.B) {
		cm := frequency.NewCountMin(2048, 5, 1)
		hs := make([]uint64, 1024)
		for i := range hs {
			hs[i] = hashx.HashUint64(uint64(i), 1)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) {
			cm.AddHashBatch(hs)
		}
	}},
	{"CountMinFusedAddHashBatch", func(b *testing.B) {
		cm := frequency.NewCountMinLayout(frequency.Layout{Width: 2048, Depth: 5, Mode: frequency.Fused, Seed: 1})
		hs := make([]uint64, 1024)
		for i := range hs {
			hs[i] = hashx.HashUint64(uint64(i), 1)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) {
			cm.AddHashBatch(hs)
		}
	}},
	{"CountMinKWiseAddUint64", func(b *testing.B) {
		cm := frequency.NewCountMinLayout(frequency.Layout{Width: 2048, Depth: 5, Mode: frequency.KWise, Seed: 1})
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.AddUint64(uint64(i), 1)
		}
	}},
	{"CountSketchAddUint64", func(b *testing.B) {
		cs := frequency.NewCountSketch(2048, 5, 1)
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.AddUint64(uint64(i), 1)
		}
	}},
	{"HLLAddUint64", func(b *testing.B) {
		h := cardinality.NewHLL(14, 1)
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.AddUint64(uint64(i))
		}
	}},
	{"HLLAddString", func(b *testing.B) {
		h := cardinality.NewHLL(14, 1)
		keys := stringKeys()
		b.SetBytes(int64(len(keys[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.AddString(keys[i&(keyCount-1)])
		}
	}},
	{"AtomicCountMinAddUint64", func(b *testing.B) {
		cm := concurrent.NewAtomicCountMin(2048, 4, 1)
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.AddUint64(uint64(i), 1)
		}
	}},
	{"AtomicCountMinAddHashBatch", func(b *testing.B) {
		cm := concurrent.NewAtomicCountMin(2048, 4, 1)
		hs := make([]uint64, 1024)
		for i := range hs {
			hs[i] = hashx.HashUint64(uint64(i), 1)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) {
			cm.AddHashBatch(hs)
		}
	}},
	{"ShardedHLLAddHashBatch", func(b *testing.B) {
		s := concurrent.NewShardedHLL(runtime.GOMAXPROCS(0), 14, 1)
		h := s.Handle()
		hs := make([]uint64, 1024)
		for i := range hs {
			hs[i] = hashx.HashUint64(uint64(i), 1)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) {
			h.AddHashBatch(hs)
		}
	}},
	{"BufferedCountMinWriterAddHash", func(b *testing.B) {
		c := bufferOver(frequency.NewCountMin(2048, 4, 1), (*frequency.CountMin).AddWeightedHashBatch)
		defer c.Close()
		w := c.Writer()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Put2(uint64(i)*0x9E3779B97F4A7C15, 1)
		}
		b.StopTimer()
		w.Flush()
		c.Sync()
	}},
	{"BufferedCountMinWriterParallel", func(b *testing.B) {
		// The contended shape E29 sweeps: every benchmark worker its
		// own writer handle, one propagator folding into the sketch.
		c := bufferOver(frequency.NewCountMin(2048, 4, 1), (*frequency.CountMin).AddWeightedHashBatch)
		defer c.Close()
		b.SetBytes(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := c.Writer()
			var i uint64
			for pb.Next() {
				w.Put2(i*0x9E3779B97F4A7C15, 1)
				i++
			}
			w.Flush()
		})
		c.Sync()
	}},
	{"AtomicCountMinAddHashParallel", func(b *testing.B) {
		// The shared-memory counterpart of the parallel buffered
		// bench: same updates, every worker on the same cache lines.
		cm := concurrent.NewAtomicCountMin(2048, 4, 1)
		b.SetBytes(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var i uint64
			for pb.Next() {
				cm.AddHash(i*0x9E3779B97F4A7C15, 1)
				i++
			}
		})
	}},
	{"BufferedHLLWriterAddHash", func(b *testing.B) {
		h := bufferOver(cardinality.NewHLL(14, 1), hllKernel)
		defer h.Close()
		w := h.Writer()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Put(uint64(i) * 0x9E3779B97F4A7C15)
		}
		b.StopTimer()
		w.Flush()
		h.Sync()
	}},
	{"SFSketchAddUint64", func(b *testing.B) {
		sf := frequency.NewSFSketch(512, 4, 4096, 4, 1)
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sf.AddUint64(uint64(i), 1)
		}
	}},
	{"SFSketchAddHashBatch", func(b *testing.B) {
		sf := frequency.NewSFSketch(512, 4, 4096, 4, 1)
		hs := make([]uint64, 1024)
		for i := range hs {
			hs[i] = hashx.HashUint64(uint64(i), 1)
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) {
			sf.AddHashBatch(hs)
		}
	}},
	// The wire hop, next to the kernels it ships: MB/s of envelope.
	{"CountMinMarshal2MB", marshalBench(func() encoding.BinaryMarshaler { return countMin2MB() })},
	{"CountMinDecode2MB", func(b *testing.B) {
		env, _ := countMin2MB().MarshalBinary()
		var into frequency.CountMin
		b.SetBytes(int64(len(env)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := into.UnmarshalBinary(env); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"AtomicCountMinMarshal2MB", marshalBench(func() encoding.BinaryMarshaler {
		cm := concurrent.NewAtomicCountMin(65536, 4, 1)
		fillTable(cm.AddHashBatch)
		return cm
	})},
	{"SFSketchMarshalFull", marshalBench(func() encoding.BinaryMarshaler {
		sf := frequency.NewSFSketch(4096, 4, 32768, 4, 1)
		fillTable(sf.AddHashBatch)
		return sf
	})},
	{"BlockedBloomMarshal", marshalBench(func() encoding.BinaryMarshaler {
		f := bloom.NewBlockedWithEstimates(4_000_000, 0.01, 1)
		f.AddBatch(byteKeys())
		return f
	})},
	{"SFSketchDecodeFull", func(b *testing.B) {
		sf := frequency.NewSFSketch(4096, 4, 32768, 4, 1)
		fillTable(sf.AddHashBatch)
		env, _ := sf.MarshalBinary()
		var into frequency.SFSketch
		b.SetBytes(int64(len(env)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := into.UnmarshalBinary(env); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// A gathered read's fold: four shards' full SF envelopes at
	// benchmark/gen's shape, merged as bytes into the first (MB/s of
	// envelope folded).
	{"SFSketchFoldWire4", func(b *testing.B) {
		envs := make([][]byte, 4)
		for i := range envs {
			sf := frequency.NewSFSketch(4096, 4, 32768, 4, 1)
			fillTable(sf.AddHashBatch)
			envs[i], _ = sf.MarshalBinary()
		}
		b.SetBytes(int64(len(envs) * len(envs[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := typereg.MergeEnvelopes(envs); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// The block kernels under every gathered read and served batch.
	{"HLLMerge", func(b *testing.B) {
		x, y := loadedHLL(1), loadedHLL(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Merge(y); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"HLLEstimate", func(b *testing.B) {
		h := loadedHLL(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimateSink = h.Estimate()
		}
	}},
	{"ShardedHLLEstimateUnderWrites", func(b *testing.B) {
		// Every read follows a write, so every read rebuilds the
		// merged view: a copy, a merge and an estimate.
		s := concurrent.NewShardedHLL(2, 14, 1)
		hs := make([]uint64, keyCount)
		for i := range hs {
			hs[i] = hashx.HashUint64(uint64(i), 1)
		}
		s.Handle().AddHashBatch(hs)
		s.Handle().AddHashBatch(hs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Handle().AddHashBatch(hs[i&(keyCount-1):][:1])
			estimateSink = s.Estimate()
		}
	}},
	{"RegistryCountMinWeightedIngest", registryCountMinWeightedIngest(1)},
	{"RegistryCountMinWeightedIngestParallel", registryCountMinWeightedIngest(2)},
	{"ServerCountMinIngest", serverCountMinIngest},
	{"ClusterRingRoute", ringRoute(4)},
	{"RingLocate", ringRoute(16)},
	{"ClusterFanOutAdd4", clusterFanOutAdd},
	{"ClusterScatterGather4", clusterScatterGather},
	{"ClusterSlimSnapshot4", clusterSnapshot(512, "slim")},
	{"ClusterSnapshotSFFull", clusterSnapshot(4096, "full")},
	{"ClusterSnapshotSFSlim", clusterSnapshot(4096, "slim")},
	{"XXHash64String64B", func(b *testing.B) {
		s := string(make([]byte, 64))
		b.SetBytes(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hashx.XXHash64String(s, 1)
		}
	}},
	{"Murmur3_128String64B", func(b *testing.B) {
		s := string(make([]byte, 64))
		b.SetBytes(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hashx.Murmur3_128String(s, 1)
		}
	}},
	{"Murmur3_128ShortKeys", func(b *testing.B) {
		// "flow<k>" as the benchmark spells its keys, 5 to 11 bytes, the
		// digit count drawn per key so the lengths do not repeat in
		// order: a fixed-length fixture trains the branch predictor on
		// the one tail it ever sees.
		keys := make([][]byte, keyCount)
		var total int64
		x := uint64(1)
		for i := range keys {
			x = hashx.Mix64(x)
			digits := strconv.FormatUint(x>>8|1<<40, 10) // 13 or more of them
			keys[i] = append([]byte("flow"), digits[:1+x%7]...)
			total += int64(len(keys[i]))
		}
		b.SetBytes(total / keyCount)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hashx.Murmur3_128(keys[i&(keyCount-1)], 1)
		}
	}},
}

// bloomAddBatch4M feeds addBatch 1024-key bodies that walk a pool of
// 2^18 distinct keys — 16 MB of distinct cache lines against a 4.8 MB
// filter, so each item's block has left L2 by the time it comes round.
func bloomAddBatch4M(b *testing.B, addBatch func([][]byte)) {
	const pool = 1 << 18
	keys := make([][]byte, pool)
	for i := range keys {
		keys[i] = hashx.Uint64Bytes(uint64(i) * 0x9e3779b97f4a7c15)
	}
	b.SetBytes(8)
	b.ResetTimer()
	for i := 0; i < b.N; i += 1024 {
		off := i & (pool - 1)
		addBatch(keys[off : off+1024])
	}
}

// wireSink keeps a marshalled envelope alive past the loop, and
// estimateSink an estimate.
var (
	wireSink     []byte
	estimateSink float64
)

// loadedHLL is the benchmark's hll shape (p = 14) after keyCount items.
func loadedHLL(seed uint64) *cardinality.HLL {
	h := cardinality.NewHLL(14, 1)
	for i := 0; i < keyCount; i++ {
		h.AddHash(hashx.HashUint64(uint64(i), seed))
	}
	return h
}

// marshalBench times MarshalBinary of the instance build returns.
func marshalBench(build func() encoding.BinaryMarshaler) func(b *testing.B) {
	return func(b *testing.B) {
		inst := build()
		env, err := inst.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(env)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wireSink, _ = inst.MarshalBinary()
		}
	}
}

// countMin2MB is the benchmark's cm shape (65536 × 4), loaded.
func countMin2MB() *frequency.CountMin {
	cm := frequency.NewCountMin(65536, 4, 1)
	fillTable(cm.AddHashBatch)
	return cm
}

// fillTable feeds a hashed-counter table keyCount item hashes, so that
// the cells it marshals are not all zero.
func fillTable(addHashBatch func([]uint64)) {
	hs := make([]uint64, keyCount)
	for i := range hs {
		hs[i] = hashx.HashUint64(uint64(i), 1)
	}
	addHashBatch(hs)
}

// serverCountMinIngest measures the full sketchd ingest inner loop —
// a weighted newline-delimited body into Entry.Ingest, which cuts,
// parses and hashes each line in one pass before the countmin update —
// per line, excluding HTTP.
func serverCountMinIngest(b *testing.B) {
	entry, err := server.NewEntry(server.CreateRequest{Type: "countmin"})
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	const lines = 1024
	for i := 0; i < lines; i++ {
		body = append(body, "item"+strconv.Itoa(i)+"\t3\n"...)
	}
	b.SetBytes(int64(len(body) / lines))
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		if _, err := entry.Ingest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// registryCountMinWeightedIngest measures the registry's ingest adapter
// alone on the serving Count-Min: one 1024-line weighted body through
// Bind.Ingest — cut weights, hash, pooled block, then the weighted batch
// kernel under the holder's lock — per line. Steady state allocates
// nothing. With writers > 1 it is that many goroutines (GOMAXPROCS is
// raised to match for the run) each sending its own bodies to the one
// sketch, and ns/op is wall time per line over all of them: the row that
// prices the lock's serialisation against the parse outside it.
func registryCountMinWeightedIngest(writers int) func(b *testing.B) {
	return func(b *testing.B) {
		d, _ := typereg.Lookup("countmin")
		p, err := d.Validate(1, map[string]float64{"width": 65536})
		if err != nil {
			b.Fatal(err)
		}
		inst, err := d.Serving(p, false)
		if err != nil {
			b.Fatal(err)
		}
		const lines = 1024
		var body []byte
		for i := 0; i < lines; i++ {
			body = append(body, "flow"+strconv.Itoa(i*7919%100000)+"\t"+strconv.Itoa(1+i%9)+"\n"...)
		}
		b.SetBytes(int64(len(body) / lines))
		if writers == 1 {
			b.ResetTimer()
			for i := 0; i < b.N; i += lines {
				if _, err := d.Bind.Ingest(inst, body); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(writers))
		b.SetParallelism(1)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for n := 0; pb.Next(); {
				if n++; n == lines {
					n = 0
					if _, err := d.Bind.Ingest(inst, body); err != nil {
						b.Error(err)
						return
					}
				}
			}
		})
	}
}

// Cluster-layer entries: the coordinator's hot paths measured over real
// loopback HTTP shards, next to the sketch kernels they sit on.

// clusterHarness stands up n in-process shards, each served as sketchd
// serves it (server.Listen), and a coordinator over them, all closed
// when the benchmark ends.
func clusterHarness(b *testing.B, n int) *cluster.Coordinator {
	b.Helper()
	urls := make([]string, n)
	for i := range urls {
		hs, base, err := server.Listen("127.0.0.1:0", server.New().Handler())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { hs.Close() })
		urls[i] = base
	}
	coord, err := cluster.NewCoordinator(urls, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return coord
}

// clusterFanOutAdd measures coordinator ingest end to end: POST a
// 1024-line batch, whole, to the one of 4 shards whose turn it is.
// Reported per line.
func clusterFanOutAdd(b *testing.B) {
	coord := clusterHarness(b, 4)
	const lines = 1024
	var body []byte
	for i := 0; i < lines; i++ {
		body = append(body, "item"+strconv.Itoa(i)+"\n"...)
	}
	for _, u := range coord.Shards() {
		if err := client.New(u).Create("bench", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(body) / lines))
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		if _, fails := coord.FanOutAdd("bench", body); len(fails) > 0 {
			b.Fatalf("fan-out failed: %v", fails)
		}
	}
}

// clusterScatterGather measures a global read end to end: snapshot all
// 4 shards in parallel, fold three envelopes into a copy of the fourth
// and decode the merged one. Reported per global query.
func clusterScatterGather(b *testing.B) {
	coord := clusterHarness(b, 4)
	const lines = 4096
	var body []byte
	for i := 0; i < lines; i++ {
		body = append(body, "item"+strconv.Itoa(i)+"\n"...)
	}
	for _, u := range coord.Shards() {
		if err := client.New(u).Create("bench", server.CreateRequest{Type: "hll", P: 12, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	if _, fails := coord.FanOutAdd("bench", body); len(fails) > 0 {
		b.Fatalf("seed ingest failed: %v", fails)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		envs, fails := coord.Gather("bench")
		if len(fails) > 0 {
			b.Fatalf("gather failed: %v", fails)
		}
		if _, _, err := cluster.MergeEnvelopes(envs); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterSnapshot measures the coordinator's merged /snapshot end to end
// over loopback HTTP: it scatter-gathers 4 shards' sfsketch envelopes
// of the given form through its pooled read buffers, merges them — as
// bytes, folded into the first where it arrived — and serves the merged
// envelope, which the reader takes into a buffer it reuses. The slim
// rows are the companions to clusterScatterGather (the delta is the
// slim-wire saving plus the pooled-buffer path); the two SF rows are
// benchmark/gen's shape (SFWidth × SFDepth, a 1.15 MB full envelope),
// the read that leads cluster_read.
func clusterSnapshot(width int, wire string) func(b *testing.B) {
	return func(b *testing.B) {
		coord := clusterHarness(b, 4)
		hs, base, err := server.Listen("127.0.0.1:0", coord)
		if err != nil {
			b.Fatal(err)
		}
		defer hs.Close()

		const lines = 4096
		var body []byte
		for i := 0; i < lines; i++ {
			body = append(body, "item"+strconv.Itoa(i)+"\n"...)
		}
		for _, u := range coord.Shards() {
			if err := client.New(u).Create("bench", server.CreateRequest{Type: "sfsketch", Width: width, Depth: 4, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
		if _, fails := coord.FanOutAdd("bench", body); len(fails) > 0 {
			b.Fatalf("seed ingest failed: %v", fails)
		}
		cl := client.New(base)
		env, err := cl.SnapshotAppend("bench", wire, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(env)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if env, err = cl.SnapshotAppend("bench", wire, env); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ringRoute measures the pure ring lookup (which no request routes by)
// over a ring of n shards x 128 virtual nodes: one XXHash64 plus the
// prefix-index lookup.
// ClusterRingRoute is the benchmark's 4-shard ring, one index bucket in
// eight holding a point; RingLocate the largest ring the package
// documents, 16 shards, every other bucket holding one.
func ringRoute(n int) func(b *testing.B) {
	return func(b *testing.B) {
		shards := make([]string, n)
		for i := range shards {
			shards[i] = "shard-" + strconv.Itoa(i)
		}
		ring, err := cluster.NewRing(shards, 0)
		if err != nil {
			b.Fatal(err)
		}
		keys := byteKeys()
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ring.Shard(keys[i&(keyCount-1)])
		}
	}
}
