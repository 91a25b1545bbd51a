// Package benchrun is the reproducible hot-path benchmark harness: a
// fixed suite of per-operation microbenchmarks over the sketch update
// paths, runnable both under `go test -bench` (hotpath_bench_test.go
// at the module root) and from `sketchbench -bench`, which serializes
// the results to the BENCH_*.json trajectory files ROADMAP tracks.
//
// Methodology: every structure is sized once (L2-resident) and keys
// cycle through a pre-generated pool, so ns/op measures the update
// path itself rather than DRAM misses on a structure that grows with
// b.N, and allocs/op exposes any per-item heap traffic — the two
// quantities the hash-once/allocation-free work optimizes.
package benchrun

import (
	"encoding"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/concurrent"
	"repro/internal/frequency"
	"repro/internal/hashx"
	typereg "repro/internal/registry"
	"repro/internal/server"
)

// keyCount is the pooled-key working set; a power of two so the cycle
// index is a mask, not a modulo.
const keyCount = 1 << 16

// ByteKeys returns keyCount distinct 8-byte keys.
func ByteKeys() [][]byte {
	keys := make([][]byte, keyCount)
	for i := range keys {
		keys[i] = hashx.Uint64Bytes(uint64(i) * 0x9e3779b97f4a7c15)
	}
	return keys
}

// StringKeys returns URL-shaped keys longer than 32 bytes — past the
// size where a []byte(s) conversion can hide in a stack temporary, the
// regime the string fast paths are specialized for.
func StringKeys() []string {
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = "https://example.com/api/v1/users/" + strconv.Itoa(1_000_000+i*7919)
	}
	return keys
}

// NamedBench is one suite entry.
type NamedBench struct {
	Name string
	F    func(b *testing.B)
}

// Benchmarks returns the hot-path suite in reporting order.
func Benchmarks() []NamedBench {
	return []NamedBench{
		{"BloomAdd", func(b *testing.B) {
			f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
			keys := ByteKeys()
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Add(keys[i&(keyCount-1)])
			}
		}},
		{"BloomContains", func(b *testing.B) {
			f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
			keys := ByteKeys()
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
			keys := ByteKeys()
			batch := keys[:1024]
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i += len(batch) {
				f.AddBatch(batch)
			}
		}},
		{"BlockedBloomAdd", func(b *testing.B) {
			f := bloom.NewBlockedWithEstimates(1_000_000, 0.01, 1)
			keys := ByteKeys()
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Add(keys[i&(keyCount-1)])
			}
		}},
		{"BlockedBloomContains", func(b *testing.B) {
			f := bloom.NewBlockedWithEstimates(1_000_000, 0.01, 1)
			keys := ByteKeys()
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
			keys := ByteKeys()
			batch := keys[:1024]
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i += len(batch) {
				f.AddBatch(batch)
			}
		}},
		{"BloomAddString", func(b *testing.B) {
			f := bloom.NewWithEstimates(1_000_000, 0.01, 1)
			keys := StringKeys()
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
			keys := ByteKeys()
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cm.Add(keys[i&(keyCount-1)], 1)
			}
		}},
		{"CountMinAddString", func(b *testing.B) {
			cm := frequency.NewCountMin(2048, 5, 1)
			keys := StringKeys()
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
			keys := StringKeys()
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
			c := concurrent.NewBufferedCountMin(2048, 4, 1)
			defer c.Close()
			w := c.Writer()
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.AddHash(uint64(i)*0x9E3779B97F4A7C15, 1)
			}
			b.StopTimer()
			w.Flush()
			c.Sync()
		}},
		{"BufferedCountMinWriterParallel", func(b *testing.B) {
			// The contended shape E29 sweeps: every benchmark worker its
			// own writer handle, one propagator folding into the global.
			c := concurrent.NewBufferedCountMin(2048, 4, 1)
			defer c.Close()
			b.SetBytes(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := c.Writer()
				var i uint64
				for pb.Next() {
					w.AddHash(i*0x9E3779B97F4A7C15, 1)
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
			h := concurrent.NewBufferedHLL(14, 1)
			defer h.Close()
			w := h.Writer()
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.AddHash(uint64(i) * 0x9E3779B97F4A7C15)
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
			f.AddBatch(ByteKeys())
			return f
		})},
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
		{"RegistryCountMinWeightedIngest", registryCountMinWeightedIngest},
		{"ServerCountMinIngest", serverCountMinIngest},
		{"ClusterRingRoute", ringRoute(4)},
		{"RingLocate", ringRoute(16)},
		{"ClusterFanOutAdd4", clusterFanOutAdd},
		{"ClusterScatterGather4", clusterScatterGather},
		{"ClusterSlimSnapshot4", clusterSlimSnapshot},
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
// SplitBatchAppend over a weighted newline-delimited body, weight
// parsing and the countmin entry update — per line, excluding HTTP.
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
	items := make([][]byte, 0, lines)
	b.SetBytes(int64(len(body) / lines))
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		items = server.SplitBatchAppend(items[:0], body)
		if err := entry.Add(items); err != nil {
			b.Fatal(err)
		}
	}
}

// registryCountMinWeightedIngest measures the registry's ingest adapter
// alone on the serving Count-Min: one 1024-line weighted body through
// Serve.Ingest — cut weights, hash, pooled block, weighted batch kernel
// — per line. Steady state allocates nothing.
func registryCountMinWeightedIngest(b *testing.B) {
	d, _ := typereg.Lookup("countmin")
	p, err := d.Validate(1, map[string]float64{"width": 65536})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := d.ServingNew()(p)
	if err != nil {
		b.Fatal(err)
	}
	const lines = 1024
	items := make([][]byte, lines)
	for i := range items {
		items[i] = []byte("flow" + strconv.Itoa(i*7919%100000) + "\t" + strconv.Itoa(1+i%9))
	}
	b.SetBytes(int64(len(items[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i += lines {
		if err := d.Serve.Ingest(inst, items); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one benchmark's measured figures.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
}

// WireBytes records one family's serialized envelope sizes after a
// fixed reference ingest: the full form (what durability, replication
// and default reads ship) and, for families with a slim wire form, the
// slim envelope. Transmitted bytes are a tracked performance budget
// exactly like ns/op — benchdiff reports their deltas so a format
// change that quietly fattens the wire shows up in review.
type WireBytes struct {
	Type      string `json:"type"`
	FullBytes int    `json:"full_bytes"`
	SlimBytes int    `json:"slim_bytes,omitempty"`
}

// Report is the BENCH_*.json document. Schema 2 adds the host
// description (cpu_model, cache_line_bytes) so a reader comparing two
// reports can tell a code regression from a machine change — ns/op
// across different CPU models is not a diff, it's two experiments.
// Schema 3 adds wire_bytes: per-family envelope sizes at a fixed
// reference ingest, split full vs slim.
type Report struct {
	Schema         int         `json:"schema"`
	GoVersion      string      `json:"go_version"`
	GOOS           string      `json:"goos"`
	GOARCH         string      `json:"goarch"`
	GOMAXPROCS     int         `json:"gomaxprocs"`
	CPUModel       string      `json:"cpu_model,omitempty"`
	CacheLineBytes int         `json:"cache_line_bytes,omitempty"`
	WireBytes      []WireBytes `json:"wire_bytes,omitempty"`
	Results        []Result    `json:"results"`
}

// wireSizes measures every servable family's envelope sizes after the
// same 1024-line reference ingest (numeric lines, which every input
// kind accepts). Families whose default ingest rejects the reference
// batch are recorded with their post-create envelope instead — size
// still tracks format changes, which is what the diff is for.
func wireSizes() []WireBytes {
	var items [][]byte
	for i := 0; i < 1024; i++ {
		items = append(items, []byte(strconv.Itoa(i*7919%100000)))
	}
	var out []WireBytes
	for _, d := range typereg.All() {
		if !d.Servable() {
			continue
		}
		entry, err := server.NewEntry(server.CreateRequest{Type: d.Name})
		if err != nil {
			continue
		}
		_ = entry.Add(items)
		full, err := entry.Snapshot()
		if err != nil {
			entry.Close()
			continue
		}
		wb := WireBytes{Type: d.Name, FullBytes: len(full)}
		if slim, used, err := entry.SnapshotWire(nil, true); err == nil && used {
			wb.SlimBytes = len(slim)
		}
		entry.Close()
		out = append(out, wb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// hostCPUModel reads the CPU model name from /proc/cpuinfo. Empty on
// non-Linux hosts or unreadable procfs — the field is omitempty.
func hostCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// hostCacheLineBytes reads the L1 line size from sysfs, falling back
// to 64 — the line size on every x86-64 and almost every aarch64 part,
// and the constant the blocked layouts are designed around.
func hostCacheLineBytes() int {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size")
	if err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && n > 0 {
			return n
		}
	}
	return 64
}

// Run executes the whole suite with testing.Benchmark and collects the
// results, calling progress (if non-nil) with each benchmark's name
// before it starts. Callers control duration via testing.Init + the
// test.benchtime flag (see cmd/sketchbench).
func Run(progress func(name string)) Report {
	rep := Report{
		Schema:         3,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		CPUModel:       hostCPUModel(),
		CacheLineBytes: hostCacheLineBytes(),
		WireBytes:      wireSizes(),
	}
	for _, nb := range Benchmarks() {
		if progress != nil {
			progress(nb.Name)
		}
		r := testing.Benchmark(nb.F)
		res := Result{
			Name:        nb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerSec = float64(r.Bytes*int64(r.N)) / 1e6 / r.T.Seconds()
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// MarshalIndent renders the report as the committed JSON format.
func (r Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
