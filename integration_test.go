package sketch_test

import (
	"fmt"
	"sort"
	"testing"

	sketch "repro"
	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/randx"
)

// These integration tests exercise whole-pipeline scenarios across
// modules: the distributed merge experiment (E7), serialization across
// a simulated worker/aggregator boundary, and the facade surface.

// TestDistributedMergePipeline reproduces E7's core claim: shard a
// stream across 64 workers, summarize each shard independently, merge
// the summaries, and get the same answers as one sketch that saw the
// whole stream.
func TestDistributedMergePipeline(t *testing.T) {
	const shards = 64
	const perShard = 5000
	const domain = 20000

	rng := randx.New(1)
	z := randx.NewZipf(rng, 1.2, domain)

	type worker struct {
		hll *sketch.HLLSketch
		cm  *sketch.CountMin
		kll *sketch.KLLSketch
		ss  *sketch.SpaceSaving
	}
	workers := make([]worker, shards)
	for i := range workers {
		workers[i] = worker{
			hll: sketch.NewHLL(12, 7),
			cm:  sketch.NewCountMin(1024, 5, 7),
			kll: sketch.NewKLL(200, uint64(i)),
			ss:  sketch.NewSpaceSaving(256),
		}
	}
	whole := worker{
		hll: sketch.NewHLL(12, 7),
		cm:  sketch.NewCountMin(1024, 5, 7),
		kll: sketch.NewKLL(200, 999),
		ss:  sketch.NewSpaceSaving(256),
	}
	truthCounts := map[uint64]uint64{}
	var allVals []float64
	for s := 0; s < shards; s++ {
		for i := 0; i < perShard; i++ {
			v := z.Next()
			truthCounts[v]++
			val := float64(v)
			allVals = append(allVals, val)
			w := &workers[s]
			w.hll.AddUint64(v)
			w.cm.AddUint64(v, 1)
			w.kll.Add(val)
			w.ss.Add(fmt.Sprint(v), 1)
			whole.hll.AddUint64(v)
			whole.cm.AddUint64(v, 1)
			whole.kll.Add(val)
			whole.ss.Add(fmt.Sprint(v), 1)
		}
	}

	merged := workers[0]
	for s := 1; s < shards; s++ {
		if err := merged.hll.Merge(workers[s].hll); err != nil {
			t.Fatal(err)
		}
		if err := merged.cm.Merge(workers[s].cm); err != nil {
			t.Fatal(err)
		}
		if err := merged.kll.Merge(workers[s].kll); err != nil {
			t.Fatal(err)
		}
		if err := merged.ss.Merge(workers[s].ss); err != nil {
			t.Fatal(err)
		}
	}

	// HLL and Count-Min merges are exactly lossless.
	if merged.hll.Estimate() != whole.hll.Estimate() {
		t.Error("merged HLL differs from single-stream HLL")
	}
	for item := uint64(1); item <= 50; item++ {
		if merged.cm.EstimateUint64(item) != whole.cm.EstimateUint64(item) {
			t.Error("merged Count-Min differs from single-stream sketch")
			break
		}
	}
	// KLL merge preserves the rank guarantee (randomized, not
	// bit-identical). Zipf data has heavy ties, so a returned value
	// covers an interval of ranks; the error is the distance from the
	// target rank to that interval.
	sort.Float64s(allVals)
	n := float64(len(allVals))
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		est := merged.kll.Quantile(q)
		lo := sort.SearchFloat64s(allVals, est)
		hi := lo
		for hi < len(allVals) && allVals[hi] == est {
			hi++
		}
		target := q * n
		var re float64
		switch {
		case target < float64(lo):
			re = (float64(lo) - target) / n
		case target > float64(hi):
			re = (target - float64(hi)) / n
		}
		if re > 4*merged.kll.Eps() {
			t.Errorf("merged KLL q=%.2f rank error %.4f", q, re)
		}
	}
	// SpaceSaving merged summary must contain the true top items.
	type kv struct {
		item  uint64
		count uint64
	}
	var top []kv
	for item, c := range truthCounts {
		top = append(top, kv{item, c})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].count > top[j].count })
	for _, hot := range top[:10] {
		if merged.ss.Estimate(fmt.Sprint(hot.item)) < hot.count {
			t.Errorf("merged SpaceSaving lost top item %d", hot.item)
		}
	}
	// True distinct count for reference accuracy.
	if err := core.RelErr(merged.hll.Estimate(), float64(len(truthCounts))); err > 0.05 {
		t.Errorf("merged HLL rel err %.4f vs true distinct %d", err, len(truthCounts))
	}
}

// TestSerializationAcrossBoundary simulates workers that serialize
// sketches to bytes (as they would onto a wire or into a row store) and
// an aggregator that restores and merges them.
func TestSerializationAcrossBoundary(t *testing.T) {
	wire := make([][]byte, 0, 8)
	var wantDistinct float64
	for w := 0; w < 8; w++ {
		h := sketch.NewHLL(11, 42)
		for i := 0; i < 10000; i++ {
			h.AddUint64(uint64(w*10000 + i))
		}
		wantDistinct += 10000
		data, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, data)
	}
	agg := sketch.NewHLL(11, 42)
	for _, data := range wire {
		var h sketch.HLLSketch
		if err := h.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if err := agg.Merge(&h); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.RelErr(agg.Estimate(), wantDistinct); err > 0.1 {
		t.Errorf("aggregated estimate rel err %.4f", err)
	}
}

// TestFacadeConstructorsSmoke constructs every sketch the root package
// names and performs one update+query; the families it does not name
// are reached through New and Decode, and constructed by their own
// package's tests.
func TestFacadeConstructorsSmoke(t *testing.T) {
	b := sketch.NewBloomWithEstimates(100, 0.01, 1)
	b.AddString("x")
	if !b.ContainsString("x") {
		t.Error("bloom")
	}

	m := sketch.NewMorris(1)
	m.Increment()
	mb := sketch.NewMorrisBase(1.2, 1)
	mb.Increment()

	h := sketch.NewHLL(10, 1)
	h.AddUint64(1)
	th := sketch.NewTheta(16, 1)
	th.AddUint64(1)

	cm := sketch.NewCountMin(64, 3, 1)
	cm.AddString("x")
	ss := sketch.NewSpaceSaving(8)
	ss.Add("x", 1)

	a := sketch.NewAMS(3, 16, 1)
	a.AddUint64(1, 1)

	kll := sketch.NewKLL(64, 1)
	kll.Add(1)
	td := sketch.NewTDigest(50)
	td.Add(1)
	req := sketch.NewREQ(16, 1)
	req.Add(1)
	ex := sketch.NewExactQuantiles()
	ex.Add(1)

	mh := sketch.NewMinHash(16, 1)
	mh.AddString("x")
	ix := sketch.NewLSHIndex(4, 4)
	if err := ix.Add("a", mh); err != nil {
		t.Error(err)
	}
	sh := sketch.NewSimHash(4, 16, 1)
	sh.Hash(make([]float64, 4))

	g := sketch.NewGraphSketch(8, 4, 1)
	g.AddEdge(0, 1)

	rp := sketch.NewRAPPOR(16, 2, 2, 1)
	rp.Encode("v", 1)
	pc := sketch.NewPrivateCMS(32, 4, 2, 1)
	pc.Absorb(pc.EncodeClient("v", 1))
	dp := sketch.NewDPCountMin(32, 3, 1, 1)
	dp.AddString("x")

	eh := sketch.NewEH(100, 8)
	eh.Tick(1)
	eh.Add()

	// Any family by name, and back from its envelope.
	inst, err := sketch.New("hll", 1, map[string]float64{"p": 10})
	if err != nil {
		t.Fatal(err)
	}
	byName := inst.(*sketch.HLLSketch)
	byName.AddUint64(1)
	data, err := byName.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sketch.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.(*sketch.HLLSketch).Estimate() != byName.Estimate() {
		t.Error("Decode(New(hll)) answers differently")
	}

	// Error vocabulary is exported.
	if sketch.ErrIncompatible == nil || sketch.ErrCorrupt == nil {
		t.Error("error values missing")
	}
}

// TestMergeCommutativityProperty checks commutativity of merges across
// several mergeable sketches under random shard splits.
func TestMergeCommutativityProperty(t *testing.T) {
	rng := randx.New(5)
	for trial := 0; trial < 10; trial++ {
		items := make([]uint64, 2000)
		for i := range items {
			items[i] = uint64(rng.Intn(500))
		}
		cut := 500 + rng.Intn(1000)

		buildHLL := func(vals []uint64) *sketch.HLLSketch {
			h := sketch.NewHLL(10, 3)
			for _, v := range vals {
				h.AddUint64(v)
			}
			return h
		}
		ab := buildHLL(items[:cut])
		if err := ab.Merge(buildHLL(items[cut:])); err != nil {
			t.Fatal(err)
		}
		ba := buildHLL(items[cut:])
		if err := ba.Merge(buildHLL(items[:cut])); err != nil {
			t.Fatal(err)
		}
		if ab.Estimate() != ba.Estimate() {
			t.Fatal("HLL merge not commutative")
		}

		buildKMV := func(vals []uint64) *cardinality.KMV {
			s := cardinality.NewKMV(64, 3)
			for _, v := range vals {
				s.AddUint64(v)
			}
			return s
		}
		kab := buildKMV(items[:cut])
		if err := kab.Merge(buildKMV(items[cut:])); err != nil {
			t.Fatal(err)
		}
		kba := buildKMV(items[cut:])
		if err := kba.Merge(buildKMV(items[:cut])); err != nil {
			t.Fatal(err)
		}
		if kab.Estimate() != kba.Estimate() {
			t.Fatal("KMV merge not commutative")
		}
	}
}
