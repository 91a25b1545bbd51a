package bloom

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/hashx"
)

func TestBlockedNoFalseNegatives(t *testing.T) {
	// The no-false-negative guarantee must hold on every insert path:
	// scalar Add, string Add, and both pipelined batch loops.
	f := NewBlockedWithEstimates(20000, 0.01, 1)
	const n = 20000
	var batch [][]byte
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			f.Add(key(i))
		case 1:
			f.Add([]byte(string(key(i))))
		case 2:
			batch = append(batch, key(i))
		case 3:
			h1, h2 := hashx.Murmur3_128(key(i), f.Seed())
			f.AddHashBatch([]uint64{h1}, []uint64{h2})
		}
	}
	f.AddBatch(batch)
	for i := 0; i < n; i++ {
		if !f.Contains(key(i)) {
			t.Fatalf("false negative for inserted key %d", i)
		}
		if !f.Contains([]byte(string(key(i)))) {
			t.Fatalf("string false negative for inserted key %d", i)
		}
	}
	if f.N() != n {
		t.Fatalf("N() = %d, want %d", f.N(), n)
	}
}

func TestBlockedFPRWithinBlockedBound(t *testing.T) {
	// At equal bits per item the blocked filter pays a known FPR
	// penalty over the classic filter: the Poisson mixture
	// TheoreticalBlockedFPR. The measured rate must stay within that
	// bound (modulo sampling noise) and the bound itself must dominate
	// the classic formula.
	const n = 50000
	classic := NewWithEstimates(n, 0.01, 7)
	blocked := NewBlocked(classic.M(), classic.K(), 7) // equal bits/item, equal k
	for i := 0; i < n; i++ {
		classic.Add(key(i))
		blocked.Add(key(i))
	}
	const probes = 200000
	fpClassic, fpBlocked := 0, 0
	for i := 0; i < probes; i++ {
		if classic.Contains(key(n + i)) {
			fpClassic++
		}
		if blocked.Contains(key(n + i)) {
			fpBlocked++
		}
	}
	gotClassic := float64(fpClassic) / probes
	gotBlocked := float64(fpBlocked) / probes
	boundClassic := TheoreticalFPR(classic.M(), classic.K(), n)
	boundBlocked := TheoreticalBlockedFPR(blocked.M(), blocked.K(), n)
	if boundBlocked < boundClassic {
		t.Fatalf("blocked bound %v below classic bound %v; the blocking penalty must not be negative",
			boundBlocked, boundClassic)
	}
	if gotBlocked > 1.5*boundBlocked+0.002 {
		t.Errorf("blocked FPR %v exceeds its theoretical bound %v", gotBlocked, boundBlocked)
	}
	if gotBlocked < gotClassic {
		// Not impossible at these sample sizes, but the penalty should
		// be visible at 50k items / 200k probes; treat an inversion as
		// an addressing bug (e.g. blocked filter probing fewer bits).
		t.Logf("note: blocked FPR %v measured below classic %v", gotBlocked, gotClassic)
	}
	if gotClassic > 0.03 {
		t.Errorf("classic FPR %v drifted; harness broken", gotClassic)
	}
}

func TestBlockedBatchMatchesSequential(t *testing.T) {
	// The two-phase pipelined loops are a scheduling change, not a
	// semantic one: final filter state must be byte-identical to the
	// scalar path over the same items.
	seq := NewBlocked(1<<16, 7, 3)
	bat := NewBlocked(1<<16, 7, 3)
	items := make([][]byte, 1000) // spans multiple ingestChunk chunks
	h1s := make([]uint64, len(items))
	h2s := make([]uint64, len(items))
	for i := range items {
		items[i] = key(i)
		h1s[i], h2s[i] = hashx.Murmur3_128(items[i], 3)
		seq.Add(items[i])
	}
	bat.AddBatch(items[:500])
	bat.AddHashBatch(h1s[500:], h2s[500:])
	a, _ := seq.MarshalBinary()
	b, _ := bat.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("batched inserts produced different filter state than sequential Adds")
	}
}

func TestBlockedAddHashBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slice lengths did not panic")
		}
	}()
	NewBlocked(1024, 4, 1).AddHashBatch(make([]uint64, 3), make([]uint64, 2))
}

func TestBlockedWireRoundTrip(t *testing.T) {
	f := NewBlockedWithEstimates(5000, 0.01, 11)
	for i := 0; i < 5000; i++ {
		f.Add(key(i))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back BlockedFilter
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	round, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, round) {
		t.Fatal("Marshal -> Decode -> Marshal is not byte-identical")
	}
	for i := 0; i < 5000; i++ {
		if !back.Contains(key(i)) {
			t.Fatalf("decoded filter lost key %d", i)
		}
	}
	if back.N() != f.N() || back.K() != f.K() || back.Blocks() != f.Blocks() || back.Seed() != f.Seed() {
		t.Fatal("decoded filter shape differs")
	}
}

func TestBlockedDecodeRejectsCorrupt(t *testing.T) {
	write := func(blocks uint64, k uint32, words int) []byte {
		w := core.NewWriter(core.TagBlockedBloom, 1)
		w.U64(blocks)
		w.U32(k)
		w.U64(1) // seed
		w.U64(0) // n
		w.U64Slice(make([]uint64, words))
		return w.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"zero blocks", write(0, 4, 0)},
		{"k zero", write(2, 0, 16)},
		{"k over 64", write(2, 65, 16)},
		{"short words", write(2, 4, 15)},
		{"long words", write(2, 4, 17)},
	} {
		var f BlockedFilter
		if err := f.UnmarshalBinary(tc.data); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// The classic filter's envelope must not decode as a blocked one:
	// the layouts address different bits.
	classic, _ := NewWithEstimates(100, 0.01, 1).MarshalBinary()
	var f BlockedFilter
	if err := f.UnmarshalBinary(classic); err == nil {
		t.Fatal("classic bloom envelope decoded as blocked filter")
	}
}

func TestBlockedMergeEqualsUnion(t *testing.T) {
	a := NewBlocked(1<<15, 5, 2)
	b := NewBlocked(1<<15, 5, 2)
	union := NewBlocked(1<<15, 5, 2)
	for i := 0; i < 2000; i++ {
		a.Add(key(i))
		union.Add(key(i))
	}
	for i := 2000; i < 4000; i++ {
		b.Add(key(i))
		union.Add(key(i))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	am, _ := a.MarshalBinary()
	um, _ := union.MarshalBinary()
	if !bytes.Equal(am, um) {
		t.Fatal("merge state differs from single-stream union")
	}
}

func TestBlockedMergeIncompatible(t *testing.T) {
	base := NewBlocked(1<<15, 5, 2)
	for _, other := range []*BlockedFilter{
		NewBlocked(1<<16, 5, 2), // different blocks
		NewBlocked(1<<15, 4, 2), // different k
		NewBlocked(1<<15, 5, 3), // different seed
	} {
		if err := base.Merge(other); !errors.Is(err, core.ErrIncompatible) {
			t.Errorf("merge of mismatched shape: err = %v, want ErrIncompatible", err)
		}
	}
}

func TestBlockedAddHashMatchesAdd(t *testing.T) {
	// The pre-hashed contract: Add(item) == AddHash(Murmur3_128(item, seed)).
	a := NewBlocked(1<<14, 6, 5)
	b := NewBlocked(1<<14, 6, 5)
	for i := 0; i < 500; i++ {
		a.Add(key(i))
		h1, h2 := hashx.Murmur3_128(key(i), 5)
		b.AddHash(h1, h2)
		if !b.ContainsHash(h1, h2) {
			t.Fatalf("ContainsHash missed key %d just added", i)
		}
	}
	am, _ := a.MarshalBinary()
	bm, _ := b.MarshalBinary()
	if !bytes.Equal(am, bm) {
		t.Fatal("AddHash state differs from Add state")
	}
}
