package concurrent

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/hashx"
)

func blockedKey(i int) []byte { return hashx.Uint64Bytes(uint64(i)) }

func TestAtomicBlockedBloomMatchesSerial(t *testing.T) {
	// The atomic wrapper must address exactly the bits the plain
	// blocked filter does: after the same inserts — scalar and batched —
	// its envelope is byte-identical to the serial filter's, and the two
	// answer every probe alike, hits and misses. k = 6 stays inside one
	// probe word; 7 ends on its last probe, 8 and 14 take the remix once,
	// 64 (the cap) nine times. Each filter is sized to end half full: a
	// sparse one refuses a stranger within its first probes and a
	// saturated one refuses nobody, and neither would notice a query
	// walk that goes wrong after the seventh.
	const n = 2000
	for _, k := range []int{1, 6, 7, 8, 14, 64} {
		m := uint64(2*n*k) * 10 / 7
		ref := bloom.NewBlocked(m, k, 3)
		af := NewAtomicBlockedBloom(m, k, 3)
		h1s, h2s := make([]uint64, n), make([]uint64, n)
		for i := 0; i < n; i++ {
			ref.Add(blockedKey(i))
			bloomAdd(af, blockedKey(i))
			h1s[i], h2s[i] = hashx.Murmur3_128(blockedKey(n+i), 3)
		}
		ref.AddHashBatch(h1s, h2s)
		af.AddHashBatch(h1s, h2s)
		a, _ := ref.MarshalBinary()
		b, _ := af.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("k=%d: atomic snapshot differs from serial blocked filter", k)
		}
		for i := 0; i < 12*n; i++ { // all past the first 2n are strangers
			h1, h2 := hashx.Murmur3_128(blockedKey(i), 3)
			if got, want := af.ContainsHash(h1, h2), ref.ContainsHash(h1, h2); got != want {
				t.Fatalf("k=%d: ContainsHash(key %d) = %v, serial filter says %v", k, i, got, want)
			}
		}
		for i := 0; i < n; i++ {
			if !bloomContains(af, blockedKey(i)) {
				t.Fatalf("k=%d: false negative for key %d", k, i)
			}
			if !bloomContains(af, blockedKey(i)) {
				t.Fatalf("k=%d: string false negative for key %d", k, i)
			}
		}
	}
}

func TestAtomicBlockedBloomConcurrentAdds(t *testing.T) {
	// Bit-OR inserts commute, so racing writers must land on the same
	// final state as one serial writer — and no completed insert may be
	// lost (the CAS loop's no-false-negative guarantee).
	const (
		writers = 8
		perW    = 4000
	)
	ref := bloom.NewBlocked(1<<18, 5, 9)
	for i := 0; i < writers*perW; i++ {
		ref.Add(blockedKey(i))
	}
	af := NewAtomicBlockedBloom(1<<18, 5, 9)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			items := make([][]byte, perW)
			for i := range items {
				items[i] = blockedKey(w*perW + i)
			}
			// Half through the batch pipeline, half scalar, to race
			// both code paths.
			af.AddBatch(items[:perW/2])
			for _, it := range items[perW/2:] {
				bloomAdd(af, it)
			}
		}(w)
	}
	wg.Wait()
	a, _ := ref.MarshalBinary()
	b, _ := af.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("concurrent adds diverged from serial reference")
	}
	if af.n.Load() != writers*perW {
		t.Fatalf("N() = %d, want %d", af.n.Load(), writers*perW)
	}
}

func TestAtomicBlockedBloomReadersDuringBatch(t *testing.T) {
	// AddHashBatch reads the first word of every block of a chunk before
	// it CAS-es any of them, while another writer may be mid-walk on the
	// same blocks. That read must decide nothing: a key whose batch has
	// returned is found by every later probe and in every later snapshot,
	// whatever the other writer's batch is doing, and the words end up
	// the serial filter's. The block sizes straddle the 256-item chunk.
	const (
		writers = 2
		rounds  = 40
		k, seed = 7, 11
	)
	sizes := []int{1, 255, 256, 257, 1000}
	perW := 0
	for _, n := range sizes {
		perW += n * rounds
	}
	m := uint64(2*writers*perW*k) * 10 / 7 // ends half full
	hash := func(w, i int) (uint64, uint64) { return hashx.Murmur3_128(blockedKey(w*perW+i), seed) }

	ref := bloom.NewBlocked(m, k, seed)
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			ref.AddHash(hash(w, i))
		}
	}

	af := NewAtomicBlockedBloom(m, k, seed)
	var done [writers]atomic.Int64 // keys [0, done[w]) of writer w are in batches that returned
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := 0
			for r := 0; r < rounds; r++ {
				for _, n := range sizes {
					h1s, h2s := make([]uint64, n), make([]uint64, n)
					for i := range h1s {
						h1s[i], h2s[i] = hash(w, at+i)
					}
					af.AddHashBatch(h1s, h2s)
					at += n
					done[w].Store(int64(at))
					runtime.Gosched() // two writers fill two cores: let the reader in
				}
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	var env []byte
	passes := 0
	for last := false; !last; passes++ {
		select {
		case <-finished:
			last = true // one more pass, over everything
		default:
		}
		var upTo [writers]int
		for w := range upTo {
			upTo[w] = int(done[w].Load())
		}
		env, _ = af.AppendBinary(env[:0])
		var snap bloom.BlockedFilter
		if err := snap.UnmarshalBinary(env); err != nil {
			t.Fatal(err)
		}
		for w, n := range upTo {
			// A strided sample of everything returned so far, then each
			// of the newest 64 — the keys whose CAS-es are freshest.
			for i := 0; i < n; i++ {
				if i < n-64 && i%(1+n/128) != 0 {
					continue
				}
				h1, h2 := hash(w, i)
				if !af.ContainsHash(h1, h2) {
					t.Fatalf("writer %d key %d: false negative after its batch returned", w, i)
				}
				if !snap.ContainsHash(h1, h2) {
					t.Fatalf("writer %d key %d: missing from a snapshot taken after its batch returned", w, i)
				}
			}
		}
	}
	t.Logf("%d reader passes while the writers ran", passes-1)
	want, _ := ref.MarshalBinary()
	if !bytes.Equal(env, want) {
		t.Fatal("envelope after concurrent batches differs from the serial filter's")
	}
}

func TestAtomicBlockedBloomMerge(t *testing.T) {
	af := NewAtomicBlockedBloom(1<<15, 5, 4)
	other := bloom.NewBlocked(1<<15, 5, 4)
	for i := 0; i < 1000; i++ {
		other.Add(blockedKey(i))
	}
	if err := af.Merge(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !bloomContains(af, blockedKey(i)) {
			t.Fatalf("merged key %d missing", i)
		}
	}
	for _, bad := range []*bloom.BlockedFilter{
		bloom.NewBlocked(1<<16, 5, 4), // blocks
		bloom.NewBlocked(1<<15, 4, 4), // k
		bloom.NewBlocked(1<<15, 5, 5), // seed
	} {
		if err := af.Merge(bad); !errors.Is(err, core.ErrIncompatible) {
			t.Errorf("mismatched merge: err = %v, want ErrIncompatible", err)
		}
	}
}
