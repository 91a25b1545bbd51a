package hashx

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// Known-answer vectors for xxHash64 computed with the reference
// implementation; these pin cross-language compatibility of anything
// serialized with item hashes inside.
func TestXXHash64KnownVectors(t *testing.T) {
	cases := []struct {
		data string
		seed uint64
		want uint64
	}{
		{"", 0, 0xef46db3751d8e999},
		{"", 1, 0xd5afba1336a3be4b},
		{"a", 0, 0xd24ec4f1a98c6e5b},
		{"abc", 0, 0x44bc2cf5ad770999},
		{"message digest", 0, 0x066ed728fceeb3be},
		{"abcdefghijklmnopqrstuvwxyz", 0, 0xcfe1f278fa89835c},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", 0, 0xaaa46907d3047814},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", 0, 0xe04a477f19ee145d},
	}
	for _, c := range cases {
		if got := XXHash64([]byte(c.data), c.seed); got != c.want {
			t.Errorf("XXHash64(%q, %d) = %#x, want %#x", c.data, c.seed, got, c.want)
		}
	}
}

func TestXXHash64Deterministic(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		return XXHash64(data, seed) == XXHash64(data, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXXHash64SeedSensitivity(t *testing.T) {
	data := []byte("the quick brown fox")
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		h := XXHash64(data, seed)
		if seen[h] {
			t.Fatalf("seed collision at seed %d", seed)
		}
		seen[h] = true
	}
}

// Murmur3 x64 128 known-answer vectors (seed 0), matching the reference
// C++ implementation and the Apache DataSketches Java port.
func TestMurmur3KnownVectors(t *testing.T) {
	cases := []struct {
		data   string
		seed   uint64
		wantH1 uint64
		wantH2 uint64
	}{
		{"", 0, 0x0000000000000000, 0x0000000000000000},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0, 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0, 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
	}
	for _, c := range cases {
		h1, h2 := Murmur3_128([]byte(c.data), c.seed)
		if h1 != c.wantH1 || h2 != c.wantH2 {
			t.Errorf("Murmur3_128(%q) = (%#x, %#x), want (%#x, %#x)", c.data, h1, h2, c.wantH1, c.wantH2)
		}
	}
}

func TestMurmur3AllTailLengths(t *testing.T) {
	// Every prefix of one input, lengths 0..32, hashes to a distinct
	// pair: each added byte reaches the output. This checks distinctness
	// only; TestMurmur3EveryLengthGolden holds the values.
	base := make([]byte, 33)
	for i := range base {
		base[i] = byte(i * 7)
	}
	seen := map[[2]uint64]bool{}
	for n := 0; n <= 32; n++ {
		h1, h2 := Murmur3_128(base[:n], 42)
		k := [2]uint64{h1, h2}
		if seen[k] {
			t.Fatalf("collision between prefixes at length %d", n)
		}
		seen[k] = true
	}
}

func TestHashUint64MatchesBytes(t *testing.T) {
	f := func(v, seed uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return HashUint64(v, seed) == XXHash64(b[:], seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedSequenceDistinct(t *testing.T) {
	seeds := SeedSequence(12345, 1000)
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed in sequence")
		}
		seen[s] = true
	}
	again := SeedSequence(12345, 1000)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("SeedSequence not deterministic")
		}
	}
}

func TestKWiseFieldArithmetic(t *testing.T) {
	// mulP and addP must agree with big-integer arithmetic mod 2^61-1.
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		// Compute (a*b) mod p with math/bits via mulP, and validate
		// against the schoolbook split a*b = (aHi*2^32 + aLo)*b.
		want := slowMulMod(a, b)
		return mulP(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// slowMulMod computes a*b mod 2^61-1 using only 64-bit arithmetic by
// splitting a into 31-bit halves, an independent reference for mulP.
func slowMulMod(a, b uint64) uint64 {
	const p = MersennePrime61
	aHi := a >> 31
	aLo := a & ((1 << 31) - 1)
	// a*b = aHi*2^31*b + aLo*b (mod p)
	t1 := mulSmall(aHi, b) // < p
	// multiply t1 by 2^31 mod p
	t1 = mulSmall(t1, 1<<31)
	t2 := mulSmall(aLo, b)
	s := t1 + t2
	if s >= p {
		s -= p
	}
	return s
}

// mulSmall multiplies x (< 2^31 after reductions below) by y mod p
// using repeated doubling to stay within 64 bits.
func mulSmall(x, y uint64) uint64 {
	const p = MersennePrime61
	x %= p
	y %= p
	var acc uint64
	for y > 0 {
		if y&1 == 1 {
			acc += x
			if acc >= p {
				acc -= p
			}
		}
		x <<= 1
		if x >= p {
			x -= p
		}
		y >>= 1
	}
	return acc
}

func TestKWisePairwiseUniformity(t *testing.T) {
	// Empirically verify that bucket assignment is close to uniform and
	// that pairs of items collide at roughly rate 1/n.
	h := NewKWise(2, 99)
	const n = 64
	const items = 64000
	counts := make([]int, n)
	for i := 0; i < items; i++ {
		counts[h.HashRange(uint64(i), n)]++
	}
	want := float64(items) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from mean %.1f", b, c, want)
		}
	}
}

func TestKWiseSignBalance(t *testing.T) {
	h := NewKWise(4, 7)
	var sum int64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += h.Sign(uint64(i))
	}
	if math.Abs(float64(sum)) > 6*math.Sqrt(n) {
		t.Errorf("sign sum %d too far from 0 for %d draws", sum, n)
	}
}

func TestKWiseDeterministicAndDistinctSeeds(t *testing.T) {
	a := NewKWise(3, 1)
	b := NewKWise(3, 1)
	c := NewKWise(3, 2)
	same, diff := true, false
	for i := uint64(0); i < 100; i++ {
		if a.Hash(i) != b.Hash(i) {
			same = false
		}
		if a.Hash(i) != c.Hash(i) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed must give identical functions")
	}
	if !diff {
		t.Error("different seeds should give different functions")
	}
	if len(a.coeff) != 3 {
		t.Errorf("%d coefficients, want 3", len(a.coeff))
	}
}

func TestKWisePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k = 0")
		}
	}()
	NewKWise(0, 1)
}

func TestTabulationUniformity(t *testing.T) {
	tab := NewTabulation(5)
	const n = 128
	const items = 128000
	counts := make([]int, n)
	for i := 0; i < items; i++ {
		counts[tab.Hash(uint64(i)*2654435761)%n]++
	}
	want := float64(items) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from mean %.1f", b, c, want)
		}
	}
}

func TestTabulationDeterministic(t *testing.T) {
	a, b := NewTabulation(9), NewTabulation(9)
	f := func(x uint64) bool { return a.Hash(x) == b.Hash(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMix64Bijective(t *testing.T) {
	// SplitMix64's finalizer is a bijection; sample for collisions.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatal("Mix64 collision in sample — not behaving as bijection")
		}
		seen[h] = true
	}
}

func TestSeededInterface(t *testing.T) {
	var h Hasher64 = Seeded(11)
	if h.Hash64([]byte("x")) != XXHash64([]byte("x"), 11) {
		t.Error("Seeded hasher disagrees with XXHash64")
	}
}

func BenchmarkXXHash64_64B(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		XXHash64(data, 0)
	}
}

func BenchmarkHashUint64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashUint64(uint64(i), 42)
	}
}

func BenchmarkKWise4(b *testing.B) {
	h := NewKWise(4, 1)
	for i := 0; i < b.N; i++ {
		h.Hash(uint64(i))
	}
}

func BenchmarkTabulation(b *testing.B) {
	h := NewTabulation(1)
	for i := 0; i < b.N; i++ {
		h.Hash(uint64(i))
	}
}
