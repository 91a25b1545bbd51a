package quantile

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// The digests below were recorded at commit 4c63857, before KLL and REQ
// shared a compactor, before the weighted read and the t-digest pass were
// each written once. They are never regenerated: a refactor of this
// package keeps every envelope byte and every answer bit, or it is not a
// refactor.

// goldenSketch is what the randomized or order-sensitive families have in
// common for this test.
type goldenSketch interface {
	Add(float64)
	Quantile(float64) float64
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// qdigestFloats feeds a q-digest the integer part of a float stream.
type qdigestFloats struct{ *QDigest }

func (s qdigestFloats) Add(v float64)              { s.QDigest.Add(uint64(v), 1) }
func (s qdigestFloats) Quantile(q float64) float64 { return float64(s.QDigest.Quantile(q)) }

var goldenFamilies = []struct {
	name  string
	fresh func(seed uint64) goldenSketch
	merge func(dst, src goldenSketch) error // nil: the family has no Merge
}{
	{"kll", func(seed uint64) goldenSketch { return NewKLL(200, seed) },
		func(dst, src goldenSketch) error { return dst.(*KLL).Merge(src.(*KLL)) }},
	{"req", func(seed uint64) goldenSketch { return NewREQ(32, seed) },
		func(dst, src goldenSketch) error { return dst.(*REQ).Merge(src.(*REQ)) }},
	{"mrl", func(seed uint64) goldenSketch { return NewMRL(8, 256, seed) }, nil},
	{"tdigest", func(uint64) goldenSketch { return NewTDigest(100) },
		func(dst, src goldenSketch) error { return dst.(*TDigest).Merge(src.(*TDigest)) }},
	{"qdigest", func(uint64) goldenSketch { return qdigestFloats{NewQDigest(20, 256)} },
		func(dst, src goldenSketch) error {
			return dst.(qdigestFloats).Merge(src.(qdigestFloats).QDigest)
		}},
}

// golden maps "family/stream" to the SHA-256 of MarshalBinary and the
// first 8 bytes of the SHA-256 of Quantile at -0.5, 0, 1, 1.5 and probeQs.
var golden = map[string][2]string{
	"kll/uniform":       {"7fb8a3557ed25cee1908fd7b1b62e54906a6893d729fb14aaa46c432ec4832ee", "16c9f3bea1ed16a7"},
	"kll/sorted":        {"d1cf32f3f17aad05b2453a8e30ff0d324ab5776174fe3da997c2cd8bd5418a4a", "8b168f42f95c1ced"},
	"kll/lognormal":     {"3b97d1c950e884dc6a735e1ce6a0af3958ecfec23b55ea9684fc7ba4e9c2decb", "6127678c3eeb8056"},
	"kll/merge4":        {"77d287b060c9e835e3e051e7d1b5165f2e9c2a01efba3ffa43f3107eee781489", "dd00a5ecdf29d50b"},
	"kll/resumed":       {"8e29c8e4fe4769594e10a7e1291b62423c0ec63c1cf1427ad1c6c20889b15f57", "f5b03ff075c88802"},
	"req/uniform":       {"83a2a54e2fa763cd99e6f742646b54115d1bbe56e14d9676f03201c2a893ea50", "e1cca8c80fe19ab5"},
	"req/sorted":        {"6fb56df7dfa1ffdab19d3c61cad986d90f79c30a85f203f088b8971945b950de", "5029116f78236723"},
	"req/lognormal":     {"4acdf648aa40b4f8b8ff2ad9d6406cd3a045aa2a9728dfc50640f276b7d1851f", "a652ab2e335c0b04"},
	"req/merge4":        {"3b8ea5949c192f0d3d625f2519021cad02a5f1e5d24113ff70eb8337206612a0", "1f88e185446cfe5b"},
	"req/resumed":       {"02e97a8e678b2c24d7f10650d4d2aa53a1371ee30a2b5b556fedd8fd7bb73690", "ca346e43c8f37ff4"},
	"mrl/uniform":       {"72bb0604a0833127f59c522baa2579ed56d33f607ca0235114b01561abea4e80", "ce37786dd4babc0a"},
	"mrl/sorted":        {"921b36822515c802fbd87a07894072c04fbbf70d3be60faf436efac89bc2b371", "b4615ff1c9714675"},
	"mrl/lognormal":     {"1bbf317a499efaa6c288509b196fb69510ed5d2556a70942dc805f96a2c7af71", "e771c1302ae9b8ac"},
	"mrl/resumed":       {"dfb7450a10eeb32974d7474315f94307c1cca1ed907e05e782788a95e92f22b5", "29c82682c0c8ab19"},
	"tdigest/uniform":   {"3262dd374985b4036c5e8e0514ed5511fbed9038fd5b697171ae738e3a5d5040", "92b917420cad68a1"},
	"tdigest/sorted":    {"94d7cbd07b4f7556ccc5f6fd2fb2df4b2f77d50f67a59fae12f72ca653c087b6", "109d1927adad87ff"},
	"tdigest/lognormal": {"5b72abe803a9c72db012642412bdab42a6c13b1d512c084760bb71e57ce05d81", "c93d143ff9ad4003"},
	"tdigest/merge4":    {"61d38cf059eeca2e98cd6203b66c2a88607536a1f3d72f300a5a2ca6d52278d7", "93c5910774353a98"},
	"tdigest/resumed":   {"70e6caec1a52de5c3ccb73147e6891fe5cc08aad3c7a115b85853d9ff65f56fe", "8c3f064019e45603"},
	"qdigest/uniform":   {"ec55804803f561d8fc2a9d3787a1ed78025f3672fc5936413af7f72824adaa53", "19e076ef9f7f0e12"},
	"qdigest/sorted":    {"5a67d492092a14db42f350c18484b184710e041582e7b19c7e43cab31e3b177c", "109ca8d0fee14dcb"},
	"qdigest/lognormal": {"a5b46ca25290fc00c1f5388787d1b659144213e5716cf8987b811ccd1ba2501d", "369a0ef5759d7767"},
	"qdigest/merge4":    {"1c9142d2f67444acdc9045fcd8d48f4d0989722d71b7f2ad7f13feb2c6279721", "369a0ef5759d7767"},
	"qdigest/resumed":   {"1b4f45d1e1066aabd307aa3dceb3657a650435ccec8b5bc43a43f80ccf1a0060", "f2c4b40a4c6d0a99"},
}

func goldenDigests(t *testing.T, s goldenSketch) [2]string {
	t.Helper()
	wire, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := sha256.Sum256(wire)
	var reads []byte
	for _, q := range append([]float64{-0.5, 0, 1, 1.5}, probeQs...) {
		reads = binary.LittleEndian.AppendUint64(reads, math.Float64bits(s.Quantile(q)))
	}
	r := sha256.Sum256(reads)
	return [2]string{hex.EncodeToString(w[:]), hex.EncodeToString(r[:8])}
}

func TestGoldenWireAndReads(t *testing.T) {
	const n = 60000
	streams := datasets(n, 21)
	seen := 0
	check := func(key string, s goldenSketch) {
		t.Helper()
		seen++
		if got := goldenDigests(t, s); got != golden[key] {
			t.Errorf("%q: {%q, %q}, recorded {%q, %q}", key, got[0], got[1], golden[key][0], golden[key][1])
		}
	}
	for _, f := range goldenFamilies {
		for _, stream := range []string{"uniform", "sorted", "lognormal"} {
			s := f.fresh(7)
			for _, v := range streams[stream] {
				s.Add(v)
			}
			check(f.name+"/"+stream, s)
		}
		if f.merge != nil {
			// Four seeded parts of one stream, folded into the first.
			parts := make([]goldenSketch, 4)
			for i := range parts {
				parts[i] = f.fresh(uint64(31 + i))
				for _, v := range streams["lognormal"][i*n/4 : (i+1)*n/4] {
					parts[i].Add(v)
				}
			}
			for _, p := range parts[1:] {
				if err := f.merge(parts[0], p); err != nil {
					t.Fatal(err)
				}
			}
			check(f.name+"/merge4", parts[0])
		}
		// A decoded sketch draws from a re-salted generator: decode,
		// then keep adding.
		s := f.fresh(7)
		for _, v := range streams["uniform"][:n/2] {
			s.Add(v)
		}
		wire, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resumed := f.fresh(0)
		if err := resumed.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
		for _, v := range streams["reversed"][:n/2] {
			resumed.Add(v)
		}
		check(f.name+"/resumed", resumed)
	}
	if seen != len(golden) {
		t.Errorf("checked %d rows, %d recorded", seen, len(golden))
	}
}
