package sketch_test

// Golden wire pins for the hashed-counter families. Every other test in
// the tree compares one code path with another (batch with scalar,
// atomic with plain, decode with encode), so a slip made consistently
// in all of them would pass the suite and strand every WAL, snapshot
// and mixed-version fleet. These values were produced once, by the code
// as it stood before row addressing moved into frequency.Layout, and
// are never regenerated: a change to any of them is a wire break.
//
// The file builds each sketch through its own package's constructor and
// reads it through the registry and MarshalBinary/UnmarshalBinary, so a
// change of representation behind those names leaves it unedited.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/frequency"
	"repro/internal/hashx"
	"repro/internal/registry"
)

const (
	goldenSeed  = 0x5eed5eed
	goldenWidth = 203 // not a multiple of 8: pins the fused round-up to 208
	goldenDepth = 4   // even: pins Count Sketch's round-up to 5
)

// goldenFused is the fused cache-line layout at the golden shape.
var goldenFused = frequency.Layout{Width: goldenWidth, Depth: goldenDepth, Mode: frequency.Fused, Seed: goldenSeed}

var goldenProbes = []string{"k-1", "k-77", "never-added"}

// goldenRand is a fixed xorshift64* stream.
type goldenRand uint64

func (r *goldenRand) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = goldenRand(x)
	return x * 0x2545f4914f6cdd1d
}

// goldenCounter is what Count-Min, the atomic Count-Min and the
// SF-sketch share; the stream below goes through every one of these
// entry points.
type goldenCounter interface {
	AddUint64(item, weight uint64)
	AddHash(h, weight uint64)
	Seed() uint64
}

// feedCounter drives c with 6000 weighted updates over ~1000 keys:
// scalar adds by bytes, by integer and by hash, and two hash batches,
// one shorter and one longer than the 256-item ingest chunk. A counter
// without a batch kernel (the SF-sketch) takes the batches one hash at
// a time.
func feedCounter(c goldenCounter) {
	rng := goldenRand(goldenSeed)
	for i := 0; i < 4000; i++ {
		v := rng.next()
		key, weight := v%997, 1+(v>>20)%7
		switch i % 3 {
		case 0:
			addBytes(c, []byte(fmt.Sprintf("k-%d", key)), weight)
		case 1:
			c.AddUint64(key, weight)
		default:
			c.AddHash(hashx.XXHash64String(fmt.Sprintf("k-%d", key), c.Seed()), weight)
		}
	}
	for _, n := range []int{100, 1900} {
		hs := make([]uint64, n)
		for i := range hs {
			hs[i] = hashx.XXHash64String(fmt.Sprintf("k-%d", rng.next()%997), c.Seed())
		}
		if b, ok := c.(interface{ AddHashBatch([]uint64) }); ok {
			b.AddHashBatch(hs)
		} else {
			for _, h := range hs {
				c.AddHash(h, 1)
			}
		}
	}
	// A weight that wraps the counters it lands on.
	addBytes(c, []byte("k-1"), ^uint64(0)-5)
	addBytes(c, []byte("k-1"), 9)
}

// addBytes adds a byte item through c's Add, or, for a counter that
// takes hashes only, through the hash Add would take.
func addBytes(c goldenCounter, item []byte, weight uint64) {
	if a, ok := c.(interface{ Add([]byte, uint64) }); ok {
		a.Add(item, weight)
		return
	}
	c.AddHash(hashx.XXHash64(item, c.Seed()), weight)
}

// feedSigned is feedCounter for Count Sketch: weights in [-5, 5].
func feedSigned(c *frequency.CountSketch) {
	rng := goldenRand(goldenSeed)
	for i := 0; i < 4000; i++ {
		v := rng.next()
		key, weight := v%997, int64((v>>20)%11)-5
		switch i % 3 {
		case 0:
			c.Add([]byte(fmt.Sprintf("k-%d", key)), weight)
		case 1:
			c.AddUint64(key, weight)
		default:
			c.AddHash(hashx.XXHash64String(fmt.Sprintf("k-%d", key), c.Seed()), weight)
		}
	}
	for _, n := range []int{100, 1900} {
		hs := make([]uint64, n)
		for i := range hs {
			hs[i] = hashx.XXHash64String(fmt.Sprintf("k-%d", rng.next()%997), c.Seed())
		}
		for _, h := range hs {
			c.AddHash(h, 1)
		}
	}
}

// asKWise re-decodes an empty derived-mode envelope with its mode byte
// (at modeOff) set to 1: the k-wise reference rows, which no facade
// constructor reaches.
func asKWise(t *testing.T, empty interface{ MarshalBinary() ([]byte, error) }, modeOff int, into interface{ UnmarshalBinary([]byte) error }) {
	t.Helper()
	env, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if env[modeOff] != 0 {
		t.Fatalf("byte %d of an empty derived envelope is %d, want mode 0", modeOff, env[modeOff])
	}
	env[modeOff] = 1
	if err := into.UnmarshalBinary(env); err != nil {
		t.Fatal(err)
	}
}

func digest(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) string {
	t.Helper()
	env, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(env)
	return fmt.Sprintf("%d:%s", len(env), hex.EncodeToString(sum[:]))
}

// shapeOf is the projection fingerprint a mixed-version fleet compares
// before it adds two shards' cells.
func shapeOf(t *testing.T, family string, inst any) string {
	t.Helper()
	d, ok := registry.Lookup(family)
	if !ok {
		t.Fatalf("%s not registered", family)
	}
	p, err := d.Projection(inst, url.Values{"item": {goldenProbes[0]}})
	if err != nil || p == nil {
		t.Fatalf("%s does not project a point query: %v", family, err)
	}
	return fmt.Sprintf("%016x", p.Shape)
}

func TestGoldenLayoutWire(t *testing.T) {
	got := map[string]string{}

	// Count-Min: three addressing modes, each plain and conservative.
	countMins := map[string]func() *frequency.CountMin{
		"derived": func() *frequency.CountMin { return frequency.NewCountMin(goldenWidth, goldenDepth, goldenSeed) },
		"kwise": func() *frequency.CountMin {
			c := new(frequency.CountMin)
			asKWise(t, frequency.NewCountMin(goldenWidth, goldenDepth, goldenSeed), 31, c)
			return c
		},
		"fused": func() *frequency.CountMin { return frequency.NewCountMinLayout(goldenFused) },
	}
	for mode, build := range countMins {
		for _, conservative := range []bool{false, true} {
			name := "countmin/" + mode
			c := build()
			if conservative {
				name += "+conservative"
				c.SetConservative(true)
			}
			feedCounter(c)
			c.AddString("k-77")
			c.AddBatch([][]byte{[]byte("k-1"), []byte("k-2"), []byte("k-77")})
			got[name+"/wire"] = digest(t, c)
			for _, probe := range goldenProbes {
				got[name+"/cells/"+probe] = fmt.Sprint(c.AppendCells(nil, []byte(probe)))
			}
			if !conservative {
				got[name+"/shape"] = shapeOf(t, "countmin", c)
			}
		}
	}

	// Count Sketch: the same three modes, signed weights.
	countSketches := map[string]func() *frequency.CountSketch{
		"derived": func() *frequency.CountSketch { return frequency.NewCountSketch(goldenWidth, goldenDepth, goldenSeed) },
		"kwise": func() *frequency.CountSketch {
			c := new(frequency.CountSketch)
			asKWise(t, frequency.NewCountSketch(goldenWidth, goldenDepth, goldenSeed), 30, c)
			return c
		},
		"fused": func() *frequency.CountSketch {
			return frequency.NewCountSketchLayout(goldenFused)
		},
	}
	for mode, build := range countSketches {
		name := "countsketch/" + mode
		c := build()
		feedSigned(c)
		c.Add([]byte("k-77"), -3)
		got[name+"/wire"] = digest(t, c)
		for _, probe := range goldenProbes {
			got[name+"/cells/"+probe] = fmt.Sprint(c.AppendCells(nil, []byte(probe)))
		}
		got[name+"/shape"] = shapeOf(t, "countsketch", c)
	}

	// SF-sketch: the two-stage envelope, its slim form, and a slim-only
	// instance that went on absorbing updates.
	sf := frequency.NewSFSketch(64, 3, 509, goldenDepth, goldenSeed)
	feedCounter(sf)
	sf.Add([]byte("k-77"), 1)
	for _, item := range [][]byte{[]byte("k-1"), []byte("k-2"), []byte("k-77")} {
		sf.Add(item, 1)
	}
	got["sfsketch/full/wire"] = digest(t, sf)
	slimEnv, err := sf.MarshalSlim()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(slimEnv)
	got["sfsketch/slim/wire"] = fmt.Sprintf("%d:%s", len(slimEnv), hex.EncodeToString(sum[:]))
	slim := new(frequency.SFSketch)
	if err := slim.UnmarshalBinary(slimEnv); err != nil {
		t.Fatal(err)
	}
	feedCounter(slim)
	got["sfsketch/slim-fed/wire"] = digest(t, slim)
	for _, probe := range goldenProbes {
		got["sfsketch/estimates/"+probe] = fmt.Sprint(sf.Estimate([]byte(probe)), sf.FatEstimate([]byte(probe)), slim.Estimate([]byte(probe)))
	}

	// Atomic Count-Min, through its own envelope; the fused one over a built
	// layout, as the registry builds a buffered Count-Min's global.
	atomics := map[string]func() *concurrent.AtomicCountMin{
		"derived": func() *concurrent.AtomicCountMin {
			return concurrent.NewAtomicCountMin(goldenWidth, goldenDepth, goldenSeed)
		},
		"fused": func() *concurrent.AtomicCountMin {
			return concurrent.NewAtomicCountMinLayout(frequency.NewCountMinLayout(goldenFused).Layout())
		},
	}
	for mode, build := range atomics {
		name := "atomic/" + mode
		c := build()
		feedCounter(c)
		c.AddHash(hashx.XXHash64String("k-77", c.Seed()), 2)
		got[name+"/wire"] = digest(t, c)
		for _, probe := range goldenProbes {
			got[name+"/cells/"+probe] = fmt.Sprint(c.AppendCells(nil, []byte(probe)))
		}
		got[name+"/shape"] = shapeOf(t, "countmin", c)
	}

	for name, want := range goldenLayoutWire {
		if got[name] != want {
			t.Errorf("%s\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name, v := range got {
		if _, pinned := goldenLayoutWire[name]; !pinned {
			t.Errorf("unpinned: %q: %q,", name, v)
		}
	}
}

var goldenLayoutWire = map[string]string{
	"atomic/derived/cells/k-1":                        "[144 158 163 162]",
	"atomic/derived/cells/k-77":                       "[98 104 98 68]",
	"atomic/derived/cells/never-added":                "[71 62 100 142]",
	"atomic/derived/shape":                            "838355657276818c",
	"atomic/derived/wire":                             "6544:be1ea26d8bcd70aa41ba7662dc08c427e6a4732c3e02b85656cb450a9d7f2af0",
	"atomic/fused/cells/k-1":                          "[69 67 95 198]",
	"atomic/fused/cells/k-77":                         "[80 27 82 62]",
	"atomic/fused/cells/never-added":                  "[125 90 66 161]",
	"atomic/fused/shape":                              "417c42e589bfb827",
	"atomic/fused/wire":                               "6692:cc15ef1532602cd23dbc85aba0a5ce4f4874ebca3f238d0954fc6b9a1ae5d37a",
	"countmin/derived+conservative/cells/k-1":         "[52 52 56 52]",
	"countmin/derived+conservative/cells/k-77":        "[43 40 39 36]",
	"countmin/derived+conservative/cells/never-added": "[40 39 44 42]",
	"countmin/derived+conservative/wire":              "6544:fd67c9233478600bbe50254b7ece034e1261e954a787758c5abf6166a750690c",
	"countmin/derived/cells/k-1":                      "[145 159 164 163]",
	"countmin/derived/cells/k-77":                     "[98 104 98 68]",
	"countmin/derived/cells/never-added":              "[71 62 100 142]",
	"countmin/derived/shape":                          "838355657276818c",
	"countmin/derived/wire":                           "6544:212b2fd7e3c2a6f1305ef5a37b5bbe084496c29cca001fe25c112c7c52d1c29d",
	"countmin/fused+conservative/cells/k-1":           "[53 53 53 53]",
	"countmin/fused+conservative/cells/k-77":          "[39 27 39 39]",
	"countmin/fused+conservative/cells/never-added":   "[55 39 43 46]",
	"countmin/fused+conservative/wire":                "6692:fce50144511069aacee9de0d6435f77d1c9b8aa33f1f8c8c238c258d03bbdb24",
	"countmin/fused/cells/k-1":                        "[70 68 96 199]",
	"countmin/fused/cells/k-77":                       "[80 27 82 62]",
	"countmin/fused/cells/never-added":                "[125 90 66 161]",
	"countmin/fused/shape":                            "417c42e589bfb827",
	"countmin/fused/wire":                             "6692:7b330e5eb611ffb0e3f8734ee289b8f36703913b1da66e3b3a975d2f9240d610",
	"countmin/kwise+conservative/cells/k-1":           "[55 55 58 55]",
	"countmin/kwise+conservative/cells/k-77":          "[41 41 41 41]",
	"countmin/kwise+conservative/cells/never-added":   "[0 44 23 42]",
	"countmin/kwise+conservative/wire":                "6544:5850a2be61f87df270e22c340b21e80c5922fb3b15fc7892c5f35c492d5b2808",
	"countmin/kwise/cells/k-1":                        "[123 137 140 142]",
	"countmin/kwise/cells/k-77":                       "[92 74 78 68]",
	"countmin/kwise/cells/never-added":                "[0 54 26 67]",
	"countmin/kwise/shape":                            "2ea1b5f1cd7732d2",
	"countmin/kwise/wire":                             "6544:7eebb637ecfb20fb6d055766246ce443920f166cf58f955a5078d750a820023c",
	"countsketch/derived/cells/k-1":                   "[-4 -17 -18 18 -1]",
	"countsketch/derived/cells/k-77":                  "[4 1 5 8 -19]",
	"countsketch/derived/cells/never-added":           "[-10 -21 9 32 5]",
	"countsketch/derived/shape":                       "f98aec1ffb5e30f6",
	"countsketch/derived/wire":                        "8171:9ffcd29a5e3e0aded8ab2b0c23fc42163eee51fda2a21457ec48d0c82a6a51b8",
	"countsketch/fused/cells/k-1":                     "[-38 2 -6 -13 -11]",
	"countsketch/fused/cells/k-77":                    "[-1 7 7 -8 -13]",
	"countsketch/fused/cells/never-added":             "[5 -12 2 5 16]",
	"countsketch/fused/shape":                         "f99a72f3cafbc8b2",
	"countsketch/fused/wire":                          "8355:e2d91a2350ef21535d7d7b6c7f540e27b311cc4310a26a9366b56f534afcc43b",
	"countsketch/kwise/cells/k-1":                     "[-14 -1 -20 -10 -14]",
	"countsketch/kwise/cells/k-77":                    "[15 -11 -25 -11 -2]",
	"countsketch/kwise/cells/never-added":             "[0 5 -9 -9 -8]",
	"countsketch/kwise/shape":                         "83e3d7d1f966d8e5",
	"countsketch/kwise/wire":                          "8171:74afa285346b2d0422debb3da7aee568817078ab44513e7ca8f2731ed33e80d8",
	"sfsketch/estimates/k-1":                          "48 48 323",
	"sfsketch/estimates/k-77":                         "39 12 275",
	"sfsketch/estimates/never-added":                  "38 7 265",
	"sfsketch/full/wire":                              "17891:0d1c6eaa1f0df2650263a15738ff9638ecd7a0fbf6a5d61fe547e9a1a97e1f41",
	"sfsketch/slim-fed/wire":                          "1587:aa2d9c93ffcf16ca33dcf282127e0a101a24a2df44b22a1ff3990d1f901b88f9",
	"sfsketch/slim/wire":                              "1587:d3c59fc82c40494c0a34d5433247b6b10fd9ab835f242decc2fb5cd13092fe6e",
}
