package registry

// The append form of marshalling, registry-wide: it writes the bytes
// MarshalBinary returns, into a buffer the caller owns, and a table
// family's envelope costs one allocation of its own size — or none.

import (
	"bytes"
	"encoding"
	"fmt"
	"net/url"
	"runtime"
	"slices"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/frequency"
)

// variant is one way a descriptor builds an instance, with the bindings
// that drive it: Bind, for every variant.
type variant struct {
	name  string
	build func(Params) (any, error)
	bind  *Bindings
}

// variantsOf lists a descriptor's variants, the plain one first, each
// built by the production constructor Descriptor.Serving where it is a
// served one: the plain instance behind the registry's holder, as
// Serving builds it for every servable family, named by servedVariant,
// and for a family with a Kernel "buffered", the same holder with a
// buffer in front. Count-Min also has its atomic table (atomicCountMin).
func variantsOf(d *Descriptor) []variant {
	serving := func(buffered bool) func(Params) (any, error) {
		return func(p Params) (any, error) {
			inst, err := d.Serving(p, buffered)
			if l, ok := inst.(*locked); err == nil && (!ok || (l.buf != nil) != buffered) {
				err = fmt.Errorf("%s.Serving(p, %v) built %T, want the locked holder, buffered %v", d.Name, buffered, inst, buffered)
			}
			return inst, err
		}
	}
	out := []variant{{"plain", d.New, &d.Bind}}
	if d.Servable() {
		out = append(out, variant{servedVariant(d), serving(false), &d.Bind})
	}
	if d.Kernel != nil {
		out = append(out, variant{"buffered", serving(true), &d.Bind})
	}
	if d.Name == "countmin" {
		out = append(out, atomicCountMin)
	}
	return out
}

// atomicCountMin is concurrent.AtomicCountMin as a countmin variant.
// sketchd serves it nowhere, but it stays a library type — the per-cell
// baseline the concurrency experiments measure — so the law table keeps
// checking it, under the variant name it had while it was served,
// through bindings of its own: the registry's name the plain type.
var atomicCountMin = variant{"serving", shaped(concurrent.NewAtomicCountMinLayout), &Bindings{
	Ingest: hashedIngest(weightedHash, (*concurrent.AtomicCountMin).AddWeightedHashBatch),
	Query: query1(func(c *concurrent.AtomicCountMin, params url.Values) (map[string]any, error) {
		if item := params.Get("item"); item != "" {
			return map[string]any{"estimate": c.Estimate([]byte(item)), "n": c.N()}, nil
		}
		return map[string]any{"n": c.N(), "width": c.Width(), "depth": c.Depth()}, nil
	}),
	Merge: merge2[*frequency.CountMin](),
}}

// servedVariant names the variant Serving(p, false) builds: "locked",
// except for hll and blockedbloom, whose served variant keeps the name
// "serving" it had while each was served by a holder of its own, so
// that their law cells keep their names.
func servedVariant(d *Descriptor) string {
	if d.Name == "hll" || d.Name == "blockedbloom" {
		return "serving"
	}
	return "locked"
}

// wireVariants are the instances a descriptor can build, by the name
// the subtests use.
func wireVariants(d *Descriptor) map[string]func(Params) (any, error) {
	v := map[string]func(Params) (any, error){}
	for _, c := range variantsOf(d) {
		v[c.name] = c.build
	}
	return v
}

// ingestFor is the binding that feeds the named variant.
func ingestFor(d *Descriptor, name string) func(any, []byte) (int, error) {
	for _, c := range variantsOf(d) {
		if c.name == name {
			return c.bind.Ingest
		}
	}
	return nil
}

// TestAppendFormsMatchMarshal: for every family and every variant of
// it, AppendMarshal(nil) and AppendMarshal(prefix) carry exactly the
// MarshalBinary envelope — through the family's own AppendBinary where
// it has one, through the copying fallback where it does not — and the
// same holds for the slim form, and for an instance behind the locked
// holder, which AppendMarshal reaches through. The table families and
// their serving holders must be appenders, not fall back.
func TestAppendFormsMatchMarshal(t *testing.T) {
	mustAppend := map[string]bool{"countmin": true, "countsketch": true, "sfsketch": true, "hll": true, "bloom": true, "blockedbloom": true}
	prefix := []byte("a caller's bytes")
	same := func(t *testing.T, form string, want []byte, appendTo func(dst []byte) ([]byte, error)) {
		t.Helper()
		for _, dst := range [][]byte{nil, prefix, append(make([]byte, 0, 1<<20), prefix...)} {
			got, err := appendTo(dst)
			if err != nil {
				t.Fatalf("%s: %v", form, err)
			}
			if !bytes.Equal(got[:len(dst)], dst) || !bytes.Equal(got[len(dst):], want) {
				t.Fatalf("%s onto %d bytes (cap %d) is not those bytes + the marshalled envelope", form, len(dst), cap(dst))
			}
		}
		if string(prefix) != "a caller's bytes" {
			t.Fatalf("%s wrote into its caller's prefix", form)
		}
	}
	for _, d := range All() {
		for variant, build := range wireVariants(d) {
			d, variant, build := d, variant, build
			t.Run(d.Name+"/"+variant, func(t *testing.T) {
				p, err := d.Validate(7, nil)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := build(p)
				if err != nil {
					t.Fatal(err)
				}
				defer closeIfOwned(inst)
				if ingest := ingestFor(d, variant); ingest != nil {
					if _, err := ingest(inst, joinLines(defaultLines(d))); err != nil {
						t.Fatal(err)
					}
				}
				direct, l := held(inst) // the instance whose own methods are the reference
				l.sync()                // of everything put, for a buffered one
				want, err := direct.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				same(t, "AppendMarshal", want, func(dst []byte) ([]byte, error) {
					out, _, err := AppendMarshal(dst, inst, false)
					return out, err
				})
				a, ok := direct.(BinaryAppender)
				if ok {
					same(t, "AppendBinary", want, a.AppendBinary)
				} else if mustAppend[d.Name] {
					t.Errorf("%T has no AppendBinary: its snapshots are marshalled, then copied", direct)
				}
				if sm, ok := direct.(SlimMarshaler); ok {
					slim, err := sm.MarshalSlim()
					if err != nil {
						t.Fatal(err)
					}
					same(t, "AppendSlim", slim, sm.AppendSlim)
					same(t, "AppendMarshal(slim)", slim, func(dst []byte) ([]byte, error) {
						out, used, err := AppendMarshal(dst, inst, true)
						if !used {
							t.Errorf("AppendMarshal(slim) on a SlimMarshaler reports the full form")
						}
						return out, err
					})
				}
			})
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm caches a first call fills
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// reservedRef keeps bytesPerRun's reference allocation alive.
var reservedRef []byte

// TestMarshalAllocatesTheEnvelopeOnce is the allocation audit of the
// wire hop: a table family's MarshalBinary allocates its envelope and
// next to nothing else (under 1.05 × its length: no regrowth, no second
// table snapshotted on the way), and AppendMarshal into a buffer with
// room allocates nothing — through the locked holder too. The length is priced as what reserving that
// many bytes allocates in this build — the envelope rounded up to whole
// pages, and twice that under the race detector, where the compiler
// materialises the make inside slices.Grow — and shapes are a few
// hundred KB, so that the rounding stays well inside the 5 %.
func TestMarshalAllocatesTheEnvelopeOnce(t *testing.T) {
	for _, c := range []struct {
		family   string
		params   map[string]float64
		variants []string
	}{
		{"countmin", map[string]float64{"width": 16384, "depth": 4}, []string{"plain", "locked", "serving"}},
		{"countmin", map[string]float64{"width": 16384, "depth": 4, "fused": 1}, []string{"plain", "locked"}},
		{"countsketch", map[string]float64{"width": 16384, "depth": 5}, []string{"plain"}},
		{"sfsketch", map[string]float64{"width": 8192, "depth": 4}, []string{"plain", "locked"}},
		{"hll", map[string]float64{"p": 18}, []string{"plain", "serving"}},
		{"bloom", map[string]float64{"m": 1 << 22, "k": 7}, []string{"plain"}},
		{"blockedbloom", map[string]float64{"m": 1 << 22, "k": 7}, []string{"plain", "serving"}},
	} {
		d, ok := Lookup(c.family)
		if !ok {
			t.Fatalf("no %s family", c.family)
		}
		for _, variant := range c.variants {
			p, err := d.Validate(7, c.params)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := wireVariants(d)[variant](p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ingestFor(d, variant)(inst, joinLines(defaultLines(d))); err != nil {
				t.Fatal(err)
			}
			direct, _ := held(inst)
			if _, ok := direct.(BinaryAppender); !ok {
				t.Fatalf("%s/%s: %T has no AppendBinary", c.family, variant, direct)
			}
			appendForm := func(slim bool) func(dst []byte) ([]byte, error) {
				return func(dst []byte) ([]byte, error) {
					out, _, err := AppendMarshal(dst, inst, slim)
					return out, err
				}
			}
			forms := map[string]func(dst []byte) ([]byte, error){"full": appendForm(false)}
			if _, ok := direct.(SlimMarshaler); ok {
				forms["slim"] = appendForm(true)
			}
			for form, appendTo := range forms {
				env, err := appendTo(nil)
				if err != nil {
					t.Fatal(err)
				}
				name := c.family + "/" + variant + "/" + form
				if c.params["fused"] == 1 {
					name += "/fused"
				}
				if len(env) < 128<<10 {
					t.Fatalf("%s: a %d-byte envelope is too small for this audit", name, len(env))
				}
				once := bytesPerRun(5, func() { reservedRef = slices.Grow([]byte(nil), len(env)) })
				if got := bytesPerRun(5, func() { appendTo(nil) }); got >= 1.05*once {
					t.Errorf("%s: marshalling %d bytes allocated %.0f, %.2fx what reserving them does", name, len(env), got, got/once)
				}
				buf := make([]byte, 0, len(env))
				if got := testing.AllocsPerRun(5, func() { appendTo(buf[:0]) }); got != 0 {
					t.Errorf("%s: AppendMarshal into a buffer with room made %v allocations", name, got)
				}
			}
		}
	}
}
