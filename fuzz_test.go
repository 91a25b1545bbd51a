package sketch_test

// Fuzz targets for every decoder in the library: arbitrary bytes must
// either decode into a usable sketch or return an error — never panic,
// never hang, never allocate unboundedly. The seed corpus (valid
// serializations plus mutations) runs under plain `go test`;
// `go test -fuzz=FuzzX` explores further. FuzzGenericDecode is the one
// CI fuzzes for the envelope decoders — it reaches every family's and
// uses what decodes through the family's bindings, and it carries the
// seeds' mutations and the assertions of the per-family Fuzz*Unmarshal /
// FuzzSFDecode / FuzzRobustDistinctDecode targets, which still run their
// own seed corpora.

import (
	"bufio"
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	sketch "repro"
	"repro/internal/bloom"
	"repro/internal/cardinality"
	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/durable"
	"repro/internal/frequency"
	"repro/internal/hashx"
	"repro/internal/lsh"
	"repro/internal/quantile"
	typereg "repro/internal/registry"
	"repro/internal/robust"
	"repro/internal/sample"
	"repro/internal/server"
	"repro/internal/server/client"
)

// corpusFor seeds a fuzzer with a valid serialization and a few
// deterministic mutations of it.
func corpusFor(f *testing.F, data []byte) {
	f.Add(data)
	for _, m := range mutations(data) {
		f.Add(m)
	}
	f.Add([]byte{})
	f.Add([]byte("GSK1"))
}

// mutations of an envelope: its first half, its last byte inverted, and
// the high bit of its first payload byte flipped.
func mutations(data []byte) [][]byte {
	if len(data) <= 8 {
		return nil
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0xff
	flipped2 := append([]byte(nil), data...)
	flipped2[6] ^= 0x80
	return [][]byte{data[:len(data)/2], flipped, flipped2}
}

// fuzzDecode is a per-family decode target: the envelopes and their
// mutations seed it, and what decodes into a T is used.
func fuzzDecode[T any, PT interface {
	*T
	encoding.BinaryUnmarshaler
}](f *testing.F, use func(t *testing.T, g PT), seeds ...encoding.BinaryMarshaler) {
	for _, m := range seeds {
		data, _ := m.MarshalBinary()
		corpusFor(f, data)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if g := PT(new(T)); g.UnmarshalBinary(in) == nil {
			use(t, g)
		}
	})
}

func FuzzBloomUnmarshal(f *testing.F) {
	b := bloom.NewWithEstimates(100, 0.01, 1)
	b.AddString("seed")
	fuzzDecode(f, func(_ *testing.T, g *bloom.Filter) {
		g.AddString("post")
		_ = g.ContainsString("post")
	}, b)
}

func FuzzHLLUnmarshal(f *testing.F) {
	h := cardinality.NewHLL(10, 2)
	for i := 0; i < 1000; i++ {
		h.AddUint64(uint64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *cardinality.HLL) {
		g.AddUint64(42)
		_ = g.Estimate()
	}, h)
}

// hllOfRegisters builds an HLL of precision p whose packed register
// file is fill, repeated to length, by overwriting the payload of an
// empty sketch's envelope; it returns the sketch and that file.
func hllOfRegisters(t *testing.T, p uint8, fill []byte) (*cardinality.HLL, []byte) {
	t.Helper()
	h := cardinality.NewHLL(p, 1)
	env, _ := h.MarshalBinary()
	file := env[len(env)-h.SizeBytes():]
	for i := range file {
		if len(fill) > 0 {
			file[i] = fill[i%len(fill)]
		}
	}
	if err := h.UnmarshalBinary(env); err != nil {
		t.Fatal(err)
	}
	return h, append([]byte(nil), file...)
}

// reg6 and setReg6 address 6-bit register i of a little-endian register
// file byte by byte: the reference the word kernels are fuzzed against.
func reg6(file []byte, i int) uint8 {
	at, off := 6*i/8, uint(6*i%8)
	v := uint(file[at]) >> off
	if off > 2 {
		v |= uint(file[at+1]) << (8 - off)
	}
	return uint8(v & 63)
}

func setReg6(file []byte, i int, r uint8) {
	at, off := 6*i/8, uint(6*i%8)
	file[at] = file[at]&^(63<<off) | r<<off
	if off > 2 {
		file[at+1] = file[at+1]&^(63>>(8-off)) | r>>(8-off)
	}
}

// FuzzHLLMergeWords: for two arbitrary register files at a precision
// the fuzzer picks, the word-wise Merge leaves the bytes a per-register
// maximum does, and Estimate returns the bits of the per-register sum.
func FuzzHLLMergeWords(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{0xff})
	f.Add(uint8(1), []byte{0x3f, 0, 0xfc, 0xc0, 0x0f}, []byte{0xaa, 0x55, 1})
	f.Add(uint8(10), []byte("registers"), []byte("of a peer sketch"))
	f.Fuzz(func(t *testing.T, p uint8, ra, rb []byte) {
		p = 4 + p%15
		a, want := hllOfRegisters(t, p, ra)
		b, peer := hllOfRegisters(t, p, rb)
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		m := 1 << p
		var sum float64
		zeros := 0
		for i := 0; i < m; i++ {
			r := max(reg6(want, i), reg6(peer, i))
			setReg6(want, i, r)
			sum += 1 / float64(uint64(1)<<r)
			if r == 0 {
				zeros++
			}
		}
		env, _ := a.MarshalBinary()
		if got := env[len(env)-len(want):]; !bytes.Equal(got, want) {
			t.Fatalf("p=%d: merged register file differs from the per-register maximum", p)
		}
		alpha := 0.7213 / (1 + 1.079/float64(m))
		switch m {
		case 16:
			alpha = 0.673
		case 32:
			alpha = 0.697
		case 64:
			alpha = 0.709
		}
		est := alpha * float64(m) * float64(m) / sum
		if est <= 2.5*float64(m) && zeros > 0 {
			est = float64(m) * math.Log(float64(m)/float64(zeros))
		}
		if got := a.Estimate(); math.Float64bits(got) != math.Float64bits(est) {
			t.Fatalf("p=%d: Estimate %v (%#x), per-register sum gives %v (%#x)", p, got, math.Float64bits(got), est, math.Float64bits(est))
		}
	})
}

func FuzzHLLPPUnmarshal(f *testing.F) {
	h := cardinality.NewHLLPP(10, 3)
	for i := 0; i < 500; i++ {
		h.AddUint64(uint64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *cardinality.HLLPP) {
		g.AddUint64(42)
		_ = g.Estimate()
	}, h)
}

func FuzzCountMinUnmarshal(f *testing.F) {
	c := frequency.NewCountMin(64, 3, 4)
	c.AddString("seed")
	data, _ := c.MarshalBinary()
	corpusFor(f, data)
	fused := frequency.NewCountMinLayout(frequency.Layout{Width: 64, Depth: 3, Mode: frequency.Fused, Seed: 4})
	fused.AddString("seed")
	fdata, _ := fused.MarshalBinary()
	corpusFor(f, fdata)
	// A version-2 envelope carrying the fused mode byte: the layout
	// cannot agree with the byte, and the decoder must reject it (the
	// PR 2 pattern that made v1 Bloom payloads unreachable). Flip the
	// version byte on a valid v3 fused envelope to build the seed.
	if len(fdata) > 8 {
		v2 := append([]byte(nil), fdata...)
		v2[5] = 2 // GSK1 magic (4) + tag (1), then version
		f.Add(v2)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var g frequency.CountMin
		if err := g.UnmarshalBinary(in); err == nil {
			g.AddString("post")
			_ = g.EstimateString("post")
		}
	})
}

func FuzzCountSketchUnmarshal(f *testing.F) {
	c := frequency.NewCountSketch(64, 3, 5)
	c.AddUint64(7, 3)
	data, _ := c.MarshalBinary()
	corpusFor(f, data)
	fused := frequency.NewCountSketchLayout(frequency.Layout{Width: 64, Depth: 3, Mode: frequency.Fused, Seed: 5})
	fused.AddUint64(7, 3)
	fdata, _ := fused.MarshalBinary()
	corpusFor(f, fdata)
	if len(fdata) > 8 {
		v2 := append([]byte(nil), fdata...)
		v2[5] = 2 // see FuzzCountMinUnmarshal: fused byte in a v2 envelope
		f.Add(v2)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var g frequency.CountSketch
		if err := g.UnmarshalBinary(in); err == nil {
			g.AddUint64(9, 1)
			_ = g.EstimateUint64(9)
		}
	})
}

func FuzzSFDecode(f *testing.F) {
	s := frequency.NewSFSketch(64, 3, 256, 3, 4)
	s.AddString("seed")
	s.AddUint64(7, 3)
	full, _ := s.MarshalBinary()
	corpusFor(f, full)
	slim, _ := s.MarshalSlim()
	corpusFor(f, slim)
	// A mode byte beyond slim in an otherwise valid envelope.
	if len(full) > 8 {
		bad := append([]byte(nil), full...)
		bad[6] = 2 // GSK1 magic (4) + tag (1) + version (1), then mode
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var g frequency.SFSketch
		if err := g.UnmarshalBinary(in); err == nil {
			g.AddString("post")
			_ = g.EstimateString("post")
			_ = g.SlimOnly()
			if out, err := g.MarshalBinary(); err != nil {
				t.Fatalf("re-marshal of decoded sketch failed: %v", err)
			} else if len(out) == 0 {
				t.Fatal("empty re-marshal")
			}
		}
	})
}

func FuzzBlockedBloomUnmarshal(f *testing.F) {
	b := bloom.NewBlockedWithEstimates(100, 0.01, 1)
	b.AddString("seed")
	data, _ := b.MarshalBinary()
	corpusFor(f, data)
	// The classic filter's envelope must never decode as a blocked one
	// (the layouts address different bits); seed it so the fuzzer
	// exercises the tag check from the start.
	classic := bloom.NewWithEstimates(100, 0.01, 1)
	classic.AddString("seed")
	cdata, _ := classic.MarshalBinary()
	f.Add(cdata)
	f.Fuzz(func(t *testing.T, in []byte) {
		var g bloom.BlockedFilter
		if err := g.UnmarshalBinary(in); err == nil {
			g.AddString("post")
			if !g.ContainsString("post") {
				t.Fatal("decoded blocked filter lost a fresh insert")
			}
		}
	})
}

func FuzzKLLUnmarshal(f *testing.F) {
	k := quantile.NewKLL(64, 6)
	for i := 0; i < 5000; i++ {
		k.Add(float64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *quantile.KLL) {
		g.Add(1)
		_ = g.Quantile(0.5)
	}, k)
}

func FuzzTDigestUnmarshal(f *testing.F) {
	td := quantile.NewTDigest(50)
	for i := 0; i < 2000; i++ {
		td.Add(float64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *quantile.TDigest) {
		g.Add(1)
		_ = g.Quantile(0.9)
	}, td)
}

func FuzzQDigestUnmarshal(f *testing.F) {
	qd := quantile.NewQDigest(10, 32)
	for i := uint64(0); i < 1000; i++ {
		qd.Add(i%1024, 1)
	}
	fuzzDecode(f, func(_ *testing.T, g *quantile.QDigest) { _ = g.Quantile(0.5) }, qd)
}

func FuzzThetaUnmarshal(f *testing.F) {
	th := cardinality.NewTheta(64, 7)
	for i := 0; i < 5000; i++ {
		th.AddUint64(uint64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *cardinality.Theta) {
		g.AddUint64(1)
		_ = g.Estimate()
	}, th)
}

func FuzzKMVUnmarshal(f *testing.F) {
	k := cardinality.NewKMV(32, 8)
	for i := 0; i < 5000; i++ {
		k.AddUint64(uint64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *cardinality.KMV) {
		g.AddUint64(1)
		_ = g.Estimate()
	}, k)
}

func FuzzREQUnmarshal(f *testing.F) {
	r := quantile.NewREQ(16, 9)
	for i := 0; i < 5000; i++ {
		r.Add(float64(i))
	}
	fuzzDecode(f, func(_ *testing.T, g *quantile.REQ) {
		g.Add(1)
		_ = g.Quantile(0.99)
	}, r)
}

func FuzzMinHashUnmarshal(f *testing.F) {
	m := lsh.NewMinHash(32, 10)
	m.AddString("seed")
	fuzzDecode(f, func(_ *testing.T, g *lsh.MinHash) { g.AddString("post") }, m)
}

func FuzzMisraGriesUnmarshal(f *testing.F) {
	m := frequency.NewMisraGries(16)
	m.AddString("seed")
	fuzzDecode(f, func(_ *testing.T, g *frequency.MisraGries) {
		g.AddString("post")
		_ = g.Estimate("post")
	}, m)
}

func FuzzSpaceSavingUnmarshal(f *testing.F) {
	s := frequency.NewSpaceSaving(16)
	s.AddString("seed")
	fuzzDecode(f, func(_ *testing.T, g *frequency.SpaceSaving) {
		g.AddString("post")
		_ = g.Estimate("post")
	}, s)
}

func FuzzMorrisUnmarshal(f *testing.F) {
	m := counter.NewMorrisBase(1.2, 11)
	for i := 0; i < 1000; i++ {
		m.Increment()
	}
	fuzzDecode(f, func(_ *testing.T, g *counter.Morris) {
		g.Increment()
		_ = g.Count()
	}, m)
}

// FuzzServerRequestDecode drives sketchd's two request decoders — the
// ingest body path (Entry.Ingest, which cuts and parses the lines in one
// pass) and the merge-envelope decoder feeding Entry.Merge — with
// arbitrary bodies against several sketch types. Any input must either
// ingest, counting the items SplitBatch (the reference splitter) finds,
// or return an error and leave the envelope byte-identical; panics and
// hangs are bugs in the serving layer's input validation.
func FuzzServerRequestDecode(f *testing.F) {
	h := cardinality.NewHLL(10, 1)
	h.AddUint64(7)
	env, _ := h.MarshalBinary()
	corpusFor(f, env)
	f.Add([]byte("alpha\nbeta\r\ngamma\t12\n3.5\n"))
	f.Add([]byte("item\t18446744073709551616\n")) // weight overflows uint64
	f.Add([]byte("\n\r\n\t\n"))

	types := []server.CreateRequest{
		{Type: "hll", P: 10, Params: map[string]float64{"shards": 2}, Seed: 1},
		{Type: "countmin", Width: 128, Depth: 3, Seed: 1},
		{Type: "bloom", NItems: 1000, FPR: 0.01, Seed: 1},
		{Type: "kll", K: 64, Seed: 1},
		{Type: "theta", K: 64, Seed: 1},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("body size is bounded by maxBodyBytes in the server; keep fuzz execs fast")
		}
		want := len(server.SplitBatch(in))
		for _, req := range types {
			e, err := server.NewEntry(req)
			if err != nil {
				t.Fatalf("NewEntry(%v): %v", req.Type, err)
			}
			before, err := e.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", req.Type, err)
			}
			// Ingest must not panic, must count what the reference
			// splitter cuts, and must not mutate on a rejected batch.
			n, ingestErr := e.Ingest(in)
			after, err := e.Snapshot()
			switch {
			case err != nil:
				t.Errorf("%s: snapshot after add: %v", req.Type, err)
			case ingestErr == nil && n != want:
				t.Errorf("%s: Ingest counted %d items, SplitBatch %d", req.Type, n, want)
			case ingestErr != nil && (n != 0 || !bytes.Equal(after, before)):
				t.Errorf("%s: rejected batch (%v) counted %d items or changed the envelope", req.Type, ingestErr, n)
			}
			// Merge of arbitrary bytes must either succeed (valid
			// same-type envelope) or error cleanly.
			_ = e.Merge(in)
			if _, err := e.Snapshot(); err != nil {
				t.Errorf("%s: snapshot after merge: %v", req.Type, err)
			}
		}
	})
}

func FuzzReservoirUnmarshal(f *testing.F) {
	r := sample.NewReservoir(8, 12)
	for i := 0; i < 100; i++ {
		r.AddString("item")
	}
	fuzzDecode(f, func(_ *testing.T, g *sample.Reservoir) {
		g.AddString("post")
		_ = g.Sample()
	}, r)
}

// sampleBatch is one well-formed batch per input kind, valid under every
// family's default and small shapes.
var sampleBatch = map[typereg.InputKind]string{
	typereg.InputItems:              "alpha\nbeta\nalpha",
	typereg.InputWeightedItems:      "alpha\t3\nbeta",
	typereg.InputSignedItems:        "alpha\t-2\nbeta\t+4\ngamma",
	typereg.InputFloats:             "1.5\n2.25\n-0.5",
	typereg.InputUintValues:         "7\t2\n42",
	typereg.InputTurnstile:          "3\t5\n9",
	typereg.InputEvents:             "x\nx\nx",
	typereg.InputEdges:              "0\t1\n2\t3",
	typereg.InputWeightedFloatItems: "alpha\t1.5\nbeta",
}

func batchOf(kind typereg.InputKind) []byte { return []byte(sampleBatch[kind]) }

// FuzzGenericDecode is the one decode target: the registry's
// self-describing decode path, seeded with a fresh and a fed envelope of
// every registered family, their truncations and byte flips, and the
// hand-built envelopes that once found a decoder bug. Arbitrary bytes
// decode or error, never panic; and what decodes is a sketch a server
// could hold — it is used through its descriptor's bindings as a live
// entry is: it takes the kind's lines (or refuses them), answers the
// summary query, keeps a fresh insert if it is a membership filter,
// marshals to bytes that decode again, and merges with that copy of
// itself.
func FuzzGenericDecode(f *testing.F) {
	// Families whose default shape serializes to hundreds of KB get a
	// deliberately small seed shape — mutation throughput over payloads
	// that size is too low to explore anything.
	small := map[string]map[string]float64{
		"bloom":         {"m": 1024, "k": 4},
		"blockedbloom":  {"m": 1024, "k": 4},
		"countingbloom": {"m": 1024},
		"graphsketch":   {"vertices": 16, "rounds": 4},
		"countsketch":   {"width": 64, "depth": 3},
		"countmin":      {"width": 64, "depth": 4},
		"ams":           {"groups": 3, "per_group": 16},
	}
	marshal := func(name string, inst any) []byte {
		data, err := typereg.Marshal(inst)
		if err != nil {
			f.Fatalf("%q marshal: %v", name, err)
		}
		return data
	}
	var fresh, fed [][]byte
	for _, d := range typereg.All() {
		inst, err := sketch.New(d.Name, 1, small[d.Name])
		if err != nil {
			f.Fatalf("New(%q): %v", d.Name, err)
		}
		data := marshal(d.Name, inst)
		f.Add(data)
		fresh = append(fresh, data)
		// One tag-preserving mutation per family, to get the fuzzer past
		// the envelope header into family-specific decoders.
		if len(data) > 8 {
			mut := append([]byte(nil), data...)
			mut[len(mut)/2] ^= 0x55
			f.Add(mut)
		}
		if d.Servable() {
			if _, err := d.Bind.Ingest(inst, batchOf(d.Input)); err != nil {
				f.Fatalf("%q ingest: %v", d.Name, err)
			}
			fed = append(fed, marshal(d.Name, inst))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("GSK1"))
	for _, data := range fed {
		f.Add(data)
	}
	// A version-2 envelope carrying the fused mode byte (the layout cannot
	// agree with the byte); an SF envelope in slim form, and with a mode
	// byte beyond slim; a robust counter with its switching state baked in.
	for _, fused := range []interface{ MarshalBinary() ([]byte, error) }{
		frequency.NewCountMinLayout(frequency.Layout{Width: 64, Depth: 3, Mode: frequency.Fused, Seed: 4}),
		frequency.NewCountSketchLayout(frequency.Layout{Width: 64, Depth: 3, Mode: frequency.Fused, Seed: 5}),
	} {
		v2, _ := fused.MarshalBinary()
		v2[5] = 2 // GSK1 magic (4) + tag (1), then version
		f.Add(v2)
	}
	sf := frequency.NewSFSketch(64, 3, 256, 3, 4)
	sf.AddUint64(7, 3)
	slim, _ := sf.MarshalSlim()
	f.Add(slim)
	full, _ := sf.MarshalBinary()
	full[6] = 2 // the mode byte follows the version
	f.Add(full)
	rd := robust.NewDefendedDistinct(0.05, 4, 8, 1, 0.1, 0.5)
	for i := 0; i < 500; i++ {
		rd.AddUint64(uint64(i))
	}
	rd.Estimate()
	f.Add(marshal("robustdistinct", rd))
	// Every family's envelopes, fresh and fed, cut and flipped; and a
	// classic Bloom payload under the blocked filter's tag (the layouts
	// address different bits, so it must not decode as one).
	for _, data := range append(fresh, fed...) {
		for _, m := range mutations(data) {
			f.Add(m)
		}
	}
	classic := marshal("bloom", bloom.NewWithEstimates(100, 0.01, 1))
	classic[4] = core.TagBlockedBloom
	f.Add(classic)

	f.Fuzz(func(t *testing.T, in []byte) {
		inst, d, err := typereg.Decode(in)
		if err != nil {
			return
		}
		if d.Servable() {
			_, _ = d.Bind.Ingest(inst, batchOf(d.Input)) // a decoded shape may refuse a line: its domain is its own
			_, _ = d.Bind.Query(inst, nil)
		}
		if m, ok := inst.(interface {
			AddString(string)
			ContainsString(string) bool
		}); ok {
			m.AddString("post")
			if !m.ContainsString("post") {
				t.Fatalf("decoded %s lost a fresh insert", d.Name)
			}
		}
		env, err := typereg.Marshal(inst)
		if err != nil {
			t.Fatalf("decoded %s fails to re-marshal: %v", d.Name, err)
		}
		again, err := d.Decode(env)
		if err != nil {
			t.Fatalf("decoded %s marshals to bytes that do not decode: %v", d.Name, err)
		}
		if d.Servable() && d.Mergeable() {
			if err := d.Bind.Merge(inst, again); err != nil {
				t.Fatalf("decoded %s does not merge with a copy of itself: %v", d.Name, err)
			}
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes to the durable WAL replayer. The
// invariants under corruption: never panic, never consume past the
// input, never replay a record the caller already has (LSN must be
// strictly increasing and above the floor), and every replayed record
// must itself re-encode to a frame the replayer accepts.
func FuzzWALReplay(f *testing.F) {
	valid := durable.WALHeader()
	for lsn := uint64(1); lsn <= 3; lsn++ {
		valid = durable.AppendRecord(valid, durable.Record{
			LSN: lsn, Op: durable.OpIngest, Name: "s", Body: []byte("alpha\nbeta"),
		})
	}
	corpusFor(f, valid)
	torn := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(torn)
	f.Add(durable.WALHeader())
	f.Fuzz(func(t *testing.T, in []byte) {
		const floor = uint64(1)
		prev := floor
		var replayed int
		consumed, last, err := durable.ReplayLog(in, floor, func(r durable.Record) error {
			if r.LSN <= prev {
				t.Fatalf("replayed LSN %d after %d: not strictly increasing above the floor", r.LSN, prev)
			}
			prev = r.LSN
			replayed++
			return nil
		})
		if err != nil {
			return // corrupt header: nothing may have been replayed before it
		}
		if consumed > len(in) {
			t.Fatalf("consumed %d of %d input bytes", consumed, len(in))
		}
		if replayed > 0 && last != prev {
			t.Fatalf("ReplayLog reports last LSN %d, callback saw %d", last, prev)
		}
		// The valid prefix must replay identically a second time.
		var again int
		if _, _, err := durable.ReplayLog(in[:consumed], floor, func(durable.Record) error {
			again++
			return nil
		}); err != nil && consumed > 0 {
			t.Fatalf("valid prefix failed to replay: %v", err)
		}
		if again != replayed {
			t.Fatalf("prefix replayed %d records, first pass %d", again, replayed)
		}
	})
}

// bufferedInstances are the buffered serving instances the buffered
// fuzz targets share: each hashed family as Serving(p, true) builds it,
// at the shapes of the seed envelopes below, closed when the target
// ends. They are shared across iterations (created once, not per fuzz
// case) so the target doesn't spawn a goroutine per input.
func bufferedInstances(f *testing.F) map[*typereg.Descriptor]any {
	out := map[*typereg.Descriptor]any{}
	for name, raw := range map[string]map[string]float64{
		"countmin":     {"width": 64, "depth": 4},
		"hll":          {"p": 10},
		"blockedbloom": {"m": 1024, "k": 4},
	} {
		d, _ := typereg.Lookup(name)
		p, err := d.Validate(map[string]uint64{"countmin": 1, "hll": 2, "blockedbloom": 3}[name], raw)
		if err != nil {
			f.Fatal(err)
		}
		inst, err := d.Serving(p, true)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(inst.(interface{ Close() }).Close)
		out[d] = inst
	}
	return out
}

// FuzzBufferedMerge exercises the buffered families' merge surface:
// arbitrary bytes that decode as a plain family envelope are merged into
// a live buffered instance — shape/seed mismatches must error cleanly,
// compatible payloads must fold in, and nothing may panic or wedge the
// propagator.
func FuzzBufferedMerge(f *testing.F) {
	cmSeed := frequencyCountMinSeed()
	hllSeed := cardinalityHLLSeed()
	bloomSeed := bloomBlockedSeed()
	corpusFor(f, cmSeed)
	f.Add(hllSeed)
	f.Add(bloomSeed)

	insts := bufferedInstances(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		for d, inst := range insts {
			if src, err := d.Decode(in); err == nil {
				_ = d.Bind.Merge(inst, src)
				_, _ = d.Bind.Query(inst, url.Values{"item": {"42"}})
				_, _ = d.Bind.Query(inst, nil)
			}
		}
	})
}

// FuzzBufferedIngest drives the registry's ingest bindings over buffered
// instances (pooled-writer batch path, including the validate-whole-
// batch weight parsing) with arbitrary newline batches: a bad line
// must reject the batch with an error and no partial state panic-free.
func FuzzBufferedIngest(f *testing.F) {
	f.Add([]byte("item\t3\nplain\nx\t18446744073709551615"))
	f.Add([]byte("a\tb"))
	f.Add([]byte("\t\n\t\t\n"))
	f.Add([]byte(""))
	insts := bufferedInstances(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		for d, inst := range insts {
			_, _ = d.Bind.Ingest(inst, in)
		}
	})
}

// Seed-envelope builders for the buffered fuzz targets, matching the
// buffered instances' shapes so compatible merges actually execute.
func frequencyCountMinSeed() []byte {
	cm := frequency.NewCountMin(64, 4, 1)
	for i := 0; i < 100; i++ {
		cm.AddUint64(uint64(i), 1)
	}
	data, _ := cm.MarshalBinary()
	return data
}

func cardinalityHLLSeed() []byte {
	h := cardinality.NewHLL(10, 2)
	for i := 0; i < 1000; i++ {
		h.AddUint64(uint64(i))
	}
	data, _ := h.MarshalBinary()
	return data
}

func bloomBlockedSeed() []byte {
	bf := bloom.NewBlocked(1024, 4, 3)
	bf.AddString("seed")
	data, _ := bf.MarshalBinary()
	return data
}

// FuzzRobustDistinctDecode: the robustdistinct envelope nests a full
// HLL serialization per switching copy plus six parameter fields, all
// of which must validate before any copy decode is trusted. A decode
// that succeeds must round-trip: re-marshal, decode again, and answer
// queries without panicking — the registry's crash-recovery path
// (decode + merge into a fresh serving instance) relies on exactly
// that.
func FuzzRobustDistinctDecode(f *testing.F) {
	d := robust.NewDefendedDistinct(0.05, 4, 8, 1, 0.1, 0.5)
	for i := 0; i < 500; i++ {
		d.AddUint64(uint64(i))
	}
	d.Estimate() // bake switching state (cur/last) into the envelope
	data, _ := d.MarshalBinary()
	corpusFor(f, data)
	f.Fuzz(func(t *testing.T, in []byte) {
		var g robust.Distinct
		if g.UnmarshalBinary(in) != nil {
			return
		}
		g.AddUint64(42)
		_ = g.Estimate()
		round, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decoded sketch: %v", err)
		}
		var h robust.Distinct
		if err := h.UnmarshalBinary(round); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
	})
}

// FuzzProjectionDecode hammers the query-projection carrier's decoder
// (registry.Projection — what a shard answers `GET …/snapshot?for=`
// with): arbitrary bytes must decode or error without panicking, a
// decoded projection obeys the cell-count bound and re-marshals to
// exactly the bytes it came from (so the length is bounded too), and
// merging it with itself and finishing it under any query stay
// errors-or-answers, never panics.
func FuzzProjectionDecode(f *testing.F) {
	cm, _ := typereg.Lookup("countmin")
	inst, _ := sketch.New("countmin", 1, map[string]float64{"width": 64, "depth": 4})
	inst.(*frequency.CountMin).Add([]byte("seed"), 3)
	q := url.Values{"item": {"seed"}}
	p, err := cm.Projection(inst, q)
	if err != nil || p == nil {
		f.Fatalf("countmin projection: %v, %v", p, err)
	}
	data, _ := p.MarshalBinary()
	corpusFor(f, data)
	carrier, _ := typereg.Lookup("projection")
	f.Fuzz(func(t *testing.T, in []byte) {
		var g typereg.Projection
		if g.UnmarshalBinary(in) != nil {
			return
		}
		if len(g.Cells) > 128 {
			t.Fatalf("decoded %d cells, over the carrier's bound", len(g.Cells))
		}
		out, err := g.MarshalBinary()
		if err != nil || !bytes.Equal(out, in) {
			t.Fatalf("re-marshal differs from the accepted input (%d vs %d bytes, err %v)", len(out), len(in), err)
		}
		var h typereg.Projection
		if err := h.UnmarshalBinary(out); err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if err := g.Merge(&h); err != nil {
			t.Fatalf("a projection does not merge with its own copy: %v", err)
		}
		_, _ = carrier.Bind.Query(&g, q)
	})
}

// FuzzWireBlocks hammers the block codec under every table family
// (core.ReadBlock / WriteBlock behind U64Slice, I64Slice, F64Slice and
// the frequency tables): arbitrary bytes read as three length-prefixed
// blocks must give exactly what one bounds-checked U64 per element
// gives — the same values, the same verdict — never panic, never return
// a slice the bytes present did not pay for, and whatever is accepted
// re-encodes to the bytes it came from.
func FuzzWireBlocks(f *testing.F) {
	w := core.NewWriter(core.TagKLL, 1)
	w.U64Slice([]uint64{1, 1 << 63, 3})
	w.I64Slice([]int64{-1})
	w.F64Slice(nil)
	corpusFor(f, w.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		r, version, err := core.NewReader(in, core.TagKLL)
		if err != nil {
			return
		}
		us, is, fs := r.U64Slice(), r.I64Slice(), r.F64Slice()
		if held := 8 * (len(us) + len(is) + len(fs)); held > len(in) {
			t.Fatalf("%d bytes of input decoded into %d bytes of slices", len(in), held)
		}
		per, _, _ := core.NewReader(in, core.TagKLL)
		for s, n := range []int{len(us), len(is), len(fs)} {
			if per.Count(8) != n && per.Err() == nil {
				t.Fatalf("block %d holds %d elements, its count says otherwise", s, n)
			}
			for i := 0; i < n && per.Err() == nil; i++ {
				v := per.U64()
				if s == 0 && us[i] != v || s == 1 && is[i] != int64(v) || s == 2 && math.Float64bits(fs[i]) != v {
					t.Fatalf("block %d element %d differs from the per-element read", s, i)
				}
			}
		}
		if (r.Done() == nil) != (per.Done() == nil) {
			t.Fatalf("block reads say %v, per-element reads say %v", r.Done(), per.Done())
		}
		if r.Done() != nil {
			return
		}
		back := core.NewWriter(core.TagKLL, version)
		back.U64Slice(us)
		back.I64Slice(is)
		back.F64Slice(fs)
		if !bytes.Equal(back.Bytes(), in) {
			t.Fatalf("re-encoding differs from the accepted input (%d vs %d bytes)", len(back.Bytes()), len(in))
		}
	})
}

// FuzzClientResponse holds the client's hand-written HTTP/1.1 reply
// parser (internal/server/client/link.go) to the standard library's:
// arbitrary bytes are served as the whole reply to one conditional
// snapshot read (client.Refresh, holding an envelope under a tag). The
// call never panics and always returns; when it returns a new envelope,
// net/http's ReadResponse reads status 200, the same body and the same
// ETag out of the same bytes; when it keeps what it held, ReadResponse
// reads a 304; when it returns a *StatusError, ReadResponse reads that
// status. What the parser refuses (a transport error) is not compared:
// it reads a subset of HTTP on purpose. Nor does the client keep a
// connection net/http would close: the server sees whether the client
// hung up, and a reply that ends where the input does and says
// Connection: close (or has no length) must have been hung up on.
func FuzzClientResponse(f *testing.F) {
	long := strings.Repeat("0123456789abcdef", 1024)
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nenvelope",
		"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 16384\r\n\r\n" + long,
		"HTTP/1.1 200\r\ncontent-LENGTH: \t3 \r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\nA\r\n0123456789\r\n0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello",
		"HTTP/1.0 200 OK\r\n\r\nuntil the end",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye",
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbodystray",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\nContent-Length: 35\r\n\r\n{\"error\":\"query budget exhausted\"}\n",
		"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 19\r\n\r\n  shard is melting\n",
		"HTTP/1.1 400 Bad Request\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nbad w\r\n5\r\neight\r\n0\r\n\r\n",
		"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 16384\r\n\r\n" + long,
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Len",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxy",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffffff\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;x=y\r\na\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nab\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX-T: v\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Pad: " + long[:5000] + "\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 0\n\n",
		"HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\nContent-Length : 1\r\n\r\nx",
		"",
		"HTTP/1.1 304 Not Modified\r\nETag: \"held\"\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nConnection: close\r\n\r\n",
		"HTTP/1.0 304 Not Modified\r\n\r\n",
		"HTTP/1.1 200 OK\r\nETag: \"a1-2-3\"\r\nContent-Length: 8\r\n\r\nenvelope",
		"HTTP/1.1 200 OK\r\netag:  W/\"weak\" \r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nETag: \"one\"\r\nETag: \"two\"\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nETag:\r\nETag: \"late\"\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nETag: \"held\"\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n",
		"HTTP/1.1 412 Precondition Failed\r\nETag: \"held\"\r\nContent-Length: 2\r\n\r\nno",
	} {
		f.Add([]byte(seed))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	replies := make(chan []byte, 1) // the reply of the one call in flight
	returned := make(chan struct{}) // the call that reply answered has returned
	kept := make(chan bool)         // and the client kept the connection open
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					for line := ""; line != "\r\n"; { // the request has no body
						if line, err = br.ReadString('\n'); err != nil {
							return // the client closed
						}
					}
					c.Write(<-replies)
					select {
					case <-returned:
					case <-time.After(10 * time.Millisecond):
						// The client still waits for the rest of a reply
						// that has none: hang up, as a reply without a
						// length ends.
						c.Close()
						<-returned
					}
					// A client that hung up before it returned has its FIN
					// here by now; one that pooled the connection sends
					// nothing until its next call, which waits for this.
					c.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
					_, err := br.Peek(1)
					open := err == nil || errors.Is(err, os.ErrDeadlineExceeded)
					kept <- open
					if !open {
						return
					}
					c.SetReadDeadline(time.Time{})
				}
			}()
		}
	}()
	f.Cleanup(func() { ln.Close() })
	// One client for every input: a connection one reply left pooled
	// carries the next call.
	cl := client.New("http://" + ln.Addr().String())

	f.Fuzz(func(t *testing.T, in []byte) {
		held := client.Cached{Env: []byte("held envelope"), Tag: []byte(`"held"`)}
		replies <- in
		start := time.Now()
		changed, err := cl.Refresh("s", "", &held)
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("the call took %v", took)
		}
		served := true
		select {
		case <-replies: // no request reached the server: the dial failed
			served = false
		default:
		}
		clientKept := false
		if served {
			returned <- struct{}{}
			clientKept = <-kept
		}
		rd := bytes.NewReader(in)
		brd := bufio.NewReader(rd)
		resp, oracleErr := http.ReadResponse(brd, &http.Request{Method: "GET"})
		var want []byte
		bodyErr := oracleErr
		if oracleErr == nil {
			want, bodyErr = io.ReadAll(resp.Body)
		}
		var se *client.StatusError
		switch {
		case err == nil && changed:
			if bodyErr != nil || resp.StatusCode != 200 || !bytes.Equal(held.Env, want) {
				t.Fatalf("read %d bytes of a 200; net/http: %v, %d bytes (%v)", len(held.Env), resp, len(want), bodyErr)
			}
			if tag := resp.Header.Get("ETag"); string(held.Tag) != tag {
				t.Fatalf("read the tag %q; net/http: %q", held.Tag, tag)
			}
		case err == nil:
			if oracleErr != nil || resp.StatusCode != 304 {
				t.Fatalf("read a 304; net/http: %v (%v)", resp, oracleErr)
			}
			if string(held.Env) != "held envelope" || string(held.Tag) != `"held"` {
				t.Fatalf("a 304 left %q under %q, not what was held", held.Env, held.Tag)
			}
		case errors.As(err, &se):
			if oracleErr != nil || resp.StatusCode != se.Code {
				t.Fatalf("read status %d; net/http: %v (%v)", se.Code, resp, oracleErr)
			}
		default:
			return
		}
		// The reply ends where the input does, so net/http's Transport
		// would decide on resp.Close alone.
		if clientKept && bodyErr == nil && brd.Buffered()+rd.Len() == 0 && resp.Close {
			t.Fatalf("kept the connection of a reply net/http closes: %v", resp)
		}
	})
}

// FuzzMergeWire: arbitrary bytes folded, as an envelope, into a valid
// envelope of every family that merges on the wire (Descriptor.MergeWire;
// the SF-sketch in both its forms). The fold never panics; when it
// refuses or declines, the destination is byte for byte what it was and
// decoding refuses too; when it merges, the destination is
// Marshal(Merge(Decode(dst), Decode(src))). The corpus is the envelope
// TestWireBytesGolden measures for each family — default parameters,
// its 1024 numeric lines — with corpusFor's cuts and flips; the
// destinations hold other lines in the same shape, so a seed merges.
func FuzzMergeWire(f *testing.F) {
	lines := func(mul int) []byte {
		var body []byte
		for i := 0; i < 1024; i++ {
			body = append(strconv.AppendInt(body, int64(i*mul%100000), 10), '\n')
		}
		return body
	}
	type target struct {
		d   *typereg.Descriptor
		env []byte
	}
	var targets []target
	for _, d := range typereg.All() {
		if d.MergeWire == nil {
			continue
		}
		for _, slim := range []bool{false, true} {
			var envs [2][]byte
			for i, mul := range []int{7919, 104729} {
				entry, err := server.NewEntry(server.CreateRequest{Type: d.Name})
				if err != nil {
					f.Fatal(err)
				}
				if _, err := entry.Ingest(lines(mul)); err != nil {
					f.Fatal(err)
				}
				env, used, err := entry.SnapshotWire(nil, slim)
				entry.Close()
				if err != nil {
					f.Fatal(err)
				}
				if used != slim {
					envs[0] = nil // no slim form: the full one has had its turn
					break
				}
				envs[i] = env
			}
			if envs[0] == nil {
				continue
			}
			f.Add(uint8(len(targets)), envs[0])
			half := envs[0][:len(envs[0])/2]
			f.Add(uint8(len(targets)), half)
			for _, at := range []int{5, 6, len(envs[0]) - 1} {
				flipped := bytes.Clone(envs[0])
				flipped[at] ^= 0x81
				f.Add(uint8(len(targets)), flipped)
			}
			targets = append(targets, target{d, envs[1]})
		}
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte("GSK1"))
	f.Fuzz(func(t *testing.T, which uint8, src []byte) {
		tg := targets[int(which)%len(targets)]
		dst := bytes.Clone(tg.env)
		folded, err := tg.d.MergeWire(dst, src)

		var want []byte
		a, wantErr := tg.d.Decode(tg.env)
		if wantErr != nil {
			t.Fatalf("the destination does not decode: %v", wantErr)
		}
		b, wantErr := tg.d.Decode(src)
		if wantErr == nil {
			if wantErr = tg.d.Bind.Merge(a, b); wantErr == nil {
				want, _ = typereg.Marshal(a)
			}
		}
		switch {
		case folded == 0:
			if !bytes.Equal(dst, tg.env) {
				t.Fatalf("%s: MergeWire answered (0, %v) and changed dst", tg.d.Name, err)
			}
			if err != nil && (wantErr == nil || errors.Is(err, core.ErrCorrupt) != errors.Is(wantErr, core.ErrCorrupt)) {
				t.Fatalf("%s: MergeWire refuses with %v, decode-merge answers %v", tg.d.Name, err, wantErr)
			}
		case wantErr != nil:
			t.Fatalf("%s: MergeWire merged what decode-merge refuses: %v", tg.d.Name, wantErr)
		case !bytes.Equal(dst, want):
			t.Fatalf("%s: MergeWire's envelope is not Marshal(Merge(Decode dst, Decode src))", tg.d.Name)
		}
	})
}

// FuzzMurmur3MatchesReference holds hashx.Murmur3_128, whose tail is
// read in partial words, to the byte-at-a-time function it replaced,
// kept below as it stood at commit 347a35f: every register file and bit
// array on disk was addressed by that function's answers. The seeds are
// the empty key, each tail length alone, and 16 and 17 (a block, and a
// block with a tail behind it).
func FuzzMurmur3MatchesReference(f *testing.F) {
	key := []byte("flow4194303-flow0")
	for n := 0; n <= len(key); n++ {
		f.Add(key[:n], uint64(n)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		w1, w2 := referenceMurmur3_128(data, seed)
		if h1, h2 := hashx.Murmur3_128(data, seed); h1 != w1 || h2 != w2 {
			t.Fatalf("Murmur3_128(%x, %#x) = (%#x, %#x), reference (%#x, %#x)", data, seed, h1, h2, w1, w2)
		}
		if h1, h2 := hashx.Murmur3_128String(string(data), seed); h1 != w1 || h2 != w2 {
			t.Fatalf("Murmur3_128String(%x, %#x) = (%#x, %#x), reference (%#x, %#x)", data, seed, h1, h2, w1, w2)
		}
	})
}

const (
	refMurmurC1 uint64 = 0x87c37b91114253d5
	refMurmurC2 uint64 = 0x4cf5ad432745937f
)

func referenceMurmur3_128(data []byte, seed uint64) (uint64, uint64) {
	h1 := seed
	h2 := seed
	n := len(data)

	for len(data) >= 16 {
		k1 := binary.LittleEndian.Uint64(data[0:8])
		k2 := binary.LittleEndian.Uint64(data[8:16])
		data = data[16:]

		k1 *= refMurmurC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= refMurmurC2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= refMurmurC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= refMurmurC1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	var k1, k2 uint64
	switch len(data) & 15 {
	case 15:
		k2 ^= uint64(data[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(data[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(data[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(data[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(data[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(data[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(data[8])
		k2 *= refMurmurC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= refMurmurC1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(data[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(data[0])
		k1 *= refMurmurC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= refMurmurC2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = refFmix64(h1)
	h2 = refFmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

func refFmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// FuzzServeConn writes arbitrary bytes down a connection to sketchd's
// server.Listen and to http.Server, its reference, each serving a
// handler that covers the reply shapes: a held body, a chunked one (the
// type catalogue, over 2 KB and unsized), a set length, 204, 304, an
// echo of the request body and a handler that leaves the body to the
// drain. The loop must neither panic nor hang, every reply must parse
// with http.ReadResponse, and the statuses must be http.Server's.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"GET /small HTTP/1.1\r\nHost: x\r\n\r\n",
		"HEAD /small HTTP/1.1\r\nHost: x\r\n\r\nHEAD /v1/types HTTP/1.1\r\nHost: x\r\n\r\nGET /sized HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/types HTTP/1.1\r\nHost: x\r\n\r\nGET /none HTTP/1.1\r\nHost: x\r\n\r\nGET /held HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello\r\nGET /small HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /peek HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n0123456789GET /small HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok",
		"POST /peek HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 9\r\n\r\n123456789",
		"POST /echo HTTP/1.1\r\nHost: x\r\nExpect: soon\r\nContent-Length: 2\r\n\r\nok",
		"GET /small HTTP/1.0\r\n\r\n",
		"GET /small HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /v1/types HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET /small HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\nGET /small HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /small HTTP/1.1\r\n\r\n",
		"GET /small HTTP/1.1\r\nHost:\r\n\r\n",
		"GET /small HTTP/1.1\r\nHost: a b\r\n\r\n",
		"GET http://x/small HTTP/1.1\r\n\r\n",
		"GET http://x/small HTTP/1.1\r\nHost: y\r\n\r\n",
		"GET /small HTTP/2.0\r\nHost: x\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n",
		"GET /small HTTP/1.1\r\nHost: x\r\nBad Name: v\r\n\r\n",
		"GARBAGE\r\n\r\n",
		"GET /sm",
		"",
	} {
		f.Add([]byte(seed))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/types", server.HandleTypes)
	mux.HandleFunc("/small", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("small\n")) })
	mux.HandleFunc("/sized", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "5")
		w.Write([]byte("sized"))
	})
	mux.HandleFunc("/none", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) })
	mux.HandleFunc("/held", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNotModified) })
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "reading the body", http.StatusBadRequest)
			return
		}
		w.Write(body)
	})
	mux.HandleFunc("/peek", func(w http.ResponseWriter, r *http.Request) {
		io.CopyN(io.Discard, r.Body, 3)
		w.Write([]byte("peeked\n"))
	})
	// http.Server stays here on purpose: it is the reference.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	ref := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go ref.Serve(ln)
	f.Cleanup(func() { ref.Close() })
	loop, base, err := server.Listen("127.0.0.1:0", mux)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { loop.Close() })
	addrs := [2]string{ln.Addr().String(), strings.TrimPrefix(base, "http://")}
	f.Fuzz(func(t *testing.T, in []byte) {
		methods := requestMethods(in)
		want, wantReset := serveStatuses(t, addrs[0], in, methods)
		got, gotReset := serveStatuses(t, addrs[1], in, methods)
		if wantReset || gotReset {
			// A reset can destroy replies in flight: compare what both read.
			n := min(len(want), len(got))
			want, got = want[:n], got[:n]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("statuses %v, http.Server's %v, on %q", got, want, in)
		}
	})
}

// requestMethods parses in as a server does, for the method of each
// request a reply answers.
func requestMethods(in []byte) []string {
	br := bufio.NewReader(bytes.NewReader(in))
	var methods []string
	for post := false; ; post = methods[len(methods)-1] == "POST" {
		if post {
			peek, _ := br.Peek(4)
			n := 0
			for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
				n++
			}
			br.Discard(n)
		}
		req, err := http.ReadRequest(br)
		if err != nil {
			return methods
		}
		methods = append(methods, req.Method)
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return methods
		}
	}
}

// serveStatuses writes in to addr, half-closes, and returns the status
// of every reply, interim ones included, and whether the connection
// ended in a reset rather than a close.
func serveStatuses(t *testing.T, addr string, in []byte, methods []string) ([]int, bool) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		c.Write(in)
		c.(*net.TCPConn).CloseWrite()
	}()
	br := bufio.NewReader(c)
	var codes []int
	for i := 0; ; {
		if _, err := br.Peek(1); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("%s: neither a reply nor a close in 10 s, on %q", addr, in)
			}
			return codes, err != io.EOF
		}
		method := "GET"
		if i < len(methods) {
			method = methods[i]
		}
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err == nil && !resp.Close {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		if errors.Is(err, syscall.ECONNRESET) {
			return codes, true
		}
		if err != nil {
			t.Fatalf("%s: reply %d does not parse: %v, on %q", addr, len(codes), err, in)
		}
		codes = append(codes, resp.StatusCode)
		if resp.Close {
			// Nothing follows; a refusal's body is delimited by the close
			// even when it answers a HEAD.
			return codes, false
		}
		if resp.StatusCode >= 200 {
			i++
		}
	}
}
