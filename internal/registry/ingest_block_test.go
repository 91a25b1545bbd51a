package registry

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ams"
	"repro/internal/frequency"
	"repro/internal/graphsketch"
	"repro/internal/quantile"
	"repro/internal/sample"
)

// parsedKind reports whether a line of kind k carries something to
// parse — a weight, sign, value, delta or edge — and so goes through
// parsedIngest.
func parsedKind(k InputKind) bool {
	switch k {
	case InputWeightedItems, InputSignedItems, InputFloats, InputUintValues,
		InputTurnstile, InputEdges, InputWeightedFloatItems:
		return true
	}
	return false
}

// scalarAdd is the reference the block path is held to: the line split
// and decoded with the standard library, then one call of the plain
// sketch's own per-item method.
func scalarAdd(t *testing.T, inst any, line string) {
	t.Helper()
	head, tail := line, ""
	if i := strings.LastIndexByte(line, '\t'); i >= 0 {
		head, tail = line[:i], line[i+1:]
	}
	uintOf := func(s string, def uint64) uint64 {
		if s == "" {
			return def
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		return v
	}
	intOf := func(s string) int64 {
		if s == "" {
			return 1
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		return v
	}
	floatOf := func(s string) float64 {
		if s == "" {
			return 1
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		return v
	}
	switch s := inst.(type) {
	case *frequency.CountMin:
		s.Add([]byte(head), uintOf(tail, 1))
	case *frequency.SFSketch:
		s.Add([]byte(head), uintOf(tail, 1))
	case *frequency.MisraGries:
		s.Add(head, uintOf(tail, 1))
	case *frequency.SpaceSaving:
		s.Add(head, uintOf(tail, 1))
	case *frequency.CountSketch:
		s.Add([]byte(head), intOf(tail))
	case *ams.Sketch:
		s.Add([]byte(head), intOf(tail))
	case *quantile.KLL:
		s.Add(floatOf(line))
	case *quantile.REQ:
		s.Add(floatOf(line))
	case *quantile.GK:
		s.Add(floatOf(line))
	case *quantile.TDigest:
		s.Add(floatOf(line))
	case *quantile.MRL:
		s.Add(floatOf(line))
	case *quantile.QDigest:
		s.Add(uintOf(head, 0), uintOf(tail, 1))
	case *sample.SparseRecovery:
		s.Update(uintOf(head, 0), intOf(tail))
	case *sample.L0Sampler:
		s.Update(uintOf(head, 0), intOf(tail))
	case *sample.WeightedReservoir:
		s.Add([]byte(head), floatOf(tail))
	case *graphsketch.Sketch:
		s.AddEdge(int(uintOf(head, 0)), int(uintOf(tail, 0)))
	default:
		t.Fatalf("no scalar reference for %T: add its per-item method here", inst)
	}
}

// ingestVariants builds every instance variant a descriptor constructs
// with the binding that feeds it, the plain one first.
type ingestVariant struct {
	name   string
	inst   any
	ingest func(any, []byte) (int, error)
}

func ingestVariants(t *testing.T, d *Descriptor, p Params) []ingestVariant {
	t.Helper()
	var out []ingestVariant
	for _, v := range variantsOf(d) {
		inst, err := v.build(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closeIfOwned(inst) })
		out = append(out, ingestVariant{v.name, inst, v.bind.Ingest})
	}
	return out
}

func mustMarshal(t *testing.T, inst any) []byte {
	t.Helper()
	data, err := Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// messyBody is lines as a body that takes every liberty the line rule
// allows: CRLF endings, blank lines (bare and CRLF) before any line, and
// no newline after the last.
func messyBody(rng *rand.Rand, lines [][]byte) []byte {
	var body []byte
	for i, line := range lines {
		for rng.Intn(4) == 0 {
			body = append(body, []string{"\n", "\r\n"}[rng.Intn(2)]...)
		}
		body = append(body, line...)
		if i < len(lines)-1 {
			body = append(body, []string{"\n", "\r\n"}[rng.Intn(2)]...)
		}
	}
	return body
}

// TestIngestBlockMatchesScalar: a body cut and parsed once into a block
// and applied as one leaves exactly the bytes its lines leave when each
// is decoded by strconv and added by the sketch's per-item method — for
// every descriptor with something to parse, in every variant, whether
// the body is clean or has CRLF endings, blank lines and no final
// newline; and the count is the lines'.
func TestIngestBlockMatchesScalar(t *testing.T) {
	covered := 0
	for _, d := range All() {
		if !d.Servable() || !parsedKind(d.Input) {
			continue
		}
		covered++
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(7, lawRows[d.Name].compact)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := d.New(p)
			if err != nil {
				t.Fatal(err)
			}
			clean, messy := ingestVariants(t, d, p), ingestVariants(t, d, p)
			rng := rand.New(rand.NewSource(int64(d.Tag)))
			// Sizes around the kernels' 256-item chunk, and a batch
			// after a batch: the pooled block comes back dirty.
			for _, n := range []int{1, 255, 256, 257, 1024, 3} {
				batch := randomLines(rng, d.Input, n, universeOf(d, p, 40))
				for _, line := range batch {
					scalarAdd(t, ref, string(line))
				}
				for i := range clean {
					for _, fed := range []struct {
						v    ingestVariant
						body []byte
					}{{clean[i], joinLines(batch)}, {messy[i], messyBody(rng, batch)}} {
						if got, err := fed.v.ingest(fed.v.inst, fed.body); err != nil || got != n {
							t.Fatalf("%s: body %.40q...: %d items, %v; want %d", fed.v.name, fed.body, got, err, n)
						}
					}
				}
			}
			want := mustMarshal(t, ref)
			for i := range clean {
				for _, v := range []ingestVariant{clean[i], messy[i]} {
					if got := mustMarshal(t, v.inst); !bytes.Equal(got, want) {
						t.Errorf("%s: %T diverges from per-line scalar adds (%d vs %d bytes)", v.name, v.inst, len(got), len(want))
					}
				}
			}
		})
	}
	if covered < 16 {
		t.Errorf("only %d descriptors covered; the parsed kinds have at least 16", covered)
	}
}

// rejectedLines are lines a kind's parse must refuse: a malformed
// second field, one past its range, an empty one, and (value kinds) a
// first field outside every shape's domain.
func rejectedLines(k InputKind) []string {
	switch k {
	case InputWeightedItems:
		return []string{"x\tbogus", "x\t18446744073709551616", "x\t", "x\t-1"}
	case InputSignedItems:
		return []string{"x\t1.5", "x\t9223372036854775808", "x\t", "x\t-9223372036854775809"}
	case InputFloats:
		return []string{"notafloat", "1e999", "1.5x"}
	case InputUintValues:
		return []string{"notanum", "7\tbogus", "7\t18446744073709551616", "7\t", "1048576", "-3"}
	case InputTurnstile:
		return []string{"x\t1", "3\tx", "3\t9223372036854775808", "3\t", "18446744073709551616\t1"}
	case InputEdges:
		return []string{"5\t5", "5", "0\t1024", "a\tb", "1\t"}
	case InputWeightedFloatItems:
		return []string{"x\t-1", "x\t0", "x\tNaN", "x\t", "x\tbogus"}
	}
	return nil
}

// TestIngestRejectsWholeBatch: a line that does not parse, last in a
// batch whose every other line does, rejects all of it — the instance
// serializes as before and the error wraps ErrInput.
func TestIngestRejectsWholeBatch(t *testing.T) {
	for _, d := range All() {
		if !d.Servable() || !parsedKind(d.Input) {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			p, err := d.Validate(7, lawRows[d.Name].compact)
			if err != nil {
				t.Fatal(err)
			}
			rng, universe := rand.New(rand.NewSource(int64(d.Tag))), universeOf(d, p, 40)
			for _, v := range ingestVariants(t, d, p) {
				if _, err := v.ingest(v.inst, joinLines(randomLines(rng, d.Input, 300, universe))); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				before := mustMarshal(t, v.inst)
				for _, bad := range rejectedLines(d.Input) {
					batch := append(randomLines(rng, d.Input, 40, universe), []byte(bad))
					if n, err := v.ingest(v.inst, joinLines(batch)); !errors.Is(err, ErrInput) || n != 0 {
						t.Errorf("%s: last line %q: %d items, err = %v; want 0, ErrInput", v.name, bad, n, err)
					}
					if after := mustMarshal(t, v.inst); !bytes.Equal(after, before) {
						t.Fatalf("%s: last line %q: rejected batch changed the sketch", v.name, bad)
					}
				}
			}
		})
	}
}
