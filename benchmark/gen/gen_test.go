package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func digest(in *Input) string {
	h := sha256.New()
	for b := range in.Plain {
		h.Write(in.Plain[b])
		h.Write(in.Weighted[b])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameBodies(t *testing.T) {
	a, b := New(7, 8), New(7, 8)
	for i := range a.Plain {
		if !bytes.Equal(a.Plain[i], b.Plain[i]) || !bytes.Equal(a.Weighted[i], b.Weighted[i]) {
			t.Fatalf("body %d differs between two generations from seed 7", i)
		}
	}
	if digest(a) == digest(New(8, 8)) {
		t.Fatal("seeds 7 and 8 generate the same bodies")
	}
}

// The bodies of a seed are part of the benchmark's definition: two
// commits are compared on them. A toolchain or generator change that
// alters them must show up here, not as a shifted baseline.
func TestSeedOneIsPinned(t *testing.T) {
	const want = "8df00da8ced7d26a226948a0a20e17acef484dad349e7b974be014e60621f7c5"
	if got := digest(New(1, 4)); got != want {
		t.Fatalf("seed 1 digest = %s, want %s", got, want)
	}
}

func TestBodiesMatchGroundTruth(t *testing.T) {
	in := New(3, 2)
	for b := range in.Plain {
		plain := bytes.Split(bytes.TrimSuffix(in.Plain[b], []byte("\n")), []byte("\n"))
		weighted := bytes.Split(bytes.TrimSuffix(in.Weighted[b], []byte("\n")), []byte("\n"))
		if len(plain) != Lines || len(weighted) != Lines {
			t.Fatalf("body %d: %d plain and %d weighted lines, want %d", b, len(plain), len(weighted), Lines)
		}
		for i := range plain {
			key := Key(in.Keys[b][i])
			if string(plain[i]) != key {
				t.Fatalf("body %d line %d: plain %q, key %q", b, i, plain[i], key)
			}
			w := in.Weights[b][i]
			if w < 1 || w > MaxWeight {
				t.Fatalf("body %d line %d: weight %d outside [1, %d]", b, i, w, MaxWeight)
			}
			if want := key + "\t" + string(rune('0'+w)); string(weighted[i]) != want {
				t.Fatalf("body %d line %d: weighted %q, want %q", b, i, weighted[i], want)
			}
			if in.Keys[b][i] >= Flows {
				t.Fatalf("body %d line %d: flow %d outside the universe", b, i, in.Keys[b][i])
			}
		}
	}
}
